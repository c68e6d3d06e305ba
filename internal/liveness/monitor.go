package liveness

import (
	"context"
	"math"
	"sync"
	"time"

	"snipe/internal/gossip"
	"snipe/internal/naming"
	"snipe/internal/rcds"
	"snipe/internal/stats"
)

// State is the Monitor's judgement of one host.
type State uint8

// Host liveness states. The failure path is Alive → Suspect → Dead;
// a clean shutdown tombstone goes straight to Left; a fresh heartbeat
// returns any state to Alive (a healed partition or a restarted host).
// They are declared in rank order: of two gossip claims at equal
// (incarnation, sequence) the later state wins, as in the agents' own
// conflict resolution.
const (
	Unknown State = iota // no heartbeat ever observed
	Alive
	Suspect
	Dead
	Left // clean shutdown (tombstone published)
)

// String names the state.
func (s State) String() string {
	switch s {
	case Alive:
		return "alive"
	case Suspect:
		return "suspect"
	case Dead:
		return "dead"
	case Left:
		return "left"
	default:
		return "unknown"
	}
}

// Placeable reports whether a resource manager may place new work on a
// host in this state. Unknown passes: records without heartbeats (e.g.
// hand-registered hosts) keep working as before the subsystem existed.
func (s State) Placeable() bool { return s != Suspect && s != Dead && s != Left }

// Event is one state transition — the paper's failure notification.
type Event struct {
	Host   string // host URL
	From   State
	To     State
	Reason string
	At     time.Time
}

// Info is a point-in-time view of one tracked host.
type Info struct {
	Host         string
	State        State
	Seq          uint64        // last heartbeat/gossip sequence number seen
	Inc          uint64        // gossip incarnation (zero for a heartbeat-only record)
	Load         float64       // load carried by the last heartbeat or digest
	Age          time.Duration // since the last new liveness evidence arrived
	SuspectAfter time.Duration // current adaptive suspicion bound
}

// Options tunes a Monitor. Zero values take the defaults noted.
type Options struct {
	// CheckInterval is the evaluation tick (default 25ms).
	CheckInterval time.Duration
	// MinSuspect floors the adaptive suspicion bound (default 50ms), so
	// a burst of quick heartbeats cannot tighten the detector below
	// scheduling noise.
	MinSuspect time.Duration
	// MaxSuspect caps the bound and is also the bound used before any
	// inter-arrival history exists (default 10s).
	MaxSuspect time.Duration
}

// deadFactor scales the suspicion bound into the death bound: a host
// is dead after deadFactor × suspect-bound of silence.
const deadFactor = 2

func (o *Options) fill() {
	if o.CheckInterval <= 0 {
		o.CheckInterval = 25 * time.Millisecond
	}
	if o.MinSuspect <= 0 {
		o.MinSuspect = 50 * time.Millisecond
	}
	if o.MaxSuspect <= 0 {
		o.MaxSuspect = 10 * time.Second
	}
}

// historySize is the inter-arrival window behind the adaptive bound.
const historySize = 32

// hostRecord is the Monitor's per-host tracking state.
type hostRecord struct {
	state     State
	seq       uint64
	aliveSeq  uint64 // highest seq any alive claim carried at inc
	inc       uint64 // gossip incarnation (zero for a heartbeat-only record)
	load      float64
	lastBeat  time.Time // local arrival time of the last NEW evidence
	lastSeen  time.Time // last intake mentioning the host, fresh or stale
	changedAt time.Time // when the current state was adopted
	intervals []time.Duration
	next      int // ring cursor into intervals
}

// digestMark records the newest digest ingested for one gossip group.
// A lagging replica can serve an older digest during catch-up, and a
// group whose reporter is gone leaves its last digest in the catalog
// to be re-read; a digest that is not strictly newer than the mark
// contributes no liveness evidence twice.
type digestMark struct {
	reporter string
	seq      uint64
}

// Monitor tracks host liveness from heartbeat and group-digest
// metadata. Both reach it one way: a naming.Watch per prefix, whose
// wake-up re-reads the prefix, so a notification the catalog drops
// costs latency, never evidence.
type Monitor struct {
	cat  naming.Catalog
	opts Options

	// digestVals is the digest value last ingested per group URI, so a
	// re-read of an unchanged digest skips the parse. Only the digest
	// scan touches it.
	digestVals map[string]string

	mu    sync.Mutex
	hosts map[string]*hostRecord
	marks map[int]digestMark // newest ingested digest per gossip group
	// retention is how long a Dead or Left record is kept once both its
	// last transition and the last evidence mentioning it are in the
	// past: 10 × MaxSuspect, floored at one minute (the package's tests
	// shorten it). Expiring settled records bounds monitor memory under
	// host churn and lets a host reborn after a long outage meet a clean
	// slate instead of its old verdict.
	retention time.Duration

	subMu   sync.Mutex
	subs    map[int]chan Event
	nextSub int
	closed  bool

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	metrics      *stats.Registry
	mHeartbeats  *stats.Counter
	mDigests     *stats.Counter
	mSuspects    *stats.Counter
	mDeads       *stats.Counter
	mRevives     *stats.Counter
	mLefts       *stats.Counter
	mScans       *stats.Counter
	mDropped     *stats.Counter   // subscriber events evicted (drop-oldest)
	hDetectDelay *stats.Histogram // µs from last heartbeat to dead verdict
}

// NewMonitor builds and starts a monitor over cat.
func NewMonitor(cat naming.Catalog, opts Options) *Monitor {
	opts.fill()
	ctx, cancel := context.WithCancel(context.Background())
	m := &Monitor{
		cat:        cat,
		opts:       opts,
		digestVals: make(map[string]string),
		hosts:      make(map[string]*hostRecord),
		marks:      make(map[int]digestMark),
		retention:  max(10*opts.MaxSuspect, time.Minute),
		subs:       make(map[int]chan Event),
		ctx:        ctx,
		cancel:     cancel,
		metrics:    stats.NewRegistry(),
	}
	m.mHeartbeats = m.metrics.Counter("heartbeats_observed")
	m.mDigests = m.metrics.Counter("digests_observed")
	m.mDropped = m.metrics.Counter("liveness_events_dropped")
	m.mSuspects = m.metrics.Counter("transitions_suspect")
	m.mDeads = m.metrics.Counter("transitions_dead")
	m.mRevives = m.metrics.Counter("transitions_alive")
	m.mLefts = m.metrics.Counter("transitions_left")
	m.mScans = m.metrics.Counter("catalog_scans")
	m.hDetectDelay = m.metrics.Histogram("detect_delay_us", stats.LatencyBucketsUs)
	// Seed from what is already registered. Each watch re-reads its
	// prefix once it is in place, which covers what lands in between.
	m.scanHosts()
	m.scanDigests()
	m.wg.Add(3)
	go m.watch(naming.HostPrefix, m.scanHosts)
	go m.watch(naming.LivenessPrefix, m.scanDigests)
	go m.evalLoop()
	return m
}

// Close stops the monitor's goroutines and closes event channels.
func (m *Monitor) Close() {
	m.cancel()
	m.wg.Wait()
	m.subMu.Lock()
	subs := m.subs
	m.subs = nil
	m.closed = true
	m.subMu.Unlock()
	for _, ch := range subs {
		close(ch)
	}
}

// State answers the synchronous query API: the current judgement of
// hostURL.
func (m *Monitor) State(hostURL string) State {
	m.mu.Lock()
	defer m.mu.Unlock()
	rec, ok := m.hosts[hostURL]
	if !ok {
		return Unknown
	}
	return rec.state
}

// Subscribe registers a state-change subscription: every host
// transition is delivered on the returned channel (buffer buf, default
// 128 when buf <= 0). Slow consumers drop events rather than stalling
// detection; resync with Snapshot. The cancel function removes the
// subscription and closes the channel; it is idempotent and safe to
// call after Close (which closes every remaining channel itself).
func (m *Monitor) Subscribe(buf int) (<-chan Event, func()) {
	if buf <= 0 {
		buf = 128
	}
	ch := make(chan Event, buf)
	m.subMu.Lock()
	if m.closed {
		m.subMu.Unlock()
		close(ch)
		return ch, func() {}
	}
	id := m.nextSub
	m.nextSub++
	m.subs[id] = ch
	m.subMu.Unlock()
	cancel := func() {
		m.subMu.Lock()
		sub, ok := m.subs[id]
		if ok {
			delete(m.subs, id)
		}
		m.subMu.Unlock()
		if ok {
			close(sub)
		}
	}
	return ch, cancel
}

// Snapshot reports every tracked host.
func (m *Monitor) Snapshot() []Info {
	now := time.Now()
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Info, 0, len(m.hosts))
	for url, rec := range m.hosts {
		out = append(out, Info{
			Host:         url,
			State:        rec.state,
			Seq:          rec.seq,
			Inc:          rec.inc,
			Load:         rec.load,
			Age:          now.Sub(rec.lastBeat),
			SuspectAfter: m.suspectBoundLocked(rec),
		})
	}
	return out
}

// Metrics returns the monitor's live metric registry.
func (m *Monitor) Metrics() *stats.Registry { return m.metrics }

// MetricsSnapshot captures the metrics with per-state host gauges
// refreshed.
func (m *Monitor) MetricsSnapshot() stats.Snapshot {
	counts := map[State]int{}
	m.mu.Lock()
	for _, rec := range m.hosts {
		counts[rec.state]++
	}
	m.mu.Unlock()
	m.metrics.Gauge("hosts_alive").Set(float64(counts[Alive]))
	m.metrics.Gauge("hosts_suspect").Set(float64(counts[Suspect]))
	m.metrics.Gauge("hosts_dead").Set(float64(counts[Dead]))
	m.metrics.Gauge("hosts_left").Set(float64(counts[Left]))
	return m.metrics.Snapshot()
}

// MarkSuspect forces a host into Suspect — the entry point for
// out-of-band evidence (an operator, a failed health probe, an
// evacuation drill). A later heartbeat revives the host as usual.
func (m *Monitor) MarkSuspect(hostURL, reason string) {
	m.mu.Lock()
	rec := m.recordLocked(hostURL)
	var ev *Event
	if rec.state == Alive || rec.state == Unknown {
		ev = m.transitionLocked(hostURL, rec, Suspect, reason)
	}
	m.mu.Unlock()
	m.emit(ev)
}

// --- heartbeat intake ----------------------------------------------------

// recordLocked returns (creating if needed) the record for hostURL.
func (m *Monitor) recordLocked(hostURL string) *hostRecord {
	rec, ok := m.hosts[hostURL]
	if !ok {
		rec = &hostRecord{state: Unknown}
		m.hosts[hostURL] = rec
	}
	return rec
}

// observe ingests one heartbeat value for a host. now is the local
// arrival time (the adaptive bound is built from local inter-arrival
// gaps, never from sender clocks).
func (m *Monitor) observe(hostURL, value string, now time.Time) {
	hb, err := ParseHeartbeat(value)
	if err != nil {
		return // tolerate foreign records in open metadata
	}
	var ev *Event
	m.mu.Lock()
	rec := m.recordLocked(hostURL)
	rec.lastSeen = now
	switch {
	case hb.Down:
		if rec.state != Left {
			ev = m.transitionLocked(hostURL, rec, Left, "clean shutdown")
		}
		rec.seq = hb.Seq
	case hb.Seq > rec.seq || rec.state == Left ||
		(rec.state == Dead && rec.inc == 0 && hb.Seq < rec.seq):
		// A restarted daemon begins a new incarnation at seq 1: any
		// heartbeat after a tombstone is such a rebirth, and so is a
		// LOWER-seq heartbeat after a death verdict on a heartbeat-only
		// record — without that clause a reborn host stays Dead until its
		// new counter outruns its old one. Gossip-fed records (inc > 0)
		// instead revive through their agent's boot-derived incarnation;
		// for them the frozen startup heartbeat a crashed host leaves in
		// the catalog must not keep resurrecting the record. An equal-seq
		// re-read of the final pre-death heartbeat stays old news.
		m.mHeartbeats.Inc()
		if !rec.lastBeat.IsZero() && hb.Seq > rec.seq && rec.state != Left {
			// The catalog may batch several beats between scans: spread
			// the elapsed time over the sequence distance so the history
			// reflects the sender's cadence, not our scan cadence.
			gap := now.Sub(rec.lastBeat) / time.Duration(hb.Seq-rec.seq)
			if gap > 0 {
				rec.pushInterval(gap)
			}
		}
		rec.seq = hb.Seq
		rec.load = hb.Load
		rec.lastBeat = now
		if rec.state != Alive {
			ev = m.transitionLocked(hostURL, rec, Alive, "heartbeat")
		}
	default:
		// Old news (same or earlier seq): no new liveness information.
	}
	m.mu.Unlock()
	m.emit(ev)
}

// --- gossip digest intake ------------------------------------------------

// observeDigest ingests one gossip group digest: the second tier of
// the hierarchical detector. Intake is deduplicated on the digest's
// (reporter, seq): a digest that stops changing — the whole group
// crashed and no reporter remains to write — must contribute no new
// liveness evidence however often it is read, or its members stay
// Alive forever. An older seq from the same reporter (a lagging
// replica during catch-up) is likewise a replay; a different reporter
// is always admitted — that is failover, not a replay. Every member
// entry of an admitted digest is merged as gossip evidence; a minority
// digest (reporter partitioned from most of its group) has its death
// verdicts downgraded to suspicion, so an isolated ex-reporter cannot
// condemn the healthy majority.
func (m *Monitor) observeDigest(value string, now time.Time) {
	d, err := gossip.ParseDigest(value)
	if err != nil {
		return // tolerate foreign records in open metadata
	}
	m.mu.Lock()
	mark, seen := m.marks[d.Group]
	if seen && mark.reporter == d.Reporter && d.Seq <= mark.seq {
		m.mu.Unlock()
		return
	}
	m.marks[d.Group] = digestMark{reporter: d.Reporter, seq: d.Seq}
	m.mu.Unlock()
	m.mDigests.Inc()
	for _, u := range d.Members {
		m.observeGossip(u, d.Quorum, now)
	}
}

// gossipState maps a gossip claim's state to the monitor's.
func gossipState(s uint8) State {
	switch s {
	case gossip.StateLeft:
		return Left
	case gossip.StateDead:
		return Dead
	case gossip.StateSuspect:
		return Suspect
	case gossip.StateAlive:
		return Alive
	default:
		return Unknown
	}
}

// observeGossip merges one gossip liveness claim about a host.
// Higher incarnation wins outright. At equal incarnations freshness is
// asymmetric in both directions that matter: a suspicion or death
// verdict carries the sequence at which the member was LAST HEARD,
// which lags its final alive dissemination, so a higher state rank
// wins even at a lower sequence; conversely an alive claim whose
// sequence strictly advances past both the verdict's frozen sequence
// and the highest alive sequence ever credited proves the member made
// progress after the verdict and resurrects it — the victim of a
// healed partition never bumps its incarnation when its peers expired
// it silently, so progress is the only revival signal. An alive claim
// that advances nothing still refreshes the arrival clock of an Alive
// record — an admitted digest re-asserting an unchanged member seq is
// the reporter's detector vouching for it despite dissemination lag —
// but cannot touch a record under a verdict, and replayed digests are
// deduped before their claims reach this merge at all.
//
// quorum=false marks evidence from a minority digest: its death
// verdicts count only as suspicion, and its alive claims refresh the
// record but cannot overturn a Dead or Left verdict — in a gossip
// split where both sides still reach the catalog, a minority
// reporter's advancing sequences would otherwise flap its members
// between Dead and Alive every digest interval. Suspicion is still
// cleared by minority evidence: a two-member group can never form a
// quorum, and its lone survivor must be able to refute a false
// suspicion of itself. An incarnation bump — the member's own
// refutation — revives from any state regardless of quorum.
func (m *Monitor) observeGossip(u gossip.Update, quorum bool, now time.Time) {
	if u.Host == "" {
		return
	}
	var ev *Event
	m.mu.Lock()
	rec := m.recordLocked(u.Host)
	rec.lastSeen = now
	claim := gossipState(u.State)
	incAdvance := u.Inc > rec.inc
	var fresh bool
	switch {
	case u.Inc != rec.inc:
		fresh = incAdvance
	case claim == Alive:
		// Progress past rec.seq alone is not enough: a verdict froze
		// rec.seq at its lagging last-heard value, so a replayed older
		// alive claim (an out-of-order digest from a lagging replica)
		// can sit between the frozen seq and the highest alive seq
		// already credited. Genuine life advances past both.
		fresh = claim > rec.state || (u.Seq > rec.seq && u.Seq > rec.aliveSeq)
	default:
		fresh = claim > rec.state || u.Seq > rec.seq
	}
	if !fresh {
		if claim == Alive && u.Seq == rec.seq && rec.state == Alive {
			// A newer digest re-asserting the member at an unchanged seq
			// is the reporter's failure detector still vouching for it:
			// fresh group-level evidence even though dissemination lag
			// kept the member's own counter from advancing between
			// digest writes. Replayed digests never reach this point —
			// intake dedupes them — so refreshing the arrival clock here
			// cannot keep a crashed group alive. A record under a
			// verdict (Suspect/Dead/Left) still demands seq progress.
			rec.lastBeat = now
		}
		m.mu.Unlock()
		return
	}
	if incAdvance {
		rec.aliveSeq = 0 // sequences restart with the new incarnation
	}
	switch claim {
	case Alive:
		if !rec.lastBeat.IsZero() && !incAdvance && u.Seq > rec.seq {
			// Digests batch several gossip rounds between catalog writes:
			// spread the elapsed time over the sequence distance so the
			// history reflects the member's cadence, not the digest's.
			gap := now.Sub(rec.lastBeat) / time.Duration(u.Seq-rec.seq)
			if gap > 0 {
				rec.pushInterval(gap)
			}
		}
		rec.inc, rec.seq, rec.load = u.Inc, u.Seq, u.Load
		if u.Seq > rec.aliveSeq {
			rec.aliveSeq = u.Seq
		}
		rec.lastBeat = now
		if rec.state != Alive {
			if !quorum && !incAdvance && (rec.state == Dead || rec.state == Left) {
				// Minority evidence refreshes but cannot resurrect.
			} else {
				ev = m.transitionLocked(u.Host, rec, Alive, "gossip alive")
			}
		}
	case Suspect:
		rec.inc, rec.seq = u.Inc, u.Seq
		if rec.state == Alive || rec.state == Unknown {
			ev = m.transitionLocked(u.Host, rec, Suspect, "gossip suspicion")
		}
	case Dead:
		rec.inc, rec.seq = u.Inc, u.Seq
		if quorum {
			if rec.state != Dead && rec.state != Left {
				ev = m.transitionLocked(u.Host, rec, Dead, "gossip verdict")
				if !rec.lastBeat.IsZero() {
					m.hDetectDelay.Observe(float64(now.Sub(rec.lastBeat).Microseconds()))
				}
			}
		} else if rec.state == Alive || rec.state == Unknown {
			// Minority digest: the reporter may be the partitioned one.
			ev = m.transitionLocked(u.Host, rec, Suspect, "minority gossip verdict")
		}
	case Left:
		rec.inc, rec.seq = u.Inc, u.Seq
		if rec.state != Left {
			ev = m.transitionLocked(u.Host, rec, Left, "gossip departure")
		}
	}
	m.mu.Unlock()
	m.emit(ev)
}

func (r *hostRecord) pushInterval(d time.Duration) {
	if len(r.intervals) < historySize {
		r.intervals = append(r.intervals, d)
		return
	}
	r.intervals[r.next] = d
	r.next = (r.next + 1) % historySize
}

// intervalStats returns mean and standard deviation of the observed
// inter-arrival history.
func (r *hostRecord) intervalStats() (mean, std time.Duration, n int) {
	n = len(r.intervals)
	if n == 0 {
		return 0, 0, 0
	}
	var sum float64
	for _, d := range r.intervals {
		sum += float64(d)
	}
	mf := sum / float64(n)
	var varsum float64
	for _, d := range r.intervals {
		diff := float64(d) - mf
		varsum += diff * diff
	}
	return time.Duration(mf), time.Duration(math.Sqrt(varsum / float64(n))), n
}

// suspectBoundLocked computes the current suspicion bound for a host:
// adaptive (mean + 4σ, floored at 2.5× the mean so steady cadences get
// slack for scheduling noise). With no history yet, the cap applies.
// Caller holds m.mu.
func (m *Monitor) suspectBoundLocked(rec *hostRecord) time.Duration {
	mean, std, n := rec.intervalStats()
	if n == 0 {
		return m.opts.MaxSuspect
	}
	bound := mean + 4*std
	floor := mean * 5 / 2
	if rec.inc > 0 {
		// Digest-fed record: every member of a gossip group refreshes on
		// the group's single write cadence, so a crashed reporter stalls
		// them all together until another member detects the death and
		// takes over (~2-3 probe intervals). The floor must span that
		// failover gap, or the whole group is falsely suspected in
		// unison; actual failures are still detected faster through the
		// digests' own suspect/dead verdicts.
		floor = mean * 5
	}
	if bound < floor {
		bound = floor
	}
	if bound < m.opts.MinSuspect {
		bound = m.opts.MinSuspect
	}
	if bound > m.opts.MaxSuspect {
		bound = m.opts.MaxSuspect
	}
	return bound
}

// transitionLocked moves a host to a new state and prepares the event.
// Caller holds m.mu and must call emit after unlocking.
func (m *Monitor) transitionLocked(hostURL string, rec *hostRecord, to State, reason string) *Event {
	from := rec.state
	rec.state = to
	at := time.Now()
	rec.changedAt = at
	switch to {
	case Suspect:
		m.mSuspects.Inc()
	case Dead:
		m.mDeads.Inc()
	case Alive:
		m.mRevives.Inc()
	case Left:
		m.mLefts.Inc()
	}
	return &Event{Host: hostURL, From: from, To: to, Reason: reason, At: at}
}

// emit broadcasts an event (nil is a no-op) to all subscribers. A full
// subscriber buffer evicts its OLDEST event to admit the new one
// (counted by liveness_events_dropped): a slow consumer that finally
// drains sees the FRESHEST transitions — the ones that still describe
// reality — rather than a stale prefix, and never backpressures
// detection. Sends happen under subMu so a concurrent cancel cannot
// close a channel mid-send; every send is non-blocking, so the lock is
// never held for long.
func (m *Monitor) emit(ev *Event) {
	if ev == nil {
		return
	}
	m.subMu.Lock()
	for _, ch := range m.subs {
		select {
		case ch <- *ev:
			continue
		default:
		}
		// Buffer full: evict the oldest queued event, then retry once. A
		// consumer racing us may have freed space (eviction finds the
		// channel empty) or refilled it (the retry fails) — either way we
		// never block, and every lost event is counted.
		select {
		case <-ch:
			m.mDropped.Inc()
		default:
		}
		select {
		case ch <- *ev:
		default:
			m.mDropped.Inc()
		}
	}
	m.subMu.Unlock()
}

// --- watch plumbing ------------------------------------------------------

// watch re-runs scan whenever the catalog's subscription under prefix
// wakes (naming.Watch). A wake-up carries no detail, so a burst of
// writes costs one re-read, and one the catalog drops costs nothing.
func (m *Monitor) watch(prefix string, scan func()) {
	defer m.wg.Done()
	naming.Watch(m.ctx, m.cat, prefix, scan)
}

// scanHosts reads every host record's heartbeat. Catalog errors are
// tolerated here and in scanDigests: an unreachable catalog stalls
// intake, and the silence is indistinguishable from host failure —
// exactly the partition semantics the detector is specified to report.
func (m *Monitor) scanHosts() {
	m.mScans.Inc()
	urls, err := m.cat.URIs(naming.HostPrefix)
	if err != nil {
		return
	}
	now := time.Now()
	for _, url := range urls {
		if v, ok, err := m.cat.FirstValue(url, rcds.AttrHeartbeat); err == nil && ok {
			m.observe(url, v, now)
		}
	}
}

// scanDigests reads every gossip group digest. A digest whose value was
// already ingested is skipped unparsed: most groups have not written
// since the last wake-up.
func (m *Monitor) scanDigests() {
	m.mScans.Inc()
	uris, err := m.cat.URIs(naming.LivenessPrefix)
	if err != nil {
		return
	}
	now := time.Now()
	for _, uri := range uris {
		v, ok, err := m.cat.FirstValue(uri, rcds.AttrGroupDigest)
		if err != nil || !ok || v == m.digestVals[uri] {
			continue
		}
		m.digestVals[uri] = v
		m.observeDigest(v, now)
	}
}

// evalLoop ages hosts toward suspicion and death on the check tick.
func (m *Monitor) evalLoop() {
	defer m.wg.Done()
	ticker := time.NewTicker(m.opts.CheckInterval)
	defer ticker.Stop()
	for {
		select {
		case <-m.ctx.Done():
			return
		case <-ticker.C:
			m.evaluate(time.Now())
		}
	}
}

// evaluate applies the timeout state machine to every tracked host and
// expires settled records.
func (m *Monitor) evaluate(now time.Time) {
	var evs []*Event
	m.mu.Lock()
	for url, rec := range m.hosts {
		if rec.state == Dead || rec.state == Left {
			// A settled record is kept while anything still mentions the
			// host (every re-read finds whatever the catalog retains) and
			// expired once the evidence stops, mirroring the gossip
			// agents' own member retention: bounded memory under churn,
			// and a host reborn after a long outage meets a clean slate
			// instead of a verdict it can no longer out-sequence.
			if now.Sub(rec.changedAt) > m.retention && now.Sub(rec.lastSeen) > m.retention {
				delete(m.hosts, url)
			}
			continue
		}
		if rec.lastBeat.IsZero() {
			continue
		}
		age := now.Sub(rec.lastBeat)
		bound := m.suspectBoundLocked(rec)
		deadBound := deadFactor * bound
		switch rec.state {
		case Unknown, Alive:
			if age > deadBound {
				evs = append(evs, m.transitionLocked(url, rec, Dead, "heartbeat timeout"))
				m.hDetectDelay.Observe(float64(age.Microseconds()))
			} else if age > bound {
				evs = append(evs, m.transitionLocked(url, rec, Suspect, "heartbeat overdue"))
			}
		case Suspect:
			if age > deadBound {
				evs = append(evs, m.transitionLocked(url, rec, Dead, "heartbeat timeout"))
				m.hDetectDelay.Observe(float64(age.Microseconds()))
			}
		}
	}
	m.mu.Unlock()
	for _, ev := range evs {
		m.emit(ev)
	}
}
