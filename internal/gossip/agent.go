package gossip

import (
	"errors"
	"math/rand"
	"sort"
	"sync"
	"time"

	"snipe/internal/stats"
)

// Transport carries gossip messages between agents. The daemon backs
// it with its comm endpoint (XDR-encoded over task.TagGossip); tests
// and the scale bench back it with in-process fabrics. Send may be
// called concurrently and must not block indefinitely; a failed or
// dropped send is indistinguishable from loss and is handled by the
// probe timeout machinery.
type Transport interface {
	Send(to string, m *Message) error
}

// TransportFunc adapts a function to Transport.
type TransportFunc func(to string, m *Message) error

// Send implements Transport.
func (f TransportFunc) Send(to string, m *Message) error { return f(to, m) }

// Config tunes an Agent. Self and Transport are required; zero values
// elsewhere take the defaults noted.
type Config struct {
	Self  string // this host's URL (the liveness key monitors track)
	Group int    // this host's gossip group index

	// ProbeInterval is the cadence of the SWIM probe round (default
	// 100ms). Every derived timeout scales from it.
	ProbeInterval time.Duration
	// AckTimeout is how long a direct probe waits before indirect
	// ping-req probes are launched (default ProbeInterval/4, floor 10ms).
	AckTimeout time.Duration
	// ProbeTimeout is how long a probe waits in total — direct plus
	// indirect — before the target is suspected (default
	// ProbeInterval/2, floor 25ms).
	ProbeTimeout time.Duration
	// SuspectTimeout is how long a suspect may stay silent before it is
	// declared dead (default 2 × ProbeInterval).
	SuspectTimeout time.Duration
	// DigestInterval is the reporter's catalog write cadence (default
	// ProbeInterval) — one assertion per group per interval. Membership
	// changes trigger an immediate write, rate-limited to a quarter
	// interval.
	DigestInterval time.Duration

	// Transport carries messages to peers (required).
	Transport Transport
	// Peers lists the host URLs of this agent's group (self included or
	// not, either works); consulted at Start and every peerRefresh.
	// Optional: members are also learned from incoming gossip.
	Peers func() ([]string, error)
	// WriteDigest publishes a group digest to the catalog. Optional: an
	// agent without it never takes reporter duty (and gossips nothing
	// to the catalog tier).
	WriteDigest func(*Digest) error
	// Gate injects partitions at the gossip layer: a non-nil error for
	// (from, to) drops the send, regardless of transport. Optional.
	Gate func(from, to string) error
	// Load supplies the figure gossiped in this member's updates and
	// carried to placement via the digest. Optional.
	Load func() float64
}

// The SWIM k, how many helpers receive a ping-req when a direct probe
// times out, and how many random alive peers receive an immediate push
// when a member changes state.
const (
	indirectProbes = 2
	pushFanout     = 3
)

// peerRefresh is how often the Peers callback is consulted again for new
// group members.
func (c *Config) peerRefresh() time.Duration { return 10 * c.ProbeInterval }

// retention is how long dead and left members stay in the table — and so
// in digests, where monitors learn of the verdict — before being dropped.
func (c *Config) retention() time.Duration { return 20 * c.DigestInterval }

func (c *Config) fill() {
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 100 * time.Millisecond
	}
	if c.AckTimeout <= 0 {
		c.AckTimeout = maxDur(c.ProbeInterval/4, 10*time.Millisecond)
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = maxDur(c.ProbeInterval/2, 25*time.Millisecond)
	}
	if c.SuspectTimeout <= 0 {
		c.SuspectTimeout = 2 * c.ProbeInterval
	}
	if c.DigestInterval <= 0 {
		c.DigestInterval = c.ProbeInterval
	}
}

// bootInc derives an agent's starting incarnation from the boot clock.
// A host that crashes and restarts after its peers expunged the dead
// record (retention) rejoins a table that remembers nothing to refute:
// were the incarnation a constant, the reborn agent would never hear
// the old death verdict, and any monitor still holding the frozen
// verdict would keep it Dead for roughly its previous uptime (seq
// restarts at 1 and cannot out-sequence the old record). A wall-clock
// incarnation supersedes every claim from a previous life by
// construction; the refutation path (Inc = claim + 1) keeps working on
// top of it.
func bootInc() uint64 { return uint64(time.Now().UnixNano()) }

func maxDur(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}

// member is the agent's record of one group member (itself included).
type member struct {
	Update
	changedAt time.Time // when the current state was adopted
}

// probe is one outstanding probe this agent originated.
type probe struct {
	target   string
	start    time.Time
	indirect bool // ping-req helpers already launched
}

// relay is one ping this agent sent on another member's behalf.
type relay struct {
	origin  string // who asked
	probeID uint64 // the ORIGIN's probe id, echoed back on the relayed ack
	target  string
	start   time.Time
}

// send is one planned outgoing message; sends are executed outside the
// agent lock.
type send struct {
	to  string
	msg *Message
}

// Agent is one host's gossip participant: prober, suspicion state
// machine, and — when elected — the group's digest reporter.
type Agent struct {
	cfg Config

	mu        sync.Mutex
	members   map[string]*member // by host URL, self included
	self      *member
	order     []string // shuffled probe ring (round-robin with reshuffle)
	orderIdx  int
	probes    map[uint64]*probe
	relays    map[uint64]*relay
	probeID   uint64
	digestSeq uint64
	lastWrite time.Time // last digest write attempt
	dirty     bool      // membership changed since the last digest
	urgent    bool      // a state RANK changed: flush the digest now
	started   bool
	closed    bool
	rng       *rand.Rand

	done chan struct{}
	wg   sync.WaitGroup

	metrics     *stats.Registry
	mProbes     *stats.Counter
	mPingReqs   *stats.Counter
	mPushes     *stats.Counter
	mRx         *stats.Counter
	mSuspects   *stats.Counter
	mDeads      *stats.Counter
	mRefutes    *stats.Counter
	mDigests    *stats.Counter
	mDigestErrs *stats.Counter
	mGateDrops  *stats.Counter
}

// NewAgent builds an agent; call Start to join the group.
func NewAgent(cfg Config) (*Agent, error) {
	if !validHostName(cfg.Self) {
		return nil, errors.New("gossip: invalid self host name")
	}
	if cfg.Transport == nil {
		return nil, errors.New("gossip: transport required")
	}
	cfg.fill()
	a := &Agent{
		cfg:     cfg,
		members: make(map[string]*member),
		probes:  make(map[uint64]*probe),
		relays:  make(map[uint64]*relay),
		rng:     rand.New(rand.NewSource(rand.Int63())),
		done:    make(chan struct{}),
		metrics: stats.NewRegistry(),
	}
	a.self = &member{Update: Update{Host: cfg.Self, Inc: bootInc(), Seq: 1, State: StateAlive}, changedAt: time.Now()}
	a.members[cfg.Self] = a.self
	a.mProbes = a.metrics.Counter("probes")
	a.mPingReqs = a.metrics.Counter("ping_reqs")
	a.mPushes = a.metrics.Counter("pushes")
	a.mRx = a.metrics.Counter("rx_messages")
	a.mSuspects = a.metrics.Counter("suspects")
	a.mDeads = a.metrics.Counter("deads")
	a.mRefutes = a.metrics.Counter("refutes")
	a.mDigests = a.metrics.Counter("digests")
	a.mDigestErrs = a.metrics.Counter("digest_errors")
	a.mGateDrops = a.metrics.Counter("gate_drops")
	return a, nil
}

// Start joins the group: seeds membership from Peers and begins the
// probe loop.
func (a *Agent) Start() error {
	a.mu.Lock()
	if a.started || a.closed {
		a.mu.Unlock()
		return errors.New("gossip: agent already started or closed")
	}
	a.started = true
	a.mu.Unlock()
	a.refreshPeers()
	a.wg.Add(1)
	go a.run()
	return nil
}

// Close leaves the group cleanly: the agent gossips its own departure
// (StateLeft), writes a final digest if it holds reporter duty, and
// stops. Peers and monitors see a planned exit, never a crash.
func (a *Agent) Close() {
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return
	}
	a.closed = true
	wasReporter := a.reporterLocked() == a.cfg.Self
	a.self.Seq++
	a.self.State = StateLeft
	a.self.changedAt = time.Now()
	goodbye := a.pushPlanLocked(a.self.Update)
	var d *Digest
	if wasReporter && a.cfg.WriteDigest != nil {
		a.digestSeq++
		d = a.buildDigestLocked()
	}
	close(a.done)
	a.mu.Unlock()
	a.deliver(goodbye)
	if d != nil {
		a.cfg.WriteDigest(d)
	}
	a.wg.Wait()
}

// Stop kills the agent silently — the crash-simulation path: no
// goodbye gossip, no final digest. Peers must discover the death from
// probe silence alone.
func (a *Agent) Stop() {
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return
	}
	a.closed = true
	close(a.done)
	a.mu.Unlock()
	a.wg.Wait()
}

// Self returns this member's current gossiped claim.
func (a *Agent) Self() Update {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.self.Update
}

// Members snapshots the agent's member table (self included).
func (a *Agent) Members() []Update {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.stateLocked()
}

// Reporter returns the member this agent currently believes holds the
// group's digest-writing duty ("" when no candidate is alive).
func (a *Agent) Reporter() string {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.reporterLocked()
}

// Metrics returns the agent's metric registry.
func (a *Agent) Metrics() *stats.Registry { return a.metrics }

// Deliver ingests one gossip message from the transport. Safe for
// concurrent use; replies and relays are sent before returning.
func (a *Agent) Deliver(m *Message) {
	if m == nil || m.From == a.cfg.Self {
		return
	}
	a.mRx.Inc()
	now := time.Now()
	var out []send
	changed := false
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return
	}
	for _, u := range m.Updates {
		changed = a.applyLocked(u, now, &out) || changed
	}
	switch m.Kind {
	case kindPing:
		out = append(out, send{m.From, &Message{Kind: kindAck, From: a.cfg.Self, ProbeID: m.ProbeID, Updates: a.stateLocked()}})
	case kindPingReq:
		if validHostName(m.Target) && m.Target != a.cfg.Self {
			a.probeID++
			a.relays[a.probeID] = &relay{origin: m.From, probeID: m.ProbeID, target: m.Target, start: now}
			out = append(out, send{m.Target, &Message{Kind: kindPing, From: a.cfg.Self, ProbeID: a.probeID, Updates: a.stateLocked()}})
		}
	case kindAck:
		if r, ok := a.relays[m.ProbeID]; ok && m.From == r.target && m.Target == "" {
			// Our helper ping came back: relay the ack to the origin under
			// ITS probe id, with Target naming who answered.
			delete(a.relays, m.ProbeID)
			out = append(out, send{r.origin, &Message{Kind: kindAck, From: a.cfg.Self, Target: r.target, ProbeID: r.probeID, Updates: a.stateLocked()}})
		} else if p, ok := a.probes[m.ProbeID]; ok {
			if m.From == p.target || m.Target == p.target {
				delete(a.probes, m.ProbeID)
			}
		}
	case kindPush:
		// Merge-only; already done above.
	}
	a.mu.Unlock()
	a.deliver(out)
	if changed {
		// A state change arrived between run-loop ticks; if we are the
		// reporter, flush it to the catalog now instead of letting it
		// age up to a quarter interval.
		a.digestTick(now)
	}
}

// run is the agent's clock: probes fire every ProbeInterval; timeout
// scans, digest duty and membership refresh ride a four-times-finer
// sub-tick so detection latency is not quantized to whole intervals.
func (a *Agent) run() {
	defer a.wg.Done()
	tick := a.cfg.ProbeInterval / 4
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	phase := 0
	nextRefresh := time.Now().Add(a.cfg.peerRefresh())
	for {
		select {
		case <-a.done:
			return
		case <-ticker.C:
			now := time.Now()
			var out []send
			phase++
			if phase%4 == 0 {
				out = append(out, a.probeTick(now)...)
			}
			a.mu.Lock()
			a.timeoutsLocked(now, &out)
			a.mu.Unlock()
			a.deliver(out)
			a.digestTick(now)
			if a.cfg.Peers != nil && now.After(nextRefresh) {
				a.refreshPeers()
				nextRefresh = now.Add(a.cfg.peerRefresh())
			}
		}
	}
}

// probeTick advances this member's sequence number and launches the
// next round-robin probe.
func (a *Agent) probeTick(now time.Time) []send {
	var load float64
	if a.cfg.Load != nil {
		load = a.cfg.Load()
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.self.Seq++
	a.self.Load = load
	target := a.nextTargetLocked()
	if target == "" {
		return nil
	}
	a.probeID++
	a.probes[a.probeID] = &probe{target: target, start: now}
	a.mProbes.Inc()
	return []send{{target, &Message{Kind: kindPing, From: a.cfg.Self, ProbeID: a.probeID, Updates: a.stateLocked()}}}
}

// nextTargetLocked walks the shuffled probe ring, skipping members no
// longer probeable and members already under an outstanding probe, and
// reshuffles at each wrap (the SWIM round-robin randomization).
func (a *Agent) nextTargetLocked() string {
	pending := make(map[string]bool, len(a.probes))
	for _, p := range a.probes {
		pending[p.target] = true
	}
	for tries := 0; tries < 2; tries++ {
		for a.orderIdx < len(a.order) {
			host := a.order[a.orderIdx]
			a.orderIdx++
			m, ok := a.members[host]
			if ok && host != a.cfg.Self && (m.State == StateAlive || m.State == StateSuspect) && !pending[host] {
				return host
			}
		}
		a.reshuffleLocked()
	}
	return ""
}

// insertRingLocked adds a freshly learned member to the probe ring at
// a uniformly random position in the unvisited remainder. Appending in
// learning order would hand every agent the same (sorted) ring, making
// the whole group sweep targets in lockstep — time-to-first-probe of a
// failed host becomes O(group size) intervals instead of O(1) expected,
// and detection latency with it.
func (a *Agent) insertRingLocked(host string) {
	a.order = append(a.order, host)
	if rest := len(a.order) - a.orderIdx; rest > 1 {
		j := a.orderIdx + a.rng.Intn(rest)
		last := len(a.order) - 1
		a.order[j], a.order[last] = a.order[last], a.order[j]
	}
}

// reshuffleLocked rebuilds the probe ring from probeable members.
func (a *Agent) reshuffleLocked() {
	a.order = a.order[:0]
	for host, m := range a.members {
		if host != a.cfg.Self && (m.State == StateAlive || m.State == StateSuspect) {
			a.order = append(a.order, host)
		}
	}
	sort.Strings(a.order) // deterministic base before the shuffle
	a.rng.Shuffle(len(a.order), func(i, j int) { a.order[i], a.order[j] = a.order[j], a.order[i] })
	a.orderIdx = 0
}

// timeoutsLocked ages probes toward indirection and suspicion, and
// suspects toward death, and expires retained verdicts and stale
// relays. Caller holds a.mu.
func (a *Agent) timeoutsLocked(now time.Time, out *[]send) {
	for id, p := range a.probes {
		age := now.Sub(p.start)
		if !p.indirect && age > a.cfg.AckTimeout {
			p.indirect = true
			for _, helper := range a.helpersLocked(p.target) {
				a.mPingReqs.Inc()
				*out = append(*out, send{helper, &Message{Kind: kindPingReq, From: a.cfg.Self, Target: p.target, ProbeID: id, Updates: a.stateLocked()}})
			}
		}
		if age > a.cfg.ProbeTimeout {
			delete(a.probes, id)
			if m, ok := a.members[p.target]; ok && m.State == StateAlive {
				a.applyLocked(Update{Host: p.target, Inc: m.Inc, Seq: m.Seq, State: StateSuspect, Load: m.Load, NoCat: m.NoCat}, now, out)
			}
		}
	}
	for host, m := range a.members {
		switch m.State {
		case StateSuspect:
			if now.Sub(m.changedAt) > a.cfg.SuspectTimeout {
				a.applyLocked(Update{Host: host, Inc: m.Inc, Seq: m.Seq, State: StateDead, Load: m.Load, NoCat: m.NoCat}, now, out)
			}
		case StateDead, StateLeft:
			if host != a.cfg.Self && now.Sub(m.changedAt) > a.cfg.retention() {
				delete(a.members, host)
			}
		}
	}
	for id, r := range a.relays {
		if now.Sub(r.start) > a.cfg.ProbeTimeout {
			delete(a.relays, id)
		}
	}
}

// helpersLocked picks up to indirectProbes random alive members,
// excluding self and the probe target.
func (a *Agent) helpersLocked(target string) []string {
	candidates := make([]string, 0, len(a.members))
	for host, m := range a.members {
		if host != a.cfg.Self && host != target && m.State == StateAlive {
			candidates = append(candidates, host)
		}
	}
	sort.Strings(candidates)
	a.rng.Shuffle(len(candidates), func(i, j int) { candidates[i], candidates[j] = candidates[j], candidates[i] })
	if len(candidates) > indirectProbes {
		candidates = candidates[:indirectProbes]
	}
	return candidates
}

// applyLocked merges one gossiped claim into the member table and
// plans refutations and dissemination pushes. It reports whether the
// table learned a member or a member changed state. Caller holds a.mu.
func (a *Agent) applyLocked(u Update, now time.Time, out *[]send) bool {
	if !validHostName(u.Host) {
		return false
	}
	if u.Host == a.cfg.Self {
		// A claim about ourselves. Suspicion, death or departure at our
		// incarnation (or later — a rejoin after a stale verdict) is
		// refuted by bumping the incarnation, which supersedes the claim
		// everywhere it has spread.
		if u.State != StateAlive && u.Inc >= a.self.Inc && a.self.State == StateAlive {
			a.self.Inc = u.Inc + 1
			a.self.Seq = 1
			a.self.changedAt = now
			a.mRefutes.Inc()
			a.dirty = true
			*out = append(*out, a.pushPlanLocked(a.self.Update)...)
		}
		return false
	}
	m, ok := a.members[u.Host]
	if !ok {
		m = &member{Update: Update{Host: u.Host, State: StateAlive}, changedAt: now}
		m.Update = u
		a.members[u.Host] = m
		a.insertRingLocked(u.Host)
		a.dirty = true
		if u.State != StateAlive {
			a.urgent = true
			a.countTransitionLocked(u.State)
			*out = append(*out, a.pushPlanLocked(u)...)
		}
		return true
	}
	if !u.Supersedes(m.Update) {
		return false
	}
	old := m.State
	m.Update = u
	if u.State == old {
		return false
	}
	m.changedAt = now
	a.dirty = true
	a.urgent = true
	a.countTransitionLocked(u.State)
	// State changes spread faster than the probe cadence: push to a few
	// random peers immediately (suspicions so refutation starts early;
	// recoveries so false verdicts die early).
	*out = append(*out, a.pushPlanLocked(u)...)
	return true
}

func (a *Agent) countTransitionLocked(state uint8) {
	switch state {
	case StateSuspect:
		a.mSuspects.Inc()
	case StateDead:
		a.mDeads.Inc()
	}
}

// pushPlanLocked plans an immediate dissemination of u to up to
// pushFanout random alive peers, plus — always — the group's elected
// reporter: the reporter owns the digest write that carries this
// change to the catalog tier, so routing the push straight to it makes
// detection latency probe + timeout + one write rather than waiting on
// an epidemic round to reach it. Caller holds a.mu.
func (a *Agent) pushPlanLocked(u Update) []send {
	peers := make([]string, 0, len(a.members))
	for host, m := range a.members {
		if host != a.cfg.Self && host != u.Host && m.State == StateAlive {
			peers = append(peers, host)
		}
	}
	sort.Strings(peers)
	a.rng.Shuffle(len(peers), func(i, j int) { peers[i], peers[j] = peers[j], peers[i] })
	if len(peers) > pushFanout {
		peers = peers[:pushFanout]
	}
	if rep := a.reporterLocked(); rep != "" && rep != a.cfg.Self && rep != u.Host {
		repIn := false
		for _, p := range peers {
			if p == rep {
				repIn = true
				break
			}
		}
		if !repIn {
			peers = append(peers, rep)
		}
	}
	out := make([]send, 0, len(peers))
	for _, p := range peers {
		a.mPushes.Inc()
		out = append(out, send{p, &Message{Kind: kindPush, From: a.cfg.Self, Updates: []Update{u}}})
	}
	return out
}

// stateLocked snapshots the member table for piggybacking.
func (a *Agent) stateLocked() []Update {
	out := make([]Update, 0, len(a.members))
	for _, m := range a.members {
		out = append(out, m.Update)
	}
	return out
}

// reporterLocked elects the group's digest writer: the lowest-named
// alive member that can reach the catalog. If every alive member is
// catalog-blind the lowest-named alive member is drafted anyway, so
// the group keeps retrying rather than going silent by agreement.
func (a *Agent) reporterLocked() string {
	best, bestAny := "", ""
	for host, m := range a.members {
		if m.State != StateAlive {
			continue
		}
		if bestAny == "" || host < bestAny {
			bestAny = host
		}
		if !m.NoCat && (best == "" || host < best) {
			best = host
		}
	}
	if best != "" {
		return best
	}
	return bestAny
}

// digestTick performs reporter duty: if this agent is the elected
// reporter and a digest is due — the interval elapsed, a state rank
// changed (suspicions and deaths must not wait out the rate limit:
// rank flips are already bounded by the protocol's own timeouts, and
// each one deferred is pure detection latency for every digest
// consumer), or membership refreshed at least a quarter-interval ago —
// it writes the group's digest as one catalog assertion. A failed
// write marks this member NoCat and gossips it, handing duty to the
// next-ranked member; a later success clears the flag.
func (a *Agent) digestTick(now time.Time) {
	if a.cfg.WriteDigest == nil {
		return
	}
	a.mu.Lock()
	if a.closed || a.reporterLocked() != a.cfg.Self {
		a.mu.Unlock()
		return
	}
	sinceWrite := now.Sub(a.lastWrite)
	due := sinceWrite >= a.cfg.DigestInterval || a.urgent ||
		(a.dirty && sinceWrite >= a.cfg.DigestInterval/4)
	if a.self.NoCat && sinceWrite < 4*a.cfg.DigestInterval {
		// Catalog-blind: retry slowly; a healthy peer has taken over.
		due = false
	}
	if !due {
		a.mu.Unlock()
		return
	}
	a.digestSeq++
	d := a.buildDigestLocked()
	a.lastWrite = now
	a.dirty = false
	a.urgent = false
	a.mu.Unlock()

	err := a.cfg.WriteDigest(d)

	var pushes []send
	a.mu.Lock()
	if err != nil {
		a.mDigestErrs.Inc()
		if !a.self.NoCat {
			a.self.NoCat = true
			a.self.Seq++
			a.dirty = true
			pushes = a.pushPlanLocked(a.self.Update)
		}
	} else {
		a.mDigests.Inc()
		if a.self.NoCat {
			a.self.NoCat = false
			a.self.Seq++
			a.dirty = true
			pushes = a.pushPlanLocked(a.self.Update)
		}
	}
	a.mu.Unlock()
	a.deliver(pushes)
}

// buildDigestLocked folds the member table into a digest. Quorum is
// the split-brain guard: when this reporter can see at most half of
// the group's non-departed members alive, the digest is flagged
// minority and consumers must not take its death verdicts at face
// value. Caller holds a.mu.
func (a *Agent) buildDigestLocked() *Digest {
	alive, total := 0, 0
	for _, m := range a.members {
		if m.State == StateLeft {
			continue
		}
		total++
		if m.State == StateAlive {
			alive++
		}
	}
	return &Digest{
		Group:    a.cfg.Group,
		Reporter: a.cfg.Self,
		Seq:      a.digestSeq,
		Quorum:   alive*2 > total,
		Members:  a.stateLocked(),
	}
}

// refreshPeers folds the Peers callback's current listing into the
// member table; new names join as alive at incarnation zero, so any
// genuine claim about them supersedes the placeholder.
func (a *Agent) refreshPeers() {
	if a.cfg.Peers == nil {
		return
	}
	names, err := a.cfg.Peers()
	if err != nil {
		return
	}
	now := time.Now()
	a.mu.Lock()
	for _, host := range names {
		if host == a.cfg.Self || !validHostName(host) {
			continue
		}
		if _, ok := a.members[host]; !ok {
			a.members[host] = &member{Update: Update{Host: host, State: StateAlive}, changedAt: now}
			a.insertRingLocked(host)
		}
	}
	a.mu.Unlock()
}

// deliver executes planned sends outside the agent lock, applying the
// partition gate.
func (a *Agent) deliver(out []send) {
	for _, s := range out {
		if a.cfg.Gate != nil && a.cfg.Gate(a.cfg.Self, s.to) != nil {
			a.mGateDrops.Inc()
			continue
		}
		a.cfg.Transport.Send(s.to, s.msg)
	}
}
