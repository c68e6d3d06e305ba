package rcds

import (
	"crypto/sha256"
	"sort"
	"strings"
	"sync"
	"time"

	"snipe/internal/stats"
	"snipe/internal/xdr"
)

// Event reports a catalog change to a subscriber.
type Event struct {
	Assertion Assertion
}

// Store is one replica's catalog state: per URI the merged entries
// (elements, Remove tombstones and one register per Set attribute), the
// per-origin op logs used for anti-entropy, and the version vector
// summarising them. The entries are a function of the set of ops
// received, whatever their order or repetition. All methods are safe for
// concurrent use.
type Store struct {
	mu      sync.Mutex
	origin  string
	lamport uint64
	seq     uint64 // this origin's next op sequence number - 1

	catalogs map[string]map[elemKey]*Assertion
	log      map[string]map[uint64]Assertion // origin → seq → op (may have holes)
	vv       VersionVector                   // contiguous high-water marks
	floor    map[string]uint64               // origin → first log seq still servable (0 = from the start)

	version uint64 // bumped on every visible change
	cond    *sync.Cond

	subs   map[int]*subscription
	nextID int

	nowFn func() int64 // injectable wall clock for tests

	// Telemetry (see internal/stats); pointers captured at construction.
	metrics        *stats.Registry
	mLocalOps      *stats.Counter
	mRemoteOps     *stats.Counter
	mRemoteApplied *stats.Counter
	mLookups       *stats.Counter
	mSnapInstall   *stats.Counter   // ops installed from a peer snapshot page
	mCompacted     *stats.Counter   // log entries dropped by compaction
	hLookupUs      *stats.Histogram // catalog read latency
	hReplLagUs     *stats.Histogram // origin mint → local apply, master-master lag
}

type subscription struct {
	prefix string
	ch     chan Event
}

// NewStore returns an empty replica identified by origin.
func NewStore(origin string) *Store {
	s := &Store{
		origin:   origin,
		catalogs: make(map[string]map[elemKey]*Assertion),
		log:      make(map[string]map[uint64]Assertion),
		vv:       make(VersionVector),
		floor:    make(map[string]uint64),
		subs:     make(map[int]*subscription),
		nowFn:    func() int64 { return time.Now().UnixNano() },
		metrics:  stats.NewRegistry(),
	}
	s.cond = sync.NewCond(&s.mu)
	s.mLocalOps = s.metrics.Counter("local_ops")
	s.mRemoteOps = s.metrics.Counter("remote_ops")
	s.mRemoteApplied = s.metrics.Counter("remote_ops_applied")
	s.mLookups = s.metrics.Counter("lookups")
	s.mSnapInstall = s.metrics.Counter("snapshot_ops_installed")
	s.mCompacted = s.metrics.Counter("log_compacted_ops")
	s.hLookupUs = s.metrics.Histogram("lookup_latency_us", stats.LatencyBucketsUs)
	s.hReplLagUs = s.metrics.Histogram("replication_lag_us", stats.LatencyBucketsUs)
	return s
}

// Origin returns the replica's identity.
func (s *Store) Origin() string { return s.origin }

// newLocalOp mints a local assertion with fresh clock and sequence.
// Caller holds s.mu.
func (s *Store) newLocalOp(uri, name, value string, deleted bool) Assertion {
	s.mLocalOps.Inc()
	s.lamport++
	s.seq++
	return Assertion{
		URI:        uri,
		Name:       name,
		Value:      value,
		Clock:      s.lamport,
		Origin:     s.origin,
		Seq:        s.seq,
		Deleted:    deleted,
		ServerTime: s.nowFn(),
	}
}

// live reports whether entry a, held at key in cat, is a live value of
// its attribute. An element is unless it is a tombstone. The register is
// unless an element stands at (name, its value): applyLocked keeps only
// elements stamped after the register, so that one is a Remove that took
// the value away or an Add that carries it (and is the one counted).
func live(cat map[elemKey]*Assertion, key elemKey, a *Assertion) bool {
	if !key.sole {
		return !a.Deleted
	}
	_, over := cat[elemKey{name: key.name, value: a.Value}]
	return !over
}

// liveValue reports whether value is a live value of name in cat.
func liveValue(cat map[elemKey]*Assertion, name, value string) bool {
	if cur, ok := cat[elemKey{name: name, value: value}]; ok {
		return !cur.Deleted
	}
	reg := cat[elemKey{name: name, sole: true}]
	return reg != nil && reg.Value == value
}

// applyLocked merges one assertion into the catalog. An attribute's
// register is a floor under the whole attribute: an assertion not
// stamped after it is dropped, and a Sole assertion that is deletes
// every element and tombstone of the attribute stamped before it. Above
// the floor each (name, value) keeps its last writer. Returns true if
// the catalog visibly changed. Caller holds s.mu.
func (s *Store) applyLocked(a Assertion) bool {
	cat, ok := s.catalogs[a.URI]
	if !ok {
		cat = make(map[elemKey]*Assertion)
		s.catalogs[a.URI] = cat
	}
	reg := cat[elemKey{name: a.Name, sole: true}]
	if reg != nil && !a.Supersedes(reg) {
		return false
	}
	key, cur := keyOf(&a), reg
	if !a.Sole {
		if cur = cat[key]; cur != nil && !a.Supersedes(cur) {
			return false
		}
	}
	if cur != nil {
		*cur = a // readers copy under s.mu; nothing holds the entry
	} else {
		cp := a
		cat[key] = &cp
	}
	if a.Sole && len(cat) > 1 {
		for k, old := range cat {
			if k.name == a.Name && !k.sole && a.Supersedes(old) {
				delete(cat, k)
			}
		}
	}
	if a.Clock > s.lamport {
		s.lamport = a.Clock
	}
	s.version++
	s.notifyLocked(a)
	s.cond.Broadcast()
	return true
}

// originLogLocked returns origin's op log, creating it if need be.
// Caller holds s.mu.
func (s *Store) originLogLocked(origin string) map[uint64]Assertion {
	l, ok := s.log[origin]
	if !ok {
		l = make(map[uint64]Assertion)
		s.log[origin] = l
	}
	return l
}

// recordLocked files op in the origin's log and advances the contiguous
// version vector, draining any pending ops that become contiguous.
// Caller holds s.mu.
func (s *Store) recordLocked(a Assertion) {
	l := s.originLogLocked(a.Origin)
	if _, dup := l[a.Seq]; dup {
		return
	}
	l[a.Seq] = a
	for {
		next := s.vv[a.Origin] + 1
		if _, ok := l[next]; !ok {
			break
		}
		s.vv[a.Origin] = next
	}
}

func (s *Store) notifyLocked(a Assertion) {
	for _, sub := range s.subs {
		if strings.HasPrefix(a.URI, sub.prefix) {
			select {
			case sub.ch <- Event{Assertion: a}:
			default: // slow subscriber: drop rather than block the store
			}
		}
	}
}

// Set makes value the sole live value for (uri, name) with one
// clear-and-set op, whatever the attribute held: the op replaces the
// attribute's register and, on every replica it reaches, deletes each
// element and tombstone of the attribute stamped before it — including
// an Add another replica accepted concurrently and this one never saw —
// while one that arrives afterwards with a lower stamp is dropped. An
// overwrite therefore costs the same at the first and the millionth
// value and leaves no tombstone. It returns the op to push to peers.
func (s *Store) Set(uri, name, value string) []Assertion {
	s.mu.Lock()
	defer s.mu.Unlock()
	op := s.newLocalOp(uri, name, value, false)
	op.Sole = true
	s.recordLocked(op)
	s.applyLocked(op)
	return []Assertion{op}
}

// Add inserts value as an additional live value for (uri, name) —
// RCDS attributes such as locations and comm addresses are
// multi-valued. Returns the op to push.
func (s *Store) Add(uri, name, value string) []Assertion {
	s.mu.Lock()
	defer s.mu.Unlock()
	op := s.newLocalOp(uri, name, value, false)
	s.recordLocked(op)
	s.applyLocked(op)
	return []Assertion{op}
}

// AddSigned inserts a value carrying a detached signature (used for
// signed metadata subsets such as published keys and code signatures).
func (s *Store) AddSigned(uri, name, value string, signer string, sig []byte) []Assertion {
	s.mu.Lock()
	defer s.mu.Unlock()
	op := s.newLocalOp(uri, name, value, false)
	op.Signer = signer
	op.Signature = sig
	s.recordLocked(op)
	s.applyLocked(op)
	return []Assertion{op}
}

// Remove tombstones the (uri, name, value) element. Returns the ops to
// push (empty if the element was not live).
func (s *Store) Remove(uri, name, value string) []Assertion {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !liveValue(s.catalogs[uri], name, value) {
		return nil
	}
	op := s.newLocalOp(uri, name, value, true)
	s.recordLocked(op)
	s.applyLocked(op)
	return []Assertion{op}
}

// RemoveAll tombstones every live value of (uri, name).
func (s *Store) RemoveAll(uri, name string) []Assertion {
	s.mu.Lock()
	defer s.mu.Unlock()
	var ops []Assertion
	cat := s.catalogs[uri]
	for key, cur := range cat {
		if key.name == name && live(cat, key, cur) {
			ops = append(ops, s.newLocalOp(uri, name, cur.Value, true))
		}
	}
	for _, op := range ops {
		s.recordLocked(op)
		s.applyLocked(op)
	}
	return ops
}

// ApplyRemote merges ops received from a peer (push or anti-entropy),
// returning the number that changed the catalog.
func (s *Store) ApplyRemote(ops []Assertion) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	changed := 0
	for _, op := range ops {
		if op.Origin == s.origin {
			continue // our own ops echoed back
		}
		s.mRemoteOps.Inc()
		s.recordLocked(op)
		if s.applyLocked(op) {
			changed++
			s.mRemoteApplied.Inc()
			// Replication lag: origin's mint time to our apply time. The
			// clocks are different hosts', so skew can swallow small lags;
			// only positive samples are meaningful.
			if op.ServerTime > 0 {
				if lag := s.nowFn() - op.ServerTime; lag > 0 {
					s.hReplLagUs.Observe(float64(lag) / 1e3)
				}
			}
		}
	}
	return changed
}

// observeLookup records one catalog read for the lookup metrics.
func (s *Store) observeLookup(start time.Time) {
	s.mLookups.Inc()
	s.hLookupUs.Observe(float64(time.Since(start).Microseconds()))
}

// Get returns the live assertions for uri, sorted by (name, value).
func (s *Store) Get(uri string) []Assertion {
	defer s.observeLookup(time.Now())
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []Assertion
	cat := s.catalogs[uri]
	for key, a := range cat {
		if live(cat, key, a) {
			out = append(out, *a)
		}
	}
	sortAssertions(out)
	return out
}

// Values returns the live values of (uri, name), sorted.
func (s *Store) Values(uri, name string) []string {
	defer s.observeLookup(time.Now())
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []string
	cat := s.catalogs[uri]
	for key, a := range cat {
		if key.name == name && live(cat, key, a) {
			out = append(out, a.Value)
		}
	}
	sort.Strings(out)
	return out
}

// FirstValue returns the most recently written live value of
// (uri, name), if any.
func (s *Store) FirstValue(uri, name string) (string, bool) {
	defer s.observeLookup(time.Now())
	s.mu.Lock()
	defer s.mu.Unlock()
	var best *Assertion
	cat := s.catalogs[uri]
	for key, a := range cat {
		if key.name == name && live(cat, key, a) {
			if best == nil || a.Supersedes(best) {
				best = a
			}
		}
	}
	if best == nil {
		return "", false
	}
	return best.Value, true
}

// URIs returns all URIs with live assertions under the prefix, sorted.
func (s *Store) URIs(prefix string) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []string
	for uri, cat := range s.catalogs {
		if !strings.HasPrefix(uri, prefix) {
			continue
		}
		for key, a := range cat {
			if live(cat, key, a) {
				out = append(out, uri)
				break
			}
		}
	}
	sort.Strings(out)
	return out
}

// Vector returns a copy of the replica's contiguous version vector.
func (s *Store) Vector() VersionVector {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.vv.Copy()
}

// OpsSince returns up to max ops that remote (with version vector
// theirs) has not seen, in per-origin sequence order. max <= 0 means
// unlimited.
func (s *Store) OpsSince(theirs VersionVector, max int) []Assertion {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []Assertion
	origins := make([]string, 0, len(s.log))
	for origin := range s.log {
		origins = append(origins, origin)
	}
	sort.Strings(origins)
	for _, origin := range origins {
		l := s.log[origin]
		for seq := theirs[origin] + 1; seq <= s.vv[origin]; seq++ {
			op, ok := l[seq]
			if !ok {
				break
			}
			out = append(out, op)
			if max > 0 && len(out) >= max {
				return out
			}
		}
	}
	return out
}

// Version returns the store's change counter.
func (s *Store) Version() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.version
}

// WaitVersion blocks until the store's version exceeds since or the
// timeout elapses, returning the current version. It is the long-poll
// primitive behind metadata change notification.
func (s *Store) WaitVersion(since uint64, timeout time.Duration) uint64 {
	return s.WaitVersionCancel(since, timeout, nil)
}

// WaitVersionCancel is WaitVersion with a cancellation channel
// (typically a server's shutdown signal): when cancel closes, the wait
// returns early with the current version. A nil cancel never fires.
func (s *Store) WaitVersionCancel(since uint64, timeout time.Duration, cancel <-chan struct{}) uint64 {
	deadline := time.Now().Add(timeout)
	canceled := func() bool {
		select {
		case <-cancel:
			return true
		default:
			return false
		}
	}
	if cancel != nil {
		stop := make(chan struct{})
		defer close(stop)
		go func() {
			select {
			case <-cancel:
				s.mu.Lock()
				s.cond.Broadcast()
				s.mu.Unlock()
			case <-stop:
			}
		}()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.version <= since && !canceled() {
		remaining := time.Until(deadline)
		if remaining <= 0 {
			break
		}
		t := time.AfterFunc(remaining, func() {
			s.mu.Lock()
			s.cond.Broadcast()
			s.mu.Unlock()
		})
		s.cond.Wait()
		t.Stop()
	}
	return s.version
}

// Subscribe delivers every catalog change whose URI has the given
// prefix to ch until Unsubscribe. Events are dropped rather than
// blocking the store if ch is full; subscribers needing completeness
// should re-read the catalog on wakeup.
func (s *Store) Subscribe(prefix string, ch chan Event) (id int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	id = s.nextID
	s.nextID++
	s.subs[id] = &subscription{prefix: prefix, ch: ch}
	return id
}

// Unsubscribe removes a subscription.
func (s *Store) Unsubscribe(id int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.subs, id)
}

// Stats reports catalog sizes for monitoring: URIs held, live values,
// and tombstones (which only Remove and RemoveAll leave, until the
// attribute's next Set).
func (s *Store) Stats() (uris, elements, tombstones int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	uris = len(s.catalogs)
	for _, cat := range s.catalogs {
		for key, a := range cat {
			if a.Deleted {
				tombstones++
			} else if live(cat, key, a) {
				elements++
			}
		}
	}
	return
}

// Metrics returns the store's live metric registry.
func (s *Store) Metrics() *stats.Registry { return s.metrics }

// MetricsSnapshot captures the store's metrics with the catalog-size
// gauges refreshed.
func (s *Store) MetricsSnapshot() stats.Snapshot {
	uris, elements, tombstones := s.Stats()
	s.metrics.Gauge("uris").Set(float64(uris))
	s.metrics.Gauge("elements").Set(float64(elements))
	s.metrics.Gauge("tombstones").Set(float64(tombstones))
	return s.metrics.Snapshot()
}

// SetNowFunc overrides the wall clock used for server timestamps; for
// tests.
func (s *Store) SetNowFunc(f func() int64) {
	s.mu.Lock()
	s.nowFn = f
	s.mu.Unlock()
}

// Snapshot + incremental catch-up (DESIGN.md "Sharded catalog"): a
// replica rejoining its group pulls the peer's compacted catalog state
// — one assertion per entry: elements, tombstones and registers, NOT
// the op history — in deterministic URI-ordered pages, then the op tail
// since the snapshot's version vector. Log compaction makes this
// necessary (the history below the floor is gone) and worthwhile (the
// snapshot is catalog-sized, the history is write-count-sized).

// SnapshotPage returns up to maxOps catalog entries (elements,
// tombstones and registers) for URIs strictly after afterURI in lexical
// order, the cursor for the next page ("" when the dump is complete),
// and the store's current version vector. Pages never split a URI, so
// the cursor is simply the last URI included.
func (s *Store) SnapshotPage(afterURI string, maxOps int) (ops []Assertion, next string, vv VersionVector) {
	if maxOps <= 0 {
		maxOps = 8192
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	uris := make([]string, 0, len(s.catalogs))
	for uri := range s.catalogs {
		if uri > afterURI {
			uris = append(uris, uri)
		}
	}
	sort.Strings(uris)
	for _, uri := range uris {
		if len(ops) >= maxOps {
			return ops, next, s.vv.Copy()
		}
		for _, a := range s.catalogs[uri] {
			ops = append(ops, *a)
		}
		next = uri
	}
	return ops, "", s.vv.Copy()
}

// InstallSnapshotOps merges one snapshot page into the catalog and the
// log, returning the number of elements that changed the catalog. The
// caller advances the version vector with MergeVector once every page
// has been installed; until then the replica does not claim coverage of
// sequence numbers it has only partially received.
func (s *Store) InstallSnapshotOps(ops []Assertion) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	changed := 0
	for _, op := range ops {
		if op.Origin == s.origin {
			continue // our own ops: already in our log
		}
		s.mSnapInstall.Inc()
		s.recordLocked(op)
		if s.applyLocked(op) {
			changed++
		}
	}
	return changed
}

// MergeVector raises the store's contiguous version vector to cover vv
// (a snapshot's base): intermediate superseded ops below the new marks
// were compacted away on the peer and will never arrive, so the log may
// now have holes under the vector. The serving floor moves up to the
// new marks for every origin that advanced — this replica can serve
// tails only from the snapshot base onward; peers that are further
// behind must themselves catch up by snapshot.
func (s *Store) MergeVector(vv VersionVector) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for origin, seq := range vv {
		if seq > s.vv[origin] {
			s.vv[origin] = seq
			if seq+1 > s.floor[origin] {
				s.floor[origin] = seq + 1
			}
		}
	}
}

// CanServeTail reports whether the log can serve every op a replica at
// vector theirs is missing — i.e. theirs is at or above the compaction
// floor for every origin this store has advanced past it on.
func (s *Store) CanServeTail(theirs VersionVector) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for origin, seq := range s.vv {
		have := theirs[origin]
		if seq > have && have+1 < s.floor[origin] {
			return false
		}
	}
	return true
}

// Compact drops log entries more than keepTail sequence numbers below
// each origin's contiguous mark, raising the serving floor accordingly,
// and returns the number of entries dropped. The catalog (elements,
// tombstones and registers) is untouched: compaction trades the ability
// to serve deep history tails for bounded log memory; replicas below
// the floor catch up by snapshot instead.
func (s *Store) Compact(keepTail int) int {
	if keepTail < 0 {
		keepTail = 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	dropped := 0
	for origin, l := range s.log {
		mark := s.vv[origin]
		if mark <= uint64(keepTail) {
			continue
		}
		horizon := mark - uint64(keepTail) // drop seqs <= horizon
		if horizon+1 > s.floor[origin] {
			s.floor[origin] = horizon + 1
		}
		for seq := range l {
			if seq <= horizon {
				delete(l, seq)
				dropped++
			}
		}
	}
	if dropped > 0 {
		s.mCompacted.Add(uint64(dropped))
	}
	return dropped
}

// LogLen returns the number of retained op-log entries across origins.
func (s *Store) LogLen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, l := range s.log {
		n += len(l)
	}
	return n
}

// ContentHash returns a digest over the full catalog content — every
// element, tombstone and register with all its fields, in deterministic
// order. Two replicas whose hashes match hold byte-identical catalogs;
// the convergence proof the catch-up tests and bench assert.
func (s *Store) ContentHash() [32]byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	uris := make([]string, 0, len(s.catalogs))
	for uri := range s.catalogs {
		uris = append(uris, uri)
	}
	sort.Strings(uris)
	h := sha256.New()
	e := xdr.NewEncoder(256)
	for _, uri := range uris {
		cat := s.catalogs[uri]
		elems := make([]Assertion, 0, len(cat))
		for _, a := range cat {
			elems = append(elems, *a)
		}
		sort.Slice(elems, func(i, j int) bool {
			if elems[i].Name != elems[j].Name {
				return elems[i].Name < elems[j].Name
			}
			if elems[i].Value != elems[j].Value {
				return elems[i].Value < elems[j].Value
			}
			// A register and an element over its value share both.
			return !elems[i].Sole && elems[j].Sole
		})
		for i := range elems {
			e.Reset()
			elems[i].Encode(e)
			h.Write(e.Bytes())
		}
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

func sortAssertions(as []Assertion) {
	sort.Slice(as, func(i, j int) bool {
		if as[i].Name != as[j].Name {
			return as[i].Name < as[j].Name
		}
		return as[i].Value < as[j].Value
	})
}
