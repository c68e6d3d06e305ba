package rcds

import (
	"crypto/sha256"
	"encoding/binary"
	"slices"
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
//
// A URI's entries are one slice of Assertion values sorted by slot (see
// search): by name, an attribute's register before its elements, the
// elements by value. An attribute is therefore one contiguous run, found
// by binary search and read in the order Get returns; a Set cuts the run
// down to its register in one pass. Inserting into the middle of a slice
// is a memmove: nothing beside the search for the 1–16 entries of every
// URI the system itself writes, and for a service group of a thousand
// replicas 68 KB on average, which makes that Add cost about four times
// what a map insert did (BenchmarkStoreAdd: 2.2 µs against 0.5). What a URI costs to hold is its map slot, its
// key's bytes once (every entry's URI aliases the key), 144 B per entry
// and the value strings; names and origins are shared (decodeName,
// ownLocked). DESIGN.md "What a URN costs" has the budget.
type Store struct {
	mu      sync.Mutex
	origin  string
	lamport uint64
	seq     uint64 // this origin's next op sequence number - 1

	catalogs map[string][]Assertion          // URI → entries in slot order; never empty once made
	log      map[string]map[uint64]Assertion // origin → seq → op (may have holes)
	origins  []string                        // every origin seen (a handful), for ownLocked to hand out
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
		catalogs: make(map[string][]Assertion),
		origins:  []string{origin},
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

// slotCmp orders the stored entry e against the slot (name, sole, value):
// by name, an attribute's register before its elements, elements by
// value. A register's own value is not part of its slot, so the slot —
// and the floor its stamp puts under late elements — outlives a Remove of
// that value, which leaves its tombstone among the elements.
func slotCmp(e *Assertion, name string, sole bool, value string) int {
	if e.Name != name { // equal names are mostly one string: see decodeName
		return strings.Compare(e.Name, name)
	}
	switch {
	case e.Sole && sole:
		return 0
	case e.Sole:
		return -1
	case sole:
		return 1
	}
	return strings.Compare(e.Value, value)
}

// search returns the index in cat of the slot (name, sole, value) and
// whether an entry stands there; if none does, the index is where one
// would be inserted. search(cat, name, true, "") is the start of the
// attribute's run.
func search(cat []Assertion, name string, sole bool, value string) (int, bool) {
	i := sort.Search(len(cat), func(k int) bool { return slotCmp(&cat[k], name, sole, value) >= 0 })
	return i, i < len(cat) && slotCmp(&cat[i], name, sole, value) == 0
}

// walkLive calls visit with each live entry of the run that starts at
// cat[i], in value order, and returns the index after the run. An
// element is live unless it is a tombstone. The register is live unless
// an element stands at its value: applyLocked keeps only elements stamped
// after the register, so that one is a Remove that took the value away or
// an Add that carries it (and is the one visited).
func walkLive(cat []Assertion, i int, visit func(*Assertion)) int {
	name := cat[i].Name
	var reg *Assertion
	if cat[i].Sole {
		reg = &cat[i]
		i++
	}
	for ; i < len(cat) && cat[i].Name == name; i++ {
		e := &cat[i]
		if reg != nil && e.Value >= reg.Value {
			if e.Value != reg.Value {
				visit(reg)
			}
			reg = nil
		}
		if !e.Deleted {
			visit(e)
		}
	}
	if reg != nil {
		visit(reg)
	}
	return i
}

// walkLiveOf is walkLive over the run of name, if cat has one.
func walkLiveOf(cat []Assertion, name string, visit func(*Assertion)) {
	if i, _ := search(cat, name, true, ""); i < len(cat) && cat[i].Name == name {
		walkLive(cat, i, visit)
	}
}

// countLive returns the number of live entries in cat.
func countLive(cat []Assertion) (n int) {
	for i := 0; i < len(cat); {
		i = walkLive(cat, i, func(*Assertion) { n++ })
	}
	return n
}

// liveValue reports whether value is a live value of name in cat.
func liveValue(cat []Assertion, name, value string) bool {
	if i, ok := search(cat, name, false, value); ok {
		return !cat[i].Deleted
	}
	i, ok := search(cat, name, true, "")
	return ok && cat[i].Value == value
}

// ownLocked returns the entries held for a's URI and makes a's URI and
// origin the store's own copies of those strings — the catalog map's key
// and an element of s.origins — so that keeping a, in the catalog or the
// log, keeps neither string of the request it was decoded from. Caller
// holds s.mu.
func (s *Store) ownLocked(a *Assertion) []Assertion {
	cat := s.catalogs[a.URI]
	if len(cat) > 0 {
		a.URI = cat[0].URI
	}
	if i := slices.Index(s.origins, a.Origin); i >= 0 {
		a.Origin = s.origins[i]
	} else {
		s.origins = append(s.origins, a.Origin)
	}
	return cat
}

// keyLocked returns uri as a string: the catalog's own key if the store
// holds the URI (indexing a map by string(uri) does not allocate), else a
// copy, which a write then makes the key. Caller holds s.mu.
func (s *Store) keyLocked(uri []byte) string {
	if cat := s.catalogs[string(uri)]; len(cat) > 0 {
		return cat[0].URI
	}
	return string(uri)
}

// key is keyLocked for a server serving a request on uri where it lies.
func (s *Store) key(uri []byte) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.keyLocked(uri)
}

// originLocked is keyLocked for an origin: the copy in s.origins, or a
// new one for ownLocked to add once an op of it is kept.
func (s *Store) originLocked(origin []byte) string {
	for _, o := range s.origins {
		if o == string(origin) {
			return o
		}
	}
	return string(origin)
}

// mergeLocked files op in its origin's log and merges it into the
// catalog, reporting whether the catalog visibly changed. Caller holds
// s.mu.
func (s *Store) mergeLocked(op Assertion) bool {
	cat := s.ownLocked(&op)
	s.recordLocked(op)
	return s.applyLocked(cat, op)
}

// applyLocked merges one assertion into cat, the entries of its URI (as
// ownLocked returned them). An attribute's register is a floor under the
// whole attribute: an assertion not stamped after it is dropped, and a
// Sole assertion that is takes the head of the run and cuts from it every
// element and tombstone stamped before it. Above the floor each
// (name, value) keeps its last writer. Returns true if the catalog
// visibly changed. Caller holds s.mu.
func (s *Store) applyLocked(cat []Assertion, a Assertion) bool {
	i, hasReg := search(cat, a.Name, true, "")
	if hasReg && !a.Supersedes(&cat[i]) {
		return false
	}
	moved := false // cat's header changed and goes back into the map
	if !a.Sole {
		k, ok := search(cat, a.Name, false, a.Value)
		if ok && !a.Supersedes(&cat[k]) {
			return false
		}
		if ok {
			cat[k] = a
		} else {
			cat, moved = slices.Insert(cat, k, a), true
		}
	} else {
		if hasReg {
			cat[i] = a
		} else {
			cat, moved = slices.Insert(cat, i, a), true
		}
		w, r := i+1, i+1
		for ; r < len(cat) && cat[r].Name == a.Name; r++ {
			if !a.Supersedes(&cat[r]) {
				cat[w] = cat[r]
				w++
			}
		}
		if w < r {
			cat, moved = slices.Delete(cat, w, r), true
			if cap(cat) >= 4*len(cat) {
				cat = slices.Clone(cat) // a wide attribute cleared: give the room back
			}
		}
	}
	if moved {
		s.catalogs[a.URI] = cat
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
	s.mergeLocked(op)
	return []Assertion{op}
}

// Add inserts value as an additional live value for (uri, name) —
// RCDS attributes such as locations and comm addresses are
// multi-valued. Returns the op to push.
func (s *Store) Add(uri, name, value string) []Assertion {
	s.mu.Lock()
	defer s.mu.Unlock()
	op := s.newLocalOp(uri, name, value, false)
	s.mergeLocked(op)
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
	s.mergeLocked(op)
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
	s.mergeLocked(op)
	return []Assertion{op}
}

// RemoveAll tombstones every live value of (uri, name).
func (s *Store) RemoveAll(uri, name string) []Assertion {
	s.mu.Lock()
	defer s.mu.Unlock()
	var ops []Assertion
	walkLiveOf(s.catalogs[uri], name, func(cur *Assertion) {
		ops = append(ops, s.newLocalOp(uri, name, cur.Value, true))
	})
	for _, op := range ops {
		s.mergeLocked(op)
	}
	return ops
}

// ApplyRemote merges ops received from a peer (push or anti-entropy),
// returning the number that changed the catalog.
func (s *Store) ApplyRemote(ops []Assertion) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.applyRemoteLocked(ops)
}

// applyEncoded is ApplyRemote for a list of ops still in the frame it
// arrived in. They are decoded into ops' storage against the store's own
// URI keys and origins — of an op on a URI the replica holds only the
// value is allocated — and returned, aliasing nothing of the frame.
// Nothing is merged unless every op decodes.
func (s *Store) applyEncoded(d *xdr.Decoder, ops []Assertion) ([]Assertion, int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ops, err := decodeAssertions(d, ops, func(v assertionView) Assertion {
		return v.own(s.keyLocked(v.uri), s.originLocked(v.origin))
	})
	if err != nil {
		return nil, 0, err
	}
	return ops, s.applyRemoteLocked(ops), nil
}

func (s *Store) applyRemoteLocked(ops []Assertion) int {
	changed := 0
	for _, op := range ops {
		if op.Origin == s.origin {
			continue // our own ops echoed back
		}
		s.mRemoteOps.Inc()
		if s.mergeLocked(op) {
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

// visitLive calls visit, under the lock, with each live entry of uri —
// every attribute's if all, else those of name — sorted by (name, value),
// and counts one lookup. Every read of live entries is this walk.
func (s *Store) visitLive(uri, name string, all bool, visit func(*Assertion)) {
	defer s.observeLookup(time.Now())
	s.mu.Lock()
	defer s.mu.Unlock()
	cat := s.catalogs[uri]
	if !all {
		walkLiveOf(cat, name, visit)
		return
	}
	for i := 0; i < len(cat); {
		i = walkLive(cat, i, visit)
	}
}

// Get returns the live assertions for uri, sorted by (name, value).
func (s *Store) Get(uri string) (out []Assertion) {
	s.visitLive(uri, "", true, func(a *Assertion) { out = append(out, *a) })
	return out
}

// encodeLive writes to e the number of entries visitLive visits and each
// one as put writes it: a server's answer to a lookup, made under the lock
// straight from the entries with nothing copied out first.
func (s *Store) encodeLive(e *xdr.Encoder, uri, name string, all bool, put func(*Assertion, *xdr.Encoder)) {
	at, n := e.Len(), uint32(0)
	e.PutUint32(0)
	s.visitLive(uri, name, all, func(a *Assertion) { put(a, e); n++ })
	binary.BigEndian.PutUint32(e.Bytes()[at:], n)
}

// Values returns the live values of (uri, name), sorted.
func (s *Store) Values(uri, name string) (out []string) {
	s.visitLive(uri, name, false, func(a *Assertion) { out = append(out, a.Value) })
	return out
}

// FirstValue returns the most recently written live value of
// (uri, name), if any.
func (s *Store) FirstValue(uri, name string) (v string, ok bool) {
	var best *Assertion // an entry: read under the lock only
	s.visitLive(uri, name, false, func(a *Assertion) {
		if best == nil || a.Supersedes(best) {
			best, v = a, a.Value
		}
	})
	return v, best != nil
}

// URIs returns all URIs with live assertions under the prefix, sorted.
func (s *Store) URIs(prefix string) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []string
	for uri, cat := range s.catalogs {
		if strings.HasPrefix(uri, prefix) && countLive(cat) > 0 {
			out = append(out, uri)
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

// Stats reports catalog sizes for monitoring: URIs held (one whose
// values were all removed still holds their tombstones and counts), live
// values (a register and an Add over its value are one), and tombstones
// (which only Remove and RemoveAll leave, until the attribute's next
// Set). It walks every entry: what it costs is the catalog's size.
func (s *Store) Stats() (uris, elements, tombstones int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	uris = len(s.catalogs)
	for _, cat := range s.catalogs {
		elements += countLive(cat)
		for i := range cat {
			if cat[i].Deleted {
				tombstones++
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
		ops = append(ops, s.catalogs[uri]...)
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
		if s.mergeLocked(op) {
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
// element, tombstone and register with all its fields, URIs sorted and
// each one's entries in slot order. Two replicas whose hashes match hold byte-identical catalogs;
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
		for i := range cat {
			e.Reset()
			cat[i].Encode(e)
			h.Write(e.Bytes())
		}
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}
