package rcds

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"math/bits"
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
// per-origin op logs that pushes and pulls are served from, and the
// version vector summarising them. The entries are a function of the set
// of ops received, whatever their order or repetition. All methods are
// safe for concurrent use.
//
// A URI's entries are one slice sorted by slot (see search): by name, an
// attribute's register before its elements, the elements by value, so an
// attribute is one contiguous run, found by binary search and read in the
// order Get returns, and a Set cuts it down to its register in one pass.
// Neither the catalog nor the log keeps an Assertion but a 72-byte entry,
// which names its URI by where it is held and its origin by index; every
// Assertion the store hands out is rebuilt from one. DESIGN.md "What a URN
// costs" has the budget, and what an insert into a wide attribute costs.
type Store struct {
	mu      sync.Mutex
	origin  string
	lamport uint64
	seq     uint64 // this origin's next op sequence number - 1

	catalogs map[string]held   // URI → its entries
	origins  []string          // every origin seen (a handful), this replica's first: an entry's origin indexes it
	logs     []opLog           // by origin index: each origin's ops by seq (may have holes)
	vv       VersionVector     // contiguous high-water marks
	floor    map[string]uint64 // origin → first log seq still servable (0 = from the start)
	keep     uint64            // >0: a write compacts its origin's log to this tail (recordLocked)
	restored bool              // loaded from a file, not yet pulled: a pull asks with the real own mark
	decoded  []uint32          // applyEncoded's origin index per op, reused

	version uint64    // bumped on every visible change
	waiters []*waiter // woken in the lock hold that made a change
	nextID  int

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

// held is what the catalog holds for one URI: its entries, never empty,
// and the key's own copy of the URI, which every op on it shares.
type held struct {
	uri     string
	entries []entry
}

// entry is what a Store keeps of an op: the Assertion less its URI, the
// origin an index into Store.origins, the signature behind a pointer that
// almost every entry leaves nil. In the log, from is the origin index of
// the replica that pushed the op here, which the push leaves it out for
// (Store.owed): 0, this replica's own, if none did or past 65,535 origins.
type entry struct {
	name, value string
	clock, seq  uint64
	serverTime  int64
	signed      *signature
	origin      uint32
	deleted     bool
	sole        bool
	from        uint16
}

// signature is an entry's detached signature and its signer.
type signature struct {
	sig    []byte
	signer string
}

// newEntry is the entry for a, whose origin is s.origins[o].
func newEntry(a *Assertion, o uint32) entry {
	e := entry{name: a.Name, value: a.Value, clock: a.Clock, seq: a.Seq, serverTime: a.ServerTime,
		origin: o, deleted: a.Deleted, sole: a.Sole}
	if len(a.Signature) > 0 || a.Signer != "" {
		e.signed = &signature{a.Signature, a.Signer}
	}
	return e
}

// assertion rebuilds the Assertion e stands for on uri. Caller holds s.mu.
func (s *Store) assertion(uri string, e *entry) Assertion {
	a := Assertion{URI: uri, Name: e.name, Value: e.value, Clock: e.clock, Origin: s.origins[e.origin],
		Seq: e.seq, Deleted: e.deleted, Sole: e.sole, ServerTime: e.serverTime}
	if e.signed != nil {
		a.Signature, a.Signer = e.signed.sig, e.signed.signer
	}
	return a
}

// supersedes is Assertion.Supersedes for entries. Equal clocks break on
// the origins' names, never their indices: a replica numbers origins in
// the order it met them, and another met them in another.
func (s *Store) supersedes(a, b *entry) bool {
	if a.clock != b.clock {
		return a.clock > b.clock
	}
	if a.origin != b.origin {
		return s.origins[a.origin] > s.origins[b.origin]
	}
	return a.seq > b.seq
}

// logChunk is how many consecutive seqs one chunk of an opLog spans.
const logChunk = 64

// logOp is an op as its origin's log keeps it.
type logOp struct {
	uri string
	e   entry
}

// opChunk holds the ops of logChunk consecutive seqs, have marking those filed.
type opChunk struct {
	have uint64
	ops  [logChunk]logOp
}

// opLog is one origin's ops by seq, holes allowed, in chunks made as ops
// arrive: ops in order cost one allocation per logChunk, a stray seq one chunk.
type opLog struct {
	chunks map[uint64]*opChunk // seq / logChunk → chunk; nil until the origin's first op
	low    uint64              // no chunk lies below this one
	n      int                 // ops held
}

// at returns the op filed at seq, or nil.
func (l *opLog) at(seq uint64) *logOp {
	if c := l.chunks[seq/logChunk]; c != nil && c.have&(1<<(seq%logChunk)) != 0 {
		return &c.ops[seq%logChunk]
	}
	return nil
}

// put files op at seq unless one is filed there, reporting whether it did.
func (l *opLog) put(seq uint64, op logOp) bool {
	if l.chunks == nil {
		l.chunks = make(map[uint64]*opChunk)
	}
	c := l.chunks[seq/logChunk]
	if c == nil {
		if len(l.chunks) == 0 || seq/logChunk < l.low {
			l.low = seq / logChunk
		}
		c = new(opChunk)
		l.chunks[seq/logChunk] = c
	} else if c.have&(1<<(seq%logChunk)) != 0 {
		return false
	}
	c.have |= 1 << (seq % logChunk)
	c.ops[seq%logChunk] = op
	l.n++
	return true
}

// drop removes every op below seq below, returning how many it removed.
// It gives back the chunks wholly below it, visiting those keys or, if the
// log holds fewer chunks, every chunk, and zeroes the dropped ops of the
// chunk it cuts, so that none pins a string.
func (l *opLog) drop(below uint64) (n int) {
	top := below / logChunk // the first chunk kept, perhaps cut
	free := func(k uint64) {
		if c := l.chunks[k]; c != nil {
			n += bits.OnesCount64(c.have)
			delete(l.chunks, k)
		}
	}
	if l.low < top && top-l.low <= uint64(len(l.chunks)) {
		for k := l.low; k < top; k++ {
			free(k)
		}
	} else if l.low < top {
		for k := range l.chunks {
			if k < top {
				free(k)
			}
		}
	}
	l.low = max(l.low, top)
	if c := l.chunks[top]; c != nil {
		for i := range below % logChunk {
			if c.have&(1<<i) != 0 {
				c.have &^= 1 << i
				c.ops[i] = logOp{}
				n++
			}
		}
		if c.have == 0 {
			delete(l.chunks, top)
		}
	}
	l.n -= n
	return n
}

// A waiter is one party the store wakes inside the lock hold that made a
// change. A pusher's takes a token when an origin's contiguous mark moves,
// unless the one op it moved over was minted or pushed here by peer, the
// origin of the replica it pushes to ("" until known). A long-poll's takes
// a token, and a subscription's events the change, when a change under
// prefix becomes visible; an event that finds events full is dropped.
type waiter struct {
	id           int
	pusher       bool
	peer, prefix string
	wake         chan struct{}
	events       chan Event
}

// signal puts the one token ch holds, unless it holds it already.
func signal(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default: // a wake-up is already coming
	}
}

// NewStore returns an empty replica identified by origin.
func NewStore(origin string) *Store {
	s := &Store{
		origin:   origin,
		catalogs: make(map[string]held),
		origins:  []string{origin},
		logs:     make([]opLog, 1),
		vv:       make(VersionVector),
		floor:    make(map[string]uint64),
		nowFn:    func() int64 { return time.Now().UnixNano() },
		metrics:  stats.NewRegistry(),
	}
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
func slotCmp(e *entry, name string, sole bool, value string) int {
	if e.name != name { // equal names are mostly one string: see decodeName
		return strings.Compare(e.name, name)
	}
	switch {
	case e.sole && sole:
		return 0
	case e.sole:
		return -1
	case sole:
		return 1
	}
	return strings.Compare(e.value, value)
}

// search returns the index in cat of the slot (name, sole, value) and
// whether an entry stands there; if none does, the index is where one
// would be inserted. search(cat, name, true, "") is the start of the
// attribute's run.
func search(cat []entry, name string, sole bool, value string) (int, bool) {
	i := sort.Search(len(cat), func(k int) bool { return slotCmp(&cat[k], name, sole, value) >= 0 })
	return i, i < len(cat) && slotCmp(&cat[i], name, sole, value) == 0
}

// walkLive calls visit with each live entry of the run that starts at
// cat[i], in value order, and returns the index after the run. An
// element is live unless it is a tombstone. The register is live unless
// an element stands at its value: applyLocked keeps only elements stamped
// after the register, so that one is a Remove that took the value away or
// an Add that carries it (and is the one visited).
func walkLive(cat []entry, i int, visit func(*entry)) int {
	name := cat[i].name
	var reg *entry
	if cat[i].sole {
		reg = &cat[i]
		i++
	}
	for ; i < len(cat) && cat[i].name == name; i++ {
		e := &cat[i]
		if reg != nil && e.value >= reg.value {
			if e.value != reg.value {
				visit(reg)
			}
			reg = nil
		}
		if !e.deleted {
			visit(e)
		}
	}
	if reg != nil {
		visit(reg)
	}
	return i
}

// walkLiveOf is walkLive over the run of name, if cat has one.
func walkLiveOf(cat []entry, name string, visit func(*entry)) {
	if i, _ := search(cat, name, true, ""); i < len(cat) && cat[i].name == name {
		walkLive(cat, i, visit)
	}
}

// countLive returns the number of live entries in cat.
func countLive(cat []entry) (n int) {
	for i := 0; i < len(cat); {
		i = walkLive(cat, i, func(*entry) { n++ })
	}
	return n
}

// anyLive reports whether cat holds a live entry, walking it only as far
// as the first attribute that has one.
func anyLive(cat []entry) (live bool) {
	for i := 0; i < len(cat) && !live; {
		i = walkLive(cat, i, func(*entry) { live = true })
	}
	return live
}

// liveValue reports whether value is a live value of name in cat.
func liveValue(cat []entry, name, value string) bool {
	if i, ok := search(cat, name, false, value); ok {
		return !cat[i].deleted
	}
	i, ok := search(cat, name, true, "")
	return ok && cat[i].value == value
}

// originLocked returns the index of origin in s.origins, adding a copy and
// an empty log if it is new: an op's origin is resolved once, where the op
// is decoded or handed in, to the index its entry keeps. Caller holds s.mu.
func originLocked[T string | []byte](s *Store, origin T) uint32 {
	for i, o := range s.origins {
		if o == string(origin) {
			return uint32(i)
		}
	}
	s.origins = append(s.origins, string(origin))
	s.logs = append(s.logs, opLog{})
	return uint32(len(s.origins) - 1)
}

// heldLocked returns what the catalog holds for uri (indexing a map by
// string(uri) does not allocate), or no entries under a copy of uri, which
// a write then makes the key. Caller holds s.mu.
func heldLocked[T string | []byte](s *Store, uri T) held {
	if h, ok := s.catalogs[string(uri)]; ok {
		return h
	}
	return held{uri: string(uri)}
}

// key returns uri as heldLocked keys it, for a server serving a request on
// uri where it lies.
func (s *Store) key(uri []byte) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return heldLocked(s, uri).uri
}

// mergeLocked files a, whose origin is s.origins[o] and which s.origins[from]
// pushed here, in that origin's log and merges it into the catalog,
// reporting whether the catalog visibly changed, and wakes the waiters the
// change is news to. Both keep the URI as heldLocked keys it. Caller holds
// s.mu.
func (s *Store) mergeLocked(a *Assertion, o, from uint32) bool {
	h := heldLocked(s, a.URI)
	e := newEntry(a, o)
	moved := s.recordLocked(h.uri, e, from)
	changed := s.applyLocked(h.uri, h.entries, e)
	for _, w := range s.waiters {
		switch {
		case w.pusher:
			if moved > 1 || moved == 1 && w.peer != s.origins[o] && w.peer != s.origins[from] {
				signal(w.wake)
			}
		case !changed || !strings.HasPrefix(h.uri, w.prefix):
		case w.events == nil:
			signal(w.wake)
		default:
			select {
			case w.events <- Event{Assertion: s.assertion(h.uri, &e)}:
			default: // slow subscriber: drop rather than block the store
			}
		}
	}
	return changed
}

// applyLocked merges one entry into cat, the entries held for uri. An
// attribute's register is a floor under the whole attribute: an entry not
// stamped after it is dropped, and a Sole entry that is takes the head of
// the run and cuts from it every element and tombstone stamped before it.
// Above the floor each (name, value) keeps its last writer. Returns true
// if the catalog visibly changed. Caller holds s.mu.
func (s *Store) applyLocked(uri string, cat []entry, a entry) bool {
	i, hasReg := search(cat, a.name, true, "")
	if hasReg && !s.supersedes(&a, &cat[i]) {
		return false
	}
	moved := false // cat's header changed and goes back into the map
	if !a.sole {
		k, ok := search(cat, a.name, false, a.value)
		if ok && !s.supersedes(&a, &cat[k]) {
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
		for ; r < len(cat) && cat[r].name == a.name; r++ {
			if !s.supersedes(&a, &cat[r]) {
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
		s.catalogs[uri] = held{uri, cat}
	}
	if a.clock > s.lamport {
		s.lamport = a.clock
	}
	s.version++
	return true
}

// recordLocked files e, an op on uri that s.origins[from] pushed here, in
// its origin's log and advances the contiguous version vector over it and
// any ops filed right above it, returning how many seqs the mark moved.
// With compaction on, the write that takes the log keep + logChunk seqs
// past its floor compacts it: the whole chunks below mark − keep go, so
// the log holds at most keep + logChunk ops at its mark, and one write in
// logChunk pays for the chunks it frees. Caller holds s.mu.
func (s *Store) recordLocked(uri string, e entry, from uint32) uint64 {
	if from <= math.MaxUint16 {
		e.from = uint16(from)
	}
	l := &s.logs[e.origin]
	if !l.put(e.seq, logOp{uri, e}) {
		return 0
	}
	origin := s.origins[e.origin]
	was := s.vv[origin]
	for l.at(s.vv[origin]+1) != nil {
		s.vv[origin]++
	}
	if mark := s.vv[origin]; s.keep > 0 && mark+1 >= max(s.floor[origin], 1)+s.keep+logChunk {
		s.trimLocked(e.origin, origin, (mark+1-s.keep)/logChunk*logChunk)
	}
	return s.vv[origin] - was
}

// trimLocked raises the floor of s.origins[o] to seq floor, if that is
// higher, and drops its log below floor, returning how many ops it
// dropped. Caller holds s.mu.
func (s *Store) trimLocked(o uint32, origin string, floor uint64) int {
	s.floor[origin] = max(s.floor[origin], floor)
	n := s.logs[o].drop(floor)
	s.mCompacted.Add(uint64(n))
	return n
}

// Set makes value the sole live value for (uri, name) with one
// clear-and-set op, whatever the attribute held: the op replaces the
// attribute's register and, on every replica it reaches, deletes each
// element and tombstone of the attribute stamped before it — including
// an Add another replica accepted concurrently and this one never saw —
// while one that arrives afterwards with a lower stamp is dropped. An
// overwrite therefore costs the same at the first and the millionth
// value and leaves no tombstone. It returns the op to push to peers.
func (s *Store) Set(uri, name, value string) Assertion {
	s.mu.Lock()
	defer s.mu.Unlock()
	op := s.newLocalOp(uri, name, value, false)
	op.Sole = true
	s.mergeLocked(&op, 0, 0)
	return op
}

// Add inserts value as an additional live value for (uri, name) —
// RCDS attributes such as locations and comm addresses are
// multi-valued. Returns the op to push.
func (s *Store) Add(uri, name, value string) Assertion {
	s.mu.Lock()
	defer s.mu.Unlock()
	op := s.newLocalOp(uri, name, value, false)
	s.mergeLocked(&op, 0, 0)
	return op
}

// AddSigned inserts a value carrying a detached signature (used for
// signed metadata subsets such as published keys and code signatures).
func (s *Store) AddSigned(uri, name, value string, signer string, sig []byte) Assertion {
	s.mu.Lock()
	defer s.mu.Unlock()
	op := s.newLocalOp(uri, name, value, false)
	op.Signer = signer
	op.Signature = sig
	s.mergeLocked(&op, 0, 0)
	return op
}

// Remove tombstones the (uri, name, value) element. Returns the op to
// push, and false, with no op made, if the element was not live.
func (s *Store) Remove(uri, name, value string) (Assertion, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !liveValue(s.catalogs[uri].entries, name, value) {
		return Assertion{}, false
	}
	op := s.newLocalOp(uri, name, value, true)
	s.mergeLocked(&op, 0, 0)
	return op, true
}

// RemoveAll tombstones every live value of (uri, name).
func (s *Store) RemoveAll(uri, name string) []Assertion {
	s.mu.Lock()
	defer s.mu.Unlock()
	var ops []Assertion
	walkLiveOf(s.catalogs[uri].entries, name, func(cur *entry) {
		ops = append(ops, s.newLocalOp(uri, name, cur.value, true))
	})
	for i := range ops {
		s.mergeLocked(&ops[i], 0, 0)
	}
	return ops
}

// ApplyRemote merges ops a pull brought from a peer, returning the
// number that changed the catalog.
func (s *Store) ApplyRemote(ops []Assertion) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.applyRemoteLocked(ops, func(i int) uint32 { return originLocked(s, ops[i].Origin) }, 0, false)
}

// applyEncoded merges the list of ops a peer with origin from pushed, still
// in the frame it arrived in. They are decoded into ops' storage against
// the store's own URI keys and origins, each origin resolved there to the
// index the merge files it under — of an op on a URI the replica holds
// only the value is allocated — and returned, aliasing nothing of the
// frame. Nothing is merged unless every op decodes.
func (s *Store) applyEncoded(d *xdr.Decoder, from []byte, ops []Assertion) ([]Assertion, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	via := originLocked(s, from)
	origins := s.decoded[:0]
	ops, err := decodeAssertions(d, ops, func(v assertionView) Assertion {
		o := originLocked(s, v.origin)
		origins = append(origins, o)
		return v.own(heldLocked(s, v.uri).uri, s.origins[o])
	})
	defer func() { s.decoded = keptOps(origins) }()
	if err != nil {
		return nil, err
	}
	s.applyRemoteLocked(ops, func(i int) uint32 { return origins[i] }, via, false)
	return ops, nil
}

// applyRemoteLocked merges ops, origin(i) the index of ops[i]'s origin,
// which the replica at origin index from pushed here, or which a snapshot
// page brought if snap, and returns how many changed the catalog.
func (s *Store) applyRemoteLocked(ops []Assertion, origin func(i int) uint32, from uint32, snap bool) int {
	changed := 0
	for i := range ops {
		op := &ops[i]
		if s.ownLocked(op) {
			continue
		}
		if snap {
			s.mSnapInstall.Inc()
		} else {
			s.mRemoteOps.Inc()
		}
		if !s.mergeLocked(op, origin(i), from) {
			continue
		}
		changed++
		if !snap {
			s.mRemoteApplied.Inc()
			// Replication lag: origin's mint time to our apply time. The
			// clocks are different hosts', so skew can swallow small lags;
			// only positive samples are meaningful.
			if lag := s.nowFn() - op.ServerTime; op.ServerTime > 0 && lag > 0 {
				s.hReplLagUs.Observe(float64(lag) / 1e3)
			}
		}
	}
	return changed
}

// ownLocked reports whether op is one of this replica's own that it holds
// already — an echo — and is to be skipped: one at or below its own mark,
// or filed above it. Any other op of its own is one that a restart from an
// older file lost, which a peer brings back; it is adopted, and the
// sequence and clock move past it, so that no later write reuses its seq.
// Caller holds s.mu.
func (s *Store) ownLocked(op *Assertion) bool {
	if op.Origin != s.origin {
		return false
	}
	if op.Seq <= s.vv[s.origin] || s.logs[0].at(op.Seq) != nil {
		return true
	}
	s.seq, s.lamport = max(s.seq, op.Seq), max(s.lamport, op.Clock)
	return false
}

// observeLookup records one catalog read for the lookup metrics.
func (s *Store) observeLookup(start time.Time) {
	s.mLookups.Inc()
	s.hLookupUs.Observe(float64(time.Since(start).Microseconds()))
}

// visitLive calls visit, under the lock, with each live entry of uri —
// every attribute's if all, else those of name — sorted by (name, value),
// and counts one lookup. Every read of live entries is this walk.
func (s *Store) visitLive(uri, name string, all bool, visit func(Assertion)) {
	defer s.observeLookup(time.Now())
	s.mu.Lock()
	defer s.mu.Unlock()
	cat := s.catalogs[uri].entries
	each := func(e *entry) { visit(s.assertion(uri, e)) }
	if !all {
		walkLiveOf(cat, name, each)
		return
	}
	for i := 0; i < len(cat); {
		i = walkLive(cat, i, each)
	}
}

// Get returns the live assertions for uri, sorted by (name, value).
func (s *Store) Get(uri string) (out []Assertion) {
	s.visitLive(uri, "", true, func(a Assertion) { out = append(out, a) })
	return out
}

// encodeLive writes to e the number of entries visitLive visits and each
// one as put writes it: a server's answer to a lookup, made under the lock
// straight from the entries with nothing copied out first.
func (s *Store) encodeLive(e *xdr.Encoder, uri, name string, all bool, put func(Assertion, *xdr.Encoder)) {
	at, n := e.Len(), uint32(0)
	e.PutUint32(0)
	s.visitLive(uri, name, all, func(a Assertion) { put(a, e); n++ })
	binary.BigEndian.PutUint32(e.Bytes()[at:], n)
}

// Values returns the live values of (uri, name), sorted.
func (s *Store) Values(uri, name string) (out []string) {
	s.visitLive(uri, name, false, func(a Assertion) { out = append(out, a.Value) })
	return out
}

// FirstValue returns the most recently written live value of
// (uri, name), if any.
func (s *Store) FirstValue(uri, name string) (v string, ok bool) {
	var best Assertion
	s.visitLive(uri, name, false, func(a Assertion) {
		if !ok || a.Supersedes(&best) {
			best, ok = a, true
		}
	})
	return best.Value, ok
}

// URIs returns all URIs with live assertions under the prefix, sorted.
func (s *Store) URIs(prefix string) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []string
	for uri, h := range s.catalogs {
		if strings.HasPrefix(uri, prefix) && anyLive(h.entries) {
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

// pullVector is the vector a pull asks with: the replica's own, with its
// own origin marked all held, so that no peer answers with the puller's
// ops. A store loaded from a file asks with its real own mark until a pull
// from every peer succeeds (pulled): that brings back what the file lacked
// of its own, wherever it is held.
func (s *Store) pullVector() VersionVector {
	s.mu.Lock()
	defer s.mu.Unlock()
	vv := s.vv.Copy()
	if !s.restored {
		vv[s.origin] = math.MaxUint64
	}
	return vv
}

// pulled records a pull pass that succeeded with every peer.
func (s *Store) pulled() {
	s.mu.Lock()
	s.restored = false
	s.mu.Unlock()
}

// compactTo has every write compact its origin's log to keepTail ops
// (recordLocked); 0 or less, never.
func (s *Store) compactTo(keepTail int) {
	s.mu.Lock()
	s.keep = uint64(max(keepTail, 0))
	s.mu.Unlock()
}

// OpsSince returns up to max ops that remote (with version vector
// theirs) has not seen, in per-origin sequence order. max <= 0 means
// unlimited.
func (s *Store) OpsSince(theirs VersionVector, max int) []Assertion {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []Assertion
	names := slices.Clone(s.origins)
	slices.Sort(names)
	for _, origin := range names {
		if theirs[origin] >= s.vv[origin] {
			continue // nothing of origin is owed
		}
		o := slices.Index(s.origins, origin)
		for seq := theirs[origin] + 1; seq <= s.vv[origin]; seq++ {
			op := s.logs[o].at(seq)
			if op == nil {
				break
			}
			out = append(out, s.assertion(op.uri, &op.e))
			if max > 0 && len(out) >= max {
				return out
			}
		}
	}
	return out
}

// maxApplyBytes caps what one push takes from the log: past its first op,
// ops whose strings and fixed fields add up to this much.
const maxApplyBytes = 1 << 20

// pushBatch is a pusher's place in the log and what Store.owed hands it.
type pushBatch struct {
	mark, next []uint64    // by origin index: the seqs sent or left out, and those the ops reach
	ops        []Assertion // the ops due, by origin, then seq
	skipped    int         // ops left out under the relay rule
	more       bool        // the cap cut the batch short
	below      bool        // a mark lies under its origin's floor: next is the store's marks
}

// marks returns the contiguous marks by origin index, a new pusher's mark.
func (s *Store) marks() []uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := make([]uint64, len(s.origins))
	for o, origin := range s.origins {
		m[o] = s.vv[origin]
	}
	return m
}

// owed fills b with the ops above b.mark (an origin met since, from 0) up
// to each origin's contiguous mark that the replica whose origin is w.peer
// neither minted nor pushed here; the peer's own ops are passed over
// unread. If b.mark lies under a compaction floor of another origin, where
// the log lacks what may be due, it sets below.
func (s *Store) owed(b *pushBatch, w *waiter) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b.ops, b.skipped, b.more, b.below = keptOps(b.ops), 0, false, false
	b.next = append(b.next[:0], b.mark...)
	skip, size := slices.Index(s.origins, w.peer), 0 // -1: no op here is the peer's
	for o, origin := range s.origins {
		if o == len(b.next) {
			b.next = append(b.next, 0)
		}
		b.below = b.below || o != skip && b.next[o] < s.vv[origin] && b.next[o]+1 < s.floor[origin]
	}
	for o, origin := range s.origins {
		if o == skip && !b.below {
			b.skipped += int(s.vv[origin] - b.next[o])
		}
		if b.below || o == skip {
			b.next[o] = s.vv[origin]
			continue
		}
		for ; b.next[o] < s.vv[origin] && !b.more; b.next[o]++ {
			op := s.logs[o].at(b.next[o] + 1) // above the floor, every seq is filed
			if int(op.e.from) == skip {
				b.skipped++
				continue
			}
			a := s.assertion(op.uri, &op.e)
			b.ops = append(b.ops, a)
			size += len(a.URI) + len(a.Name) + len(a.Value) + len(a.Signer) + len(a.Signature) + 64
			b.more = size >= maxApplyBytes
		}
	}
}

// Version returns the store's change counter.
func (s *Store) Version() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.version
}

// waitVersion blocks until the store's version exceeds since, the timeout
// elapses or cancel (a connection's end) closes, and returns the version:
// a cmdWait long-poll. Only a version not past since yet makes it park, on
// a waiter's token, one timer and cancel.
func (s *Store) waitVersion(since uint64, timeout time.Duration, cancel <-chan struct{}) uint64 {
	s.mu.Lock()
	if v := s.version; v > since {
		s.mu.Unlock()
		return v
	}
	w := &waiter{wake: make(chan struct{}, 1)}
	id := s.waitLocked(w)
	s.mu.Unlock()
	defer s.Unsubscribe(id)
	t := time.NewTimer(timeout)
	defer t.Stop()
	for {
		select {
		case <-w.wake:
		case <-t.C:
			return s.Version()
		case <-cancel:
			return s.Version()
		}
		if v := s.Version(); v > since {
			return v
		}
	}
}

// wait adds w to the waiters and returns the id Unsubscribe removes it by.
func (s *Store) wait(w *waiter) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.waitLocked(w)
}

// waitLocked is wait for a caller that holds s.mu.
func (s *Store) waitLocked(w *waiter) int {
	s.nextID++
	w.id = s.nextID
	s.waiters = append(s.waiters, w)
	return w.id
}

// setPeer names the origin of the replica whose pusher waits on w.
func (s *Store) setPeer(w *waiter, origin string) {
	s.mu.Lock()
	w.peer = origin
	s.mu.Unlock()
}

// Subscribe delivers every catalog change whose URI has the given
// prefix to ch until Unsubscribe. Events are dropped rather than
// blocking the store if ch is full; subscribers needing completeness
// should re-read the catalog on wakeup.
func (s *Store) Subscribe(prefix string, ch chan Event) (id int) {
	return s.wait(&waiter{prefix: prefix, events: ch})
}

// Unsubscribe removes a subscription, or any waiter by the id wait gave.
func (s *Store) Unsubscribe(id int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.waiters = slices.DeleteFunc(s.waiters, func(w *waiter) bool { return w.id == id })
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
	for _, h := range s.catalogs {
		elements += countLive(h.entries)
		for i := range h.entries {
			if h.entries[i].deleted {
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
		for _, e := range s.catalogs[uri].entries {
			ops = append(ops, s.assertion(uri, &e))
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
	return s.applyRemoteLocked(ops, func(i int) uint32 { return originLocked(s, ops[i].Origin) }, 0, true)
}

// MergeVector raises the store's contiguous version vector to cover vv
// (a snapshot's base), and past the ops filed right above it: superseded
// ops below the new marks were compacted away on the peer and will never
// arrive, so the log may now have holes under the vector. The serving
// floor moves up to the new marks for every origin that advanced — this
// replica can serve tails only from the snapshot base onward; peers that
// are further behind must themselves catch up by snapshot. A mark that
// moves wakes every pusher.
func (s *Store) MergeVector(vv VersionVector) {
	s.mu.Lock()
	defer s.mu.Unlock()
	moved := false
	for origin, seq := range vv {
		if seq > s.vv[origin] {
			s.vv[origin], moved = seq, true
			if seq+1 > s.floor[origin] {
				s.floor[origin] = seq + 1
			}
		}
	}
	for o, origin := range s.origins {
		for s.logs[o].at(s.vv[origin]+1) != nil {
			s.vv[origin]++
		}
	}
	s.seq = max(s.seq, s.vv[s.origin]) // a snapshot base may hold ops of ours a restart lost
	for _, w := range s.waiters {
		if moved && w.pusher {
			signal(w.wake)
		}
	}
}

// CanServeTail reports whether the log can serve every op a replica at
// vector theirs is missing — i.e. theirs is at or above the compaction
// floor for every origin of which something is owed.
func (s *Store) CanServeTail(theirs VersionVector) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for origin, seq := range s.vv {
		if have := theirs[origin]; have < seq && have+1 < s.floor[origin] {
			return false // owed, and compacted away
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
	for o, origin := range s.origins {
		if mark := s.vv[origin]; mark > uint64(keepTail) {
			dropped += s.trimLocked(uint32(o), origin, mark-uint64(keepTail)+1)
		}
	}
	return dropped
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
		for _, en := range s.catalogs[uri].entries {
			a := s.assertion(uri, &en)
			e.Reset()
			a.Encode(e)
			h.Write(e.Bytes())
		}
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}
