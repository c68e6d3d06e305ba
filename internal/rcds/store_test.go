package rcds

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

	"snipe/internal/stats"
	"snipe/internal/testutil"
	"snipe/internal/xdr"
)

func TestSetGetSingleValue(t *testing.T) {
	s := NewStore("s1")
	s.Set("urn:snipe:host:h1", AttrArch, "linux-amd64")
	v, ok := s.FirstValue("urn:snipe:host:h1", AttrArch)
	if !ok || v != "linux-amd64" {
		t.Fatalf("FirstValue = %q, %v", v, ok)
	}
	// Set replaces.
	s.Set("urn:snipe:host:h1", AttrArch, "solaris-sparc")
	vals := s.Values("urn:snipe:host:h1", AttrArch)
	if len(vals) != 1 || vals[0] != "solaris-sparc" {
		t.Fatalf("after replace: %v", vals)
	}
}

func TestAddMultiValued(t *testing.T) {
	s := NewStore("s1")
	s.Add("urn:snipe:file:f1", AttrLocation, "http://a/f1")
	s.Add("urn:snipe:file:f1", AttrLocation, "http://b/f1")
	s.Add("urn:snipe:file:f1", AttrLocation, "http://b/f1") // duplicate
	vals := s.Values("urn:snipe:file:f1", AttrLocation)
	if len(vals) != 2 {
		t.Fatalf("want 2 locations, got %v", vals)
	}
}

func TestRemove(t *testing.T) {
	s := NewStore("s1")
	s.Add("u", "n", "v1")
	s.Add("u", "n", "v2")
	if op, ok := s.Remove("u", "n", "v1"); !ok || !op.Deleted {
		t.Fatalf("Remove op = %v, %v", op, ok)
	}
	if vals := s.Values("u", "n"); len(vals) != 1 || vals[0] != "v2" {
		t.Fatalf("after remove: %v", vals)
	}
	// Removing a non-live element is a no-op.
	if op, ok := s.Remove("u", "n", "v1"); ok {
		t.Fatalf("double remove op = %v", op)
	}
	if op, ok := s.Remove("u", "n", "never"); ok {
		t.Fatalf("remove of absent op = %v", op)
	}
}

func TestRemoveAll(t *testing.T) {
	s := NewStore("s1")
	s.Add("u", "n", "v1")
	s.Add("u", "n", "v2")
	s.Add("u", "other", "x")
	s.RemoveAll("u", "n")
	if vals := s.Values("u", "n"); len(vals) != 0 {
		t.Fatalf("after RemoveAll: %v", vals)
	}
	if vals := s.Values("u", "other"); len(vals) != 1 {
		t.Fatalf("other attribute disturbed: %v", vals)
	}
}

func TestGetSortedAndLiveOnly(t *testing.T) {
	s := NewStore("s1")
	s.Add("u", "b", "2")
	s.Add("u", "a", "1")
	s.Add("u", "a", "0")
	s.Remove("u", "b", "2")
	as := s.Get("u")
	if len(as) != 2 {
		t.Fatalf("Get returned %d assertions", len(as))
	}
	if as[0].Name != "a" || as[0].Value != "0" || as[1].Value != "1" {
		t.Fatalf("not sorted: %v", as)
	}
}

func TestURIs(t *testing.T) {
	s := NewStore("s1")
	s.Add("urn:snipe:host:h1", "a", "1")
	s.Add("urn:snipe:host:h2", "a", "1")
	s.Add("urn:snipe:proc:p1", "a", "1")
	s.RemoveAll("urn:snipe:host:h2", "a")
	got := s.URIs("urn:snipe:host:")
	if len(got) != 1 || got[0] != "urn:snipe:host:h1" {
		t.Fatalf("URIs = %v", got)
	}
	if all := s.URIs(""); len(all) != 2 {
		t.Fatalf("all URIs = %v", all)
	}
}

func TestServerTimeStamping(t *testing.T) {
	s := NewStore("s1")
	var fake int64 = 12345
	s.nowFn = func() int64 { return fake }
	if op := s.Add("u", "n", "v"); op.ServerTime != 12345 {
		t.Fatalf("ServerTime = %d", op.ServerTime)
	}
}

func TestReplicationConvergenceTwoWay(t *testing.T) {
	a, b := NewStore("a"), NewStore("b")
	opsA := []Assertion{a.Set("u", "n", "from-a")}
	opsB := []Assertion{b.Set("u", "n", "from-b")}
	// Exchange in both orders; replicas must converge identically.
	a.ApplyRemote(opsB)
	b.ApplyRemote(opsA)
	va, _ := a.FirstValue("u", "n")
	vb, _ := b.FirstValue("u", "n")
	if va != vb {
		t.Fatalf("diverged: a=%q b=%q", va, vb)
	}
	// Concurrent Sets with equal clocks: higher origin wins.
	if va != "from-b" {
		t.Fatalf("tiebreak: got %q, want from-b", va)
	}
}

func TestReplicationIdempotent(t *testing.T) {
	a, b := NewStore("a"), NewStore("b")
	ops := []Assertion{a.Add("u", "n", "v")}
	if n := b.ApplyRemote(ops); n != 1 {
		t.Fatalf("first apply changed %d", n)
	}
	if n := b.ApplyRemote(ops); n != 0 {
		t.Fatalf("second apply changed %d", n)
	}
	if n := a.ApplyRemote(ops); n != 0 {
		t.Fatalf("self apply changed %d", n)
	}
}

func TestTombstoneBeatsEarlierAdd(t *testing.T) {
	a, b := NewStore("a"), NewStore("b")
	b.ApplyRemote([]Assertion{a.Add("u", "n", "v")})
	del, _ := b.Remove("u", "n", "v")
	a.ApplyRemote([]Assertion{del})
	if vals := a.Values("u", "n"); len(vals) != 0 {
		t.Fatalf("tombstone lost: %v", vals)
	}
	// A later re-add resurrects the element everywhere.
	b.ApplyRemote([]Assertion{a.Add("u", "n", "v")})
	if vals := b.Values("u", "n"); len(vals) != 1 {
		t.Fatalf("re-add lost: %v", vals)
	}
}

func TestVersionVectorAndOpsSince(t *testing.T) {
	a := NewStore("a")
	a.Add("u", "n", "1")
	a.Add("u", "n", "2")
	a.Add("u", "n", "3")
	vv := a.Vector()
	if vv["a"] != 3 {
		t.Fatalf("vector = %v", vv)
	}
	// A peer that has seen 1 op should receive the remaining 2.
	ops := a.OpsSince(VersionVector{"a": 1}, 0)
	if len(ops) != 2 || ops[0].Seq != 2 || ops[1].Seq != 3 {
		t.Fatalf("OpsSince = %v", ops)
	}
	// max limits the batch.
	if ops := a.OpsSince(VersionVector{}, 2); len(ops) != 2 {
		t.Fatalf("limited OpsSince = %v", ops)
	}
	// A fully caught-up peer gets nothing.
	if ops := a.OpsSince(vv, 0); len(ops) != 0 {
		t.Fatalf("caught-up OpsSince = %v", ops)
	}
}

func TestOutOfOrderRemoteOps(t *testing.T) {
	a, b := NewStore("a"), NewStore("b")
	op1 := a.Add("u", "n", "1")
	op2 := a.Add("u", "n", "2")
	op3 := a.Add("u", "n", "3")
	// Deliver 3 then 1 then 2 (push reordering).
	b.ApplyRemote([]Assertion{op3})
	if vv := b.Vector(); vv["a"] != 0 {
		t.Fatalf("vector advanced past a hole: %v", vv)
	}
	b.ApplyRemote([]Assertion{op1})
	if vv := b.Vector(); vv["a"] != 1 {
		t.Fatalf("vector after op1: %v", vv)
	}
	b.ApplyRemote([]Assertion{op2})
	if vv := b.Vector(); vv["a"] != 3 {
		t.Fatalf("vector after hole filled: %v", vv)
	}
	// Catalog saw all three regardless of order.
	if vals := b.Values("u", "n"); len(vals) != 3 {
		t.Fatalf("values = %v", vals)
	}
	// b can now serve a's full log to a third replica.
	c := NewStore("c")
	c.ApplyRemote(b.OpsSince(VersionVector{}, 0))
	if vals := c.Values("u", "n"); len(vals) != 3 {
		t.Fatalf("relay values = %v", vals)
	}
}

func TestWaitVersion(t *testing.T) {
	s := NewStore("s1")
	v0 := s.Version()
	done := make(chan uint64, 1)
	go func() { done <- s.waitVersion(v0, 2*time.Second, nil) }()
	time.Sleep(20 * time.Millisecond)
	s.Add("u", "n", "v")
	select {
	case v := <-done:
		if v <= v0 {
			t.Fatalf("version did not advance: %d", v)
		}
	case <-time.After(time.Second):
		t.Fatal("waitVersion did not wake")
	}
	// Timeout path.
	start := time.Now()
	v := s.waitVersion(s.Version(), 50*time.Millisecond, nil)
	if time.Since(start) < 40*time.Millisecond {
		t.Fatal("waitVersion returned too early")
	}
	if v != s.Version() {
		t.Fatalf("version mismatch: %d", v)
	}
}

func TestSubscribe(t *testing.T) {
	s := NewStore("s1")
	ch := make(chan Event, 16)
	id := s.Subscribe("urn:snipe:proc:", ch)
	s.Add("urn:snipe:proc:p1", AttrState, "running")
	s.Add("urn:snipe:host:h1", AttrLoad, "0.5") // outside prefix
	select {
	case ev := <-ch:
		if ev.Assertion.URI != "urn:snipe:proc:p1" {
			t.Fatalf("event = %v", ev)
		}
	case <-time.After(time.Second):
		t.Fatal("no event")
	}
	select {
	case ev := <-ch:
		t.Fatalf("unexpected event: %v", ev)
	default:
	}
	s.Unsubscribe(id)
	s.Add("urn:snipe:proc:p2", AttrState, "running")
	select {
	case ev := <-ch:
		t.Fatalf("event after unsubscribe: %v", ev)
	default:
	}
}

func TestStats(t *testing.T) {
	s := NewStore("s1")
	s.Add("u1", "n", "v")
	s.Add("u2", "n", "v")
	s.Remove("u2", "n", "v")
	uris, elems, tombs := s.Stats()
	if uris != 2 || elems != 1 || tombs != 1 {
		t.Fatalf("Stats = %d %d %d", uris, elems, tombs)
	}
}

func TestAssertionEncodeDecode(t *testing.T) {
	a := Assertion{
		URI: "urn:x", Name: "n", Value: "v", Clock: 7, Origin: "s1",
		Seq: 3, Deleted: true, ServerTime: -42,
		Signature: []byte{1, 2}, Signer: "alice",
	}
	e := xdr.NewEncoder(0)
	a.Encode(e)
	d := xdr.NewDecoder(e.Bytes())
	got, err := DecodeAssertion(d)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	if got.URI != a.URI || got.Clock != 7 || !got.Deleted || got.ServerTime != -42 ||
		got.Signer != "alice" || len(got.Signature) != 2 {
		t.Fatalf("round trip: %+v", got)
	}
}

func TestVersionVectorDominates(t *testing.T) {
	v := VersionVector{"a": 3, "b": 1}
	w := VersionVector{"a": 2}
	if !v.Dominates(w) {
		t.Fatal("v should dominate w")
	}
	if w.Dominates(v) {
		t.Fatal("w should not dominate v")
	}
	if !v.Dominates(VersionVector{}) {
		t.Fatal("anything dominates empty")
	}
}

func TestSupersedesOrdering(t *testing.T) {
	base := Assertion{Clock: 5, Origin: "m", Seq: 1}
	cases := []struct {
		a    Assertion
		want bool
	}{
		{Assertion{Clock: 6, Origin: "a", Seq: 1}, true},
		{Assertion{Clock: 4, Origin: "z", Seq: 9}, false},
		{Assertion{Clock: 5, Origin: "z", Seq: 1}, true},
		{Assertion{Clock: 5, Origin: "a", Seq: 1}, false},
		{Assertion{Clock: 5, Origin: "m", Seq: 2}, true},
		{Assertion{Clock: 5, Origin: "m", Seq: 1}, false},
	}
	for i, c := range cases {
		if got := c.a.Supersedes(&base); got != c.want {
			t.Errorf("case %d: Supersedes = %v, want %v", i, got, c.want)
		}
	}
}

// Property: the catalog is a function of the set of ops received. Per
// seed, three replicas take a random history of Set, Add, Remove and
// RemoveAll with partial gossip in between (so clocks interleave and
// removals find values to remove); then every replica and a fresh one
// receive all ops shuffled and partly duplicated, and a fifth installs
// replica 0's snapshot in shuffled order. All five must hold the same
// entries — equal ContentHash, not just equal live sets, so a leftover
// tombstone or a register that forgot its floor shows.
func TestQuickConvergence(t *testing.T) {
	const seeds = 2500
	for seed := int64(0); seed < seeds; seed++ {
		if msg := convergeOnce(rand.New(rand.NewSource(seed))); msg != "" {
			t.Fatalf("seed %d: %s", seed, msg)
		}
	}
}

func convergeOnce(rng *rand.Rand) string {
	const writers = 3
	stores := make([]*Store, writers)
	for i := range stores {
		stores[i] = NewStore(fmt.Sprintf("r%d", i))
	}
	var all []Assertion
	for n := 4 + rng.Intn(20); n > 0; n-- {
		st := stores[rng.Intn(writers)]
		uri := fmt.Sprintf("u%d", rng.Intn(2))
		name := fmt.Sprintf("n%d", rng.Intn(2))
		value := fmt.Sprintf("v%d", rng.Intn(3))
		switch rng.Intn(4) {
		case 0:
			all = append(all, st.Set(uri, name, value))
		case 1:
			all = append(all, st.Add(uri, name, value))
		case 2:
			if op, ok := st.Remove(uri, name, value); ok {
				all = append(all, op)
			}
		case 3:
			all = append(all, st.RemoveAll(uri, name)...)
		}
		if rng.Intn(4) == 0 {
			src, dst := stores[rng.Intn(writers)], stores[rng.Intn(writers)]
			dst.ApplyRemote(src.OpsSince(dst.Vector(), 0))
		}
	}
	// deliver hands st every op in its own order, a third of them twice,
	// in batches of random size.
	deliver := func(st *Store) {
		ops := append([]Assertion(nil), all...)
		for i := len(all) / 3; i > 0; i-- {
			ops = append(ops, all[rng.Intn(len(all))])
		}
		rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
		for len(ops) > 0 {
			n := 1 + rng.Intn(len(ops))
			st.ApplyRemote(ops[:n])
			ops = ops[n:]
		}
	}
	if len(all) == 0 {
		return "" // a history of removals that found nothing
	}
	stores = append(stores, NewStore("fresh"))
	for _, st := range stores {
		deliver(st)
	}
	snap := NewStore("snap")
	entries, next, vv := stores[0].SnapshotPage("", 0)
	if next != "" {
		return "snapshot did not fit one page"
	}
	rng.Shuffle(len(entries), func(i, j int) { entries[i], entries[j] = entries[j], entries[i] })
	snap.InstallSnapshotOps(entries)
	snap.MergeVector(vv)
	stores = append(stores, snap)

	ref := stores[0]
	for _, st := range stores[1:] {
		for _, uri := range []string{"u0", "u1"} {
			if got, want := fmt.Sprint(st.Get(uri)), fmt.Sprint(ref.Get(uri)); got != want {
				return fmt.Sprintf("%s holds %s = %s, %s holds %s", st.Origin(), uri, got, ref.Origin(), want)
			}
		}
		if st.ContentHash() != ref.ContentHash() {
			return fmt.Sprintf("%s and %s agree on the live values but not on the entries behind them", st.Origin(), ref.Origin())
		}
		if v := st.Vector(); !v.Dominates(ref.Vector()) || !ref.Vector().Dominates(v) {
			return fmt.Sprintf("%s vector %v, %s vector %v", st.Origin(), v, ref.Origin(), ref.Vector())
		}
	}
	return ""
}

// TestSetSemantics pins what a clear-and-set means against the ops
// around it. Each case is a set of hand-stamped ops; every order of
// delivery must leave the same entries and the live values listed.
func TestSetSemantics(t *testing.T) {
	set := func(v string, clock uint64, origin string) Assertion {
		return Assertion{URI: "u", Name: "n", Value: v, Clock: clock, Origin: origin, Seq: clock, Sole: true}
	}
	add := func(v string, clock uint64, origin string) Assertion {
		return Assertion{URI: "u", Name: "n", Value: v, Clock: clock, Origin: origin, Seq: clock}
	}
	remove := func(v string, clock uint64, origin string) Assertion {
		return Assertion{URI: "u", Name: "n", Value: v, Clock: clock, Origin: origin, Seq: clock, Deleted: true}
	}
	cases := []struct {
		name  string
		ops   []Assertion
		live  []string
		tombs int
	}{
		{"Set after Adds leaves one value",
			[]Assertion{add("a", 1, "p"), add("b", 2, "p"), set("c", 3, "p")}, []string{"c"}, 0},
		{"a late lower-stamped Add is dropped",
			[]Assertion{set("v", 5, "p"), add("w", 3, "q")}, []string{"v"}, 0},
		{"a late lower-stamped Remove is dropped",
			[]Assertion{set("v", 5, "p"), remove("v", 3, "q")}, []string{"v"}, 0},
		{"the floor outlives the register's removed value",
			[]Assertion{set("v", 5, "p"), remove("v", 7, "p"), add("w", 3, "q")}, nil, 1},
		{"a higher-stamped Add coexists",
			[]Assertion{set("v", 5, "p"), add("w", 6, "q")}, []string{"v", "w"}, 0},
		{"an Add over the register's own value counts once",
			[]Assertion{set("v", 5, "p"), add("v", 6, "q")}, []string{"v"}, 0},
		{"Set(v) after Remove(v) is live and clears the tombstone",
			[]Assertion{add("v", 1, "p"), remove("v", 2, "p"), set("v", 3, "p")}, []string{"v"}, 0},
		{"the later of two Sets wins",
			[]Assertion{set("x", 4, "q"), set("y", 5, "p")}, []string{"y"}, 0},
		{"equal clocks: the higher origin's Set wins",
			[]Assertion{set("x", 5, "p"), set("y", 5, "q")}, []string{"y"}, 0},
		{"equal clocks: an Add from the higher origin survives the Set",
			[]Assertion{set("v", 5, "p"), add("w", 5, "q")}, []string{"v", "w"}, 0},
		{"equal clocks: an Add from the lower origin does not",
			[]Assertion{set("v", 5, "q"), add("w", 5, "p")}, []string{"v"}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var ref [32]byte
			permute(tc.ops, func(order []Assertion) {
				st := NewStore("local")
				for _, op := range order {
					st.ApplyRemote([]Assertion{op})
				}
				if got := st.Values("u", "n"); fmt.Sprint(got) != fmt.Sprint(tc.live) {
					t.Fatalf("order %v: live values %v, want %v", order, got, tc.live)
				}
				if v, ok := st.FirstValue("u", "n"); ok != (len(tc.live) > 0) {
					t.Fatalf("order %v: FirstValue = %q, %v", order, v, ok)
				}
				if _, elems, tombs := st.Stats(); elems != len(tc.live) || tombs != tc.tombs {
					t.Fatalf("order %v: %d elements and %d tombstones, want %d and %d", order, elems, tombs, len(tc.live), tc.tombs)
				}
				if h := st.ContentHash(); ref == [32]byte{} {
					ref = h
				} else if h != ref {
					t.Fatalf("order %v left other entries than the first order", order)
				}
			})
		})
	}

	// The same through the store's own API, where Remove and RemoveAll
	// must find the register's value to remove it.
	st := NewStore("local")
	st.Add("u", "n", "old")
	if op := st.Set("u", "n", "v"); !op.Sole {
		t.Fatalf("Set minted %v, want a Sole op", op)
	}
	if op, ok := st.Remove("u", "n", "old"); ok {
		t.Fatalf("Remove of a value the Set cleared minted %v", op)
	}
	if op, ok := st.Remove("u", "n", "v"); !ok || !op.Deleted {
		t.Fatalf("Remove of the register's value minted %v, %v", op, ok)
	}
	if got := st.URIs(""); len(got) != 0 {
		t.Fatalf("URIs lists %v after its only value was removed", got)
	}
	st.Set("u", "n", "v")
	st.Add("u", "n", "w")
	if ops := st.RemoveAll("u", "n"); len(ops) != 2 {
		t.Fatalf("RemoveAll over a register and an element minted %v", ops)
	}
	if got := st.Get("u"); len(got) != 0 {
		t.Fatalf("Get after RemoveAll = %v", got)
	}
}

// permute calls f with every ordering of ops.
func permute(ops []Assertion, f func([]Assertion)) {
	var rec func(k int)
	rec = func(k int) {
		if k == len(ops) {
			f(ops)
			return
		}
		for i := k; i < len(ops); i++ {
			ops[k], ops[i] = ops[i], ops[k]
			rec(k + 1)
			ops[k], ops[i] = ops[i], ops[k]
		}
	}
	rec(0)
}

// TestSetChurnIsFlat: a daemon's heartbeat writes a fresh value every
// tick. Twenty thousand of them through one host URI leave one element
// and no tombstone, and the last Set costs what the hundredth did.
func TestSetChurnIsFlat(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("the race detector's shadow allocations are counted as the program's")
	}
	const uri, beats = "snipe://hosts/churn", 20000
	st := NewStore("rc0")
	next := 0
	beat := func() {
		st.Set(uri, AttrHeartbeat, strconv.Itoa(1e6+next)) // the same length every time
		next++
	}
	allocsAt := func(n int) float64 {
		for next < n {
			beat()
		}
		st.Compact(0) // a compacting replica: the log is not what is measured
		return testing.AllocsPerRun(50, beat)
	}
	early, late := allocsAt(100), allocsAt(beats)
	if early != late {
		t.Errorf("Set costs %.0f allocations at value 100 and %.0f at value %d", early, late, beats)
	}
	if uris, elems, tombs := st.Stats(); uris != 1 || elems != 1 || tombs != 0 {
		t.Errorf("after %d distinct values: %d URIs, %d elements, %d tombstones; want 1, 1, 0", next, uris, elems, tombs)
	}
	if cat := st.catalogs[uri].entries; len(cat) != 1 || cap(cat) > 2 {
		t.Errorf("the URI's entries: %d in room for %d, want 1 in at most 2", len(cat), cap(cat))
	}
}

// Property: assertions round-trip through the wire encoding.
func TestQuickAssertionRoundTrip(t *testing.T) {
	f := func(uri, name, value, origin string, clock, seq uint64, kind uint8, st int64) bool {
		a := Assertion{URI: uri, Name: name, Value: value, Origin: origin,
			Clock: clock, Seq: seq, Deleted: kind%3 == 1, Sole: kind%3 == 2, ServerTime: st}
		e := xdr.NewEncoder(0)
		a.Encode(e)
		got, err := DecodeAssertion(xdr.NewDecoder(e.Bytes()))
		return err == nil && got.URI == uri && got.Name == name &&
			got.Value == value && got.Origin == origin && got.Clock == clock &&
			got.Seq == seq && got.Deleted == a.Deleted && got.Sole == a.Sole && got.ServerTime == st
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// refStore is the catalog as this package held it before a URI's entries
// became one sorted slice: a map per URI from slot to boxed entry, with
// the merge rule, liveness and read paths copied from that code. It is
// what TestStoreMatchesReference holds the slice layout to. Beside it is
// the op log as the store kept it before the log was chunked — per origin
// a map from seq to the boxed op — with the vector, floors and
// compaction that served from it: what TestLogMatchesReference holds the
// chunked log to.
type refStore struct {
	catalogs map[string]map[refKey]*Assertion

	origin string // the replica's own: ops of it that come back are not merged
	log    map[string]map[uint64]*Assertion
	vv     VersionVector
	floor  map[string]uint64
	keep   uint64 // >0: each op filed compacts its origin's log to this tail
}

type refKey struct {
	name  string
	value string
	sole  bool
}

func newRefStore(origin string) *refStore {
	return &refStore{catalogs: make(map[string]map[refKey]*Assertion), origin: origin,
		log: make(map[string]map[uint64]*Assertion), vv: make(VersionVector), floor: make(map[string]uint64)}
}

func refKeyOf(a *Assertion) refKey {
	if a.Sole {
		return refKey{name: a.Name, sole: true}
	}
	return refKey{name: a.Name, value: a.Value}
}

func refLive(cat map[refKey]*Assertion, key refKey, a *Assertion) bool {
	if !key.sole {
		return !a.Deleted
	}
	_, over := cat[refKey{name: key.name, value: a.Value}]
	return !over
}

func (r *refStore) liveValue(uri, name, value string) bool {
	cat := r.catalogs[uri]
	if cur, ok := cat[refKey{name: name, value: value}]; ok {
		return !cur.Deleted
	}
	reg := cat[refKey{name: name, sole: true}]
	return reg != nil && reg.Value == value
}

func (r *refStore) apply(ops []Assertion) {
	for _, a := range ops {
		cat, ok := r.catalogs[a.URI]
		if !ok {
			cat = make(map[refKey]*Assertion)
			r.catalogs[a.URI] = cat
		}
		reg := cat[refKey{name: a.Name, sole: true}]
		if reg != nil && !a.Supersedes(reg) {
			continue
		}
		key, cur := refKeyOf(&a), reg
		if !a.Sole {
			if cur = cat[key]; cur != nil && !a.Supersedes(cur) {
				continue
			}
		}
		cp := a
		cat[key] = &cp
		if a.Sole {
			for k, old := range cat {
				if k.name == a.Name && !k.sole && a.Supersedes(old) {
					delete(cat, k)
				}
			}
		}
	}
}

func (r *refStore) Get(uri string) []Assertion {
	var out []Assertion
	cat := r.catalogs[uri]
	for key, a := range cat {
		if refLive(cat, key, a) {
			out = append(out, *a)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Value < out[j].Value
	})
	return out
}

func (r *refStore) Values(uri, name string) []string {
	var out []string
	for _, a := range r.Get(uri) {
		if a.Name == name {
			out = append(out, a.Value)
		}
	}
	return out
}

func (r *refStore) FirstValue(uri, name string) (string, bool) {
	var best *Assertion
	cat := r.catalogs[uri]
	for key, a := range cat {
		if key.name == name && refLive(cat, key, a) && (best == nil || a.Supersedes(best)) {
			best = a
		}
	}
	if best == nil {
		return "", false
	}
	return best.Value, true
}

func (r *refStore) URIs() []string {
	var out []string
	for uri := range r.catalogs {
		if len(r.Get(uri)) > 0 {
			out = append(out, uri)
		}
	}
	sort.Strings(out)
	return out
}

func (r *refStore) Stats() (uris, elements, tombstones int) {
	uris = len(r.catalogs)
	for _, cat := range r.catalogs {
		for key, a := range cat {
			if a.Deleted {
				tombstones++
			} else if refLive(cat, key, a) {
				elements++
			}
		}
	}
	return
}

// entries renders every entry held, sorted: the multiset SnapshotPage
// must serve.
func (r *refStore) entries() []string {
	var out []string
	for _, cat := range r.catalogs {
		for _, a := range cat {
			out = append(out, entryString(a))
		}
	}
	sort.Strings(out)
	return out
}

// entryString renders every field of an entry.
func entryString(a *Assertion) string {
	return fmt.Sprintf("%s t=%d signer=%q sig=%x", a, a.ServerTime, a.Signer, a.Signature)
}

// diff reports the first read on which st and r disagree, "" if none.
func (r *refStore) diff(st *Store, uris, names []string) string {
	for _, uri := range uris {
		got, want := st.Get(uri), r.Get(uri)
		if len(got) != len(want) {
			return fmt.Sprintf("Get(%s) = %v, reference %v", uri, got, want)
		}
		for i := range got {
			if entryString(&got[i]) != entryString(&want[i]) {
				return fmt.Sprintf("Get(%s) = %v, reference %v", uri, got, want)
			}
		}
		for _, name := range names {
			if got, want := st.Values(uri, name), r.Values(uri, name); fmt.Sprint(got) != fmt.Sprint(want) {
				return fmt.Sprintf("Values(%s, %s) = %v, reference %v", uri, name, got, want)
			}
			gv, gok := st.FirstValue(uri, name)
			wv, wok := r.FirstValue(uri, name)
			if gv != wv || gok != wok {
				return fmt.Sprintf("FirstValue(%s, %s) = %q %v, reference %q %v", uri, name, gv, gok, wv, wok)
			}
		}
	}
	if got, want := st.URIs(""), r.URIs(); fmt.Sprint(got) != fmt.Sprint(want) {
		return fmt.Sprintf("URIs = %v, reference %v", got, want)
	}
	gu, ge, gt := st.Stats()
	wu, we, wt := r.Stats()
	if gu != wu || ge != we || gt != wt {
		return fmt.Sprintf("Stats = %d %d %d, reference %d %d %d", gu, ge, gt, wu, we, wt)
	}
	page, next, _ := st.SnapshotPage("", 0)
	if next != "" {
		return "snapshot did not fit one page"
	}
	held := make([]string, len(page))
	for i := range page {
		held[i] = entryString(&page[i])
	}
	sort.Strings(held)
	if want := r.entries(); fmt.Sprint(held) != fmt.Sprint(want) {
		return fmt.Sprintf("entries held %v, reference %v", held, want)
	}
	return ""
}

// TestStoreMatchesReference drives the slice layout and the map layout it
// replaced with the same ops — three writers' Set, Add, AddSigned, Remove
// and RemoveAll over 4 URIs × 3 names × 5 values, gossiped in part, so
// late, duplicate and lower-stamped ops all occur — and compares every
// read the store offers after every op, and which values each removal
// found to tombstone.
func TestStoreMatchesReference(t *testing.T) {
	const seeds = 2500
	for seed := int64(0); seed < seeds; seed++ {
		if msg := matchReferenceOnce(rand.New(rand.NewSource(seed))); msg != "" {
			t.Fatalf("seed %d: %s", seed, msg)
		}
	}
}

func matchReferenceOnce(rng *rand.Rand) string {
	const writers = 3
	uris := []string{"u0", "u1", "u2", "u3"}
	names := []string{"n0", "n1", "n2"}
	stores, refs := make([]*Store, writers), make([]*refStore, writers)
	for i := range stores {
		stores[i], refs[i] = NewStore(fmt.Sprintf("r%d", i)), newRefStore("")
	}
	for n := 8 + rng.Intn(40); n > 0; n-- {
		w := rng.Intn(writers)
		st, ref := stores[w], refs[w]
		uri, name := uris[rng.Intn(len(uris))], names[rng.Intn(len(names))]
		value := fmt.Sprintf("v%d", rng.Intn(5))
		var ops []Assertion
		what := ""
		switch rng.Intn(5) {
		case 0:
			what, ops = "Set", []Assertion{st.Set(uri, name, value)}
		case 1:
			what, ops = "Add", []Assertion{st.Add(uri, name, value)}
		case 2:
			what, ops = "AddSigned", []Assertion{st.AddSigned(uri, name, value, "signer", []byte{byte(n)})}
		case 3:
			was := ref.liveValue(uri, name, value)
			what = "Remove"
			if op, ok := st.Remove(uri, name, value); ok {
				ops = []Assertion{op}
			}
			if (len(ops) == 1) != was {
				return fmt.Sprintf("Remove(%s, %s, %s) minted %v, reference held it live: %v", uri, name, value, ops, was)
			}
		case 4:
			was := ref.Values(uri, name)
			what, ops = "RemoveAll", st.RemoveAll(uri, name)
			var found []string
			for _, op := range ops {
				found = append(found, op.Value)
			}
			sort.Strings(found)
			if fmt.Sprint(found) != fmt.Sprint(was) {
				return fmt.Sprintf("RemoveAll(%s, %s) tombstoned %v, reference held %v", uri, name, found, was)
			}
		}
		ref.apply(ops)
		if msg := ref.diff(st, uris, names); msg != "" {
			return fmt.Sprintf("after %s(%s, %s, %s) on %s: %s", what, uri, name, value, st.Origin(), msg)
		}
		if rng.Intn(3) == 0 {
			src, dst := rng.Intn(writers), rng.Intn(writers)
			ops := stores[src].OpsSince(stores[dst].Vector(), 0)
			rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
			stores[dst].ApplyRemote(ops)
			refs[dst].apply(ops)
			if msg := refs[dst].diff(stores[dst], uris, names); msg != "" {
				return fmt.Sprintf("after %s took %d ops from %s: %s", stores[dst].Origin(), len(ops), stores[src].Origin(), msg)
			}
		}
	}
	return ""
}

// TestWideURI: a service group or multicast URN holds hundreds of values
// under one name. A thousand Adds in shuffled order leave the URI's slice
// in slot order, every op in the log under the catalog's one copy of the
// URI, and read back in value order; one Set cuts all of them and gives
// their room back; a Remove of the value the register holds leaves its
// tombstone beside the register, which stays as the floor.
func TestWideURI(t *testing.T) {
	const uri, n = "urn:snipe:service:wide", 1000
	st := NewStore("rc0")
	values := make([]string, n)
	for i := range values {
		values[i] = fmt.Sprintf("urn:snipe:process:node%04d/replica", i)
	}
	shuffled := append([]string(nil), values...)
	rand.New(rand.NewSource(1)).Shuffle(n, func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	st.Set(uri, AttrState, "up")
	for _, v := range shuffled {
		st.Add(uri, AttrServiceReplica, v)
	}
	st.Add(uri, AttrLoad, "0.5") // a run on either side of the wide one
	checkSlotOrder := func() {
		t.Helper()
		h := st.catalogs[uri]
		cat := h.entries
		for i := 1; i < len(cat); i++ {
			if slotCmp(&cat[i-1], cat[i].name, cat[i].sole, cat[i].value) >= 0 {
				t.Fatalf("entries %d and %d out of slot order: %+v, %+v", i-1, i, cat[i-1], cat[i])
			}
		}
		for _, c := range st.logs[0].chunks {
			for i := range c.ops {
				if c.have&(1<<i) != 0 && unsafe.StringData(c.ops[i].uri) != unsafe.StringData(h.uri) {
					t.Fatalf("logged op %d holds a URI string of its own", c.ops[i].e.seq)
				}
			}
		}
	}
	checkSlotOrder()
	got := st.Get(uri)
	if len(got) != n+2 {
		t.Fatalf("Get returned %d entries, want %d", len(got), n+2)
	}
	for i := 1; i < len(got); i++ {
		a, b := &got[i-1], &got[i]
		if a.Name > b.Name || (a.Name == b.Name && a.Value >= b.Value) {
			t.Fatalf("Get not in (name, value) order at %d: %v, %v", i, a, b)
		}
	}
	if vals := st.Values(uri, AttrServiceReplica); fmt.Sprint(vals) != fmt.Sprint(values) {
		t.Fatalf("Values returned %d values, not the %d added in order", len(vals), n)
	}

	st.Set(uri, AttrServiceReplica, values[7])
	checkSlotOrder()
	if cat := st.catalogs[uri].entries; len(cat) != 3 || cap(cat) > 8 {
		t.Fatalf("after the Set the URI holds %d entries in room for %d, want 3 in at most 8", len(cat), cap(cat))
	}
	if vals := st.Values(uri, AttrServiceReplica); len(vals) != 1 || vals[0] != values[7] {
		t.Fatalf("after the Set: %v", vals)
	}
	if op, ok := st.Remove(uri, AttrServiceReplica, values[7]); !ok || !op.Deleted {
		t.Fatalf("Remove of the register's value minted %v, %v", op, ok)
	}
	checkSlotOrder()
	cat := st.catalogs[uri].entries
	if i, hasReg := search(cat, AttrServiceReplica, true, ""); !hasReg || len(cat) != 4 || !cat[i+1].deleted || cat[i+1].value != cat[i].value {
		t.Fatalf("the tombstone is not beside the register: %+v", cat)
	}
	if vals := st.Values(uri, AttrServiceReplica); len(vals) != 0 {
		t.Fatalf("after the Remove: %v", vals)
	}
	if _, elems, tombs := st.Stats(); elems != 2 || tombs != 1 {
		t.Fatalf("Stats: %d elements, %d tombstones; want 2 and 1", elems, tombs)
	}
}

// merge is the old mergeLocked: the op filed in its origin's log, the
// vector advanced over what became contiguous, then the catalog merge.
func (r *refStore) merge(a Assertion) {
	l := r.log[a.Origin]
	if l == nil {
		l = make(map[uint64]*Assertion)
		r.log[a.Origin] = l
	}
	if l[a.Seq] == nil {
		l[a.Seq] = &a
		for l[r.vv[a.Origin]+1] != nil {
			r.vv[a.Origin]++
		}
		r.compactInline(a.Origin)
	}
	r.apply([]Assertion{a})
}

// compactInline is the compaction an op filed runs (Store.recordLocked):
// once origin's log spans keep + logChunk seqs from its floor to its
// mark, every seq below the chunk that holds mark − keep + 1 goes, and the
// floor moves up to it.
func (r *refStore) compactInline(origin string) {
	mark, floor := r.vv[origin], max(r.floor[origin], 1)
	if r.keep == 0 || mark-floor+1 < r.keep+logChunk {
		return
	}
	r.floor[origin] = (mark - r.keep + 1) / logChunk * logChunk
	for seq := range r.log[origin] {
		if seq < r.floor[origin] {
			delete(r.log[origin], seq)
		}
	}
}

// applyRemote is ApplyRemote and InstallSnapshotOps, which differ only in
// their counters: the replica's own ops are skipped.
func (r *refStore) applyRemote(ops []Assertion) {
	for _, a := range ops {
		if a.Origin != r.origin {
			r.merge(a)
		}
	}
}

func (r *refStore) mergeVector(vv VersionVector) {
	for origin, seq := range vv {
		if seq > r.vv[origin] {
			r.vv[origin] = seq
			r.floor[origin] = max(r.floor[origin], seq+1)
		}
	}
	for origin, l := range r.log {
		for l[r.vv[origin]+1] != nil {
			r.vv[origin]++
		}
	}
}

// holes counts the ops held above their origin's contiguous mark.
func (r *refStore) holes() (n int) {
	for origin, l := range r.log {
		for seq := range l {
			if seq > r.vv[origin] {
				n++
			}
		}
	}
	return n
}

// aboveMarks counts the ops st's log holds above their origin's mark.
func aboveMarks(st *Store) (n int) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for o, origin := range st.origins {
		for k, c := range st.logs[o].chunks {
			for i := range uint64(logChunk) {
				if c.have&(1<<i) != 0 && k*logChunk+i > st.vv[origin] {
					n++
				}
			}
		}
	}
	return n
}

func (r *refStore) canServeTail(theirs VersionVector) bool {
	for origin, seq := range r.vv {
		if have := theirs[origin]; seq > have && have+1 < r.floor[origin] {
			return false
		}
	}
	return true
}

func (r *refStore) compact(keep int) (dropped int) {
	for origin, l := range r.log {
		mark := r.vv[origin]
		if mark <= uint64(keep) {
			continue
		}
		horizon := mark - uint64(keep)
		r.floor[origin] = max(r.floor[origin], horizon+1)
		for seq := range l {
			if seq <= horizon {
				delete(l, seq)
				dropped++
			}
		}
	}
	return dropped
}

func (r *refStore) logLen() (n int) {
	for _, l := range r.log {
		n += len(l)
	}
	return n
}

func (r *refStore) opsSince(theirs VersionVector, max int) (out []Assertion) {
	var origins []string
	for origin := range r.log {
		origins = append(origins, origin)
	}
	sort.Strings(origins)
	for _, origin := range origins {
		for seq := theirs[origin] + 1; seq <= r.vv[origin]; seq++ {
			op := r.log[origin][seq]
			if op == nil {
				break
			}
			if out = append(out, *op); max > 0 && len(out) >= max {
				return out
			}
		}
	}
	return out
}

// contentHash is ContentHash over the map layout: URIs sorted, each one's
// entries in slot order, every field encoded.
func (r *refStore) contentHash() [32]byte {
	var uris []string
	for uri := range r.catalogs {
		uris = append(uris, uri)
	}
	sort.Strings(uris)
	h := sha256.New()
	e := xdr.NewEncoder(256)
	for _, uri := range uris {
		var cat []*Assertion
		for _, a := range r.catalogs[uri] {
			cat = append(cat, a)
		}
		sort.Slice(cat, func(i, j int) bool {
			a, b := cat[i], cat[j]
			switch {
			case a.Name != b.Name:
				return a.Name < b.Name
			case a.Sole != b.Sole:
				return a.Sole
			}
			return a.Value < b.Value
		})
		for _, a := range cat {
			e.Reset()
			a.Encode(e)
			h.Write(e.Bytes())
		}
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// diffLog reports the first thing the log serves differently from r's,
// "" if none: the vector, the ops held and how many of them stand above
// the vector, the ops OpsSince serves under
// every vector in theirs and several limits, whether each tail can be
// served at all, and the catalog behind it all.
func (r *refStore) diffLog(st *Store, theirs []VersionVector) string {
	if got := st.Vector(); !got.Dominates(r.vv) || !r.vv.Dominates(got) {
		return fmt.Sprintf("Vector = %v, reference %v", got, r.vv)
	}
	if got, want := logLen(st), r.logLen(); got != want {
		return fmt.Sprintf("LogLen = %d, reference %d", got, want)
	}
	if got, want := aboveMarks(st), r.holes(); got != want {
		return fmt.Sprintf("%d ops held above the mark, reference %d", got, want)
	}
	for _, vv := range theirs {
		if got, want := st.CanServeTail(vv), r.canServeTail(vv); got != want {
			return fmt.Sprintf("CanServeTail(%v) = %v, reference %v", vv, got, want)
		}
		for _, max := range []int{0, 1, 3, 7} {
			got, want := st.OpsSince(vv, max), r.opsSince(vv, max)
			if len(got) != len(want) {
				return fmt.Sprintf("OpsSince(%v, %d) = %v, reference %v", vv, max, got, want)
			}
			for i := range got {
				if entryString(&got[i]) != entryString(&want[i]) {
					return fmt.Sprintf("OpsSince(%v, %d) = %v, reference %v", vv, max, got, want)
				}
			}
		}
	}
	if st.ContentHash() != r.contentHash() {
		return "the catalogs differ"
	}
	return ""
}

// TestLogMatchesReference drives the chunked log and the map log it
// replaced with the same ops: local writes, pushes of other writers' ops
// picked at random, reordered and duplicated (the store's own among them,
// echoed back), forged ops up to 10⁹ seqs ahead of their origin, vector
// merges that leave holes below the mark, snapshot pages installed,
// Compact at random depths, and restarts from a snapshot file (which the
// map log survived as it was). Every other seed the store also compacts
// inside each write, to a tail of 1 to 8 ops, and takes bursts of 64 to 95
// ops pushed in order. After every step the two must serve the same ops under
// several vectors and limits, hold as many, drop as many, hold as many
// above the mark, and agree on the vector, the servable tails and the
// catalog.
func TestLogMatchesReference(t *testing.T) {
	const seeds = 1500
	for seed := int64(0); seed < seeds; seed++ {
		if msg := matchLogOnce(rand.New(rand.NewSource(seed))); msg != "" {
			t.Fatalf("seed %d: %s", seed, msg)
		}
	}
}

func matchLogOnce(rng *rand.Rand) string {
	st, ref := NewStore("t"), newRefStore("t")
	keep := 0
	if rng.Intn(2) == 0 {
		keep = 1 + rng.Intn(8)
	}
	st.compactTo(keep)
	ref.keep = uint64(keep)
	writers := []*Store{NewStore("w0"), NewStore("w1")}
	origins := []string{"t", "w0", "w1", "far"}
	var pool []Assertion // every op minted, the store's own included
	write := func(w *Store) Assertion {
		uri, name, value := fmt.Sprintf("u%d", rng.Intn(3)), fmt.Sprintf("n%d", rng.Intn(2)), fmt.Sprintf("v%d", rng.Intn(4))
		if rng.Intn(2) == 0 {
			return w.Set(uri, name, value)
		}
		return w.Add(uri, name, value)
	}
	for step, steps := 0, 20+rng.Intn(40); step < steps; step++ {
		what := ""
		switch rng.Intn(9 + min(keep, 1)) { // a burst only where it compacts
		case 0:
			what = "a local write"
			op := write(st)
			ref.merge(op)
			pool = append(pool, op)
		case 1, 2:
			what = "writes elsewhere"
			for n := 1 + rng.Intn(4); n > 0; n-- {
				pool = append(pool, write(writers[rng.Intn(len(writers))]))
			}
		case 3:
			what = "a push"
			var batch []Assertion
			for n := rng.Intn(8); n > 0 && len(pool) > 0; n-- {
				batch = append(batch, pool[rng.Intn(len(pool))])
			}
			st.ApplyRemote(batch)
			ref.applyRemote(batch)
		case 4:
			what = "a far-ahead op"
			op := write(writers[0])
			op.Origin, op.Seq = "far", uint64(1+rng.Intn(1000))*uint64(1+rng.Intn(1e6))
			st.ApplyRemote([]Assertion{op})
			ref.applyRemote([]Assertion{op})
		case 5:
			origin := origins[1+rng.Intn(3)]
			what = "a vector merge on " + origin
			vv := VersionVector{origin: st.Vector()[origin] + uint64(rng.Intn(6))}
			st.MergeVector(vv)
			ref.mergeVector(vv)
		case 6:
			what = "a snapshot page"
			page, _, _ := writers[rng.Intn(len(writers))].SnapshotPage("", 0)
			rng.Shuffle(len(page), func(i, j int) { page[i], page[j] = page[j], page[i] })
			st.InstallSnapshotOps(page)
			ref.applyRemote(page)
		case 7:
			keep := rng.Intn(6)
			what = fmt.Sprintf("Compact(%d)", keep)
			if got, want := st.Compact(keep), ref.compact(keep); got != want {
				return fmt.Sprintf("step %d: Compact(%d) dropped %d, reference %d", step, keep, got, want)
			}
		case 8:
			what = "a restart"
			var file bytes.Buffer
			if err := st.SaveTo(&file); err != nil {
				return err.Error()
			}
			var err error
			if st, err = LoadStore(&file); err != nil {
				return err.Error()
			}
			st.compactTo(keep) // as the restarted server's WithLogCompaction does
		case 9:
			w := append(writers, st)[rng.Intn(len(writers)+1)]
			what = "a burst at " + w.Origin()
			batch := make([]Assertion, logChunk+rng.Intn(32))
			for i := range batch {
				batch[i] = write(w)
			}
			if w == st {
				for _, op := range batch {
					ref.merge(op)
				}
			} else {
				st.ApplyRemote(batch)
				ref.applyRemote(batch)
			}
			pool = append(pool, batch...)
		}
		theirs := []VersionVector{nil, st.Vector(), {"t": 1}}
		random := make(VersionVector)
		for _, origin := range origins {
			random[origin] = uint64(rng.Intn(int(st.Vector()[origin]) + 3))
		}
		if msg := ref.diffLog(st, append(theirs, random)); msg != "" {
			return fmt.Sprintf("step %d, after %s: %s", step, what, msg)
		}
	}
	return ""
}

// maxSparseLogBytes bounds what 1,000 ops whose seqs lie 10⁶ apart cost a
// log: a 6 KiB chunk each (64 ops of 88 B), where a structure dense in seq
// would hold the 10⁹ seqs between them.
const maxSparseLogBytes = 8 << 20

// TestSparseLogSeqs: a log costs what it holds, whatever the seqs. Ops of
// one origin 10⁶ seqs apart, which a peer can send, are held and cost a
// chunk each, never the range between them; once the vector has passed
// them a compaction drops them and gives every chunk back. The race
// detector's shadow memory would count as the program's: under it only
// what is held and dropped is checked.
func TestSparseLogSeqs(t *testing.T) {
	const ops, gap = 1000, 1_000_000
	batch := make([]Assertion, ops)
	for i := range batch {
		batch[i] = Assertion{URI: "urn:sparse", Name: "n", Value: strconv.Itoa(i), Clock: 1, Origin: "far", Seq: uint64(i+1) * gap}
	}
	before := int64(stats.SettledHeap())
	st := NewStore("rc0")
	st.ApplyRemote(batch)
	held := int64(stats.SettledHeap()) - before
	if logLen(st) != ops {
		t.Fatalf("the log holds %d ops, want %d", logLen(st), ops)
	}
	if held > maxSparseLogBytes && !testutil.RaceEnabled {
		t.Errorf("%d ops %d seqs apart cost %d B, want ≤ %d", ops, gap, held, maxSparseLogBytes)
	} else {
		t.Logf("%d ops %d seqs apart: %d B", ops, gap, held)
	}
	if ops := st.OpsSince(nil, 0); len(ops) != 0 {
		t.Fatalf("OpsSince served %d ops past a hole at seq 1", len(ops))
	}
	st.MergeVector(VersionVector{"far": ops * gap})
	if got := st.Compact(0); got != ops || logLen(st) != 0 {
		t.Fatalf("Compact(0) dropped %d of %d ops, %d left", got, ops, logLen(st))
	}
	if left := int64(stats.SettledHeap()) - before; left > held/8 && !testutil.RaceEnabled {
		t.Errorf("after the compaction the store still holds %d B of the %d its log took", left, held)
	}
	runtime.KeepAlive(st)
}

// TestEntryIsCompact pins what a catalog entry and a logged op cost: the
// entry is at most 72 B, half the Assertion it replaces.
func TestEntryIsCompact(t *testing.T) {
	if got := unsafe.Sizeof(entry{}); got > 72 {
		t.Errorf("an entry is %d B, want ≤ 72", got)
	}
}
