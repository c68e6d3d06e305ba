package rcds

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

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
	ops := s.Remove("u", "n", "v1")
	if len(ops) != 1 || !ops[0].Deleted {
		t.Fatalf("Remove ops = %v", ops)
	}
	if vals := s.Values("u", "n"); len(vals) != 1 || vals[0] != "v2" {
		t.Fatalf("after remove: %v", vals)
	}
	// Removing a non-live element is a no-op.
	if ops := s.Remove("u", "n", "v1"); ops != nil {
		t.Fatalf("double remove ops = %v", ops)
	}
	if ops := s.Remove("u", "n", "never"); ops != nil {
		t.Fatalf("remove of absent ops = %v", ops)
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
	s.SetNowFunc(func() int64 { return fake })
	ops := s.Add("u", "n", "v")
	if ops[0].ServerTime != 12345 {
		t.Fatalf("ServerTime = %d", ops[0].ServerTime)
	}
}

func TestReplicationConvergenceTwoWay(t *testing.T) {
	a, b := NewStore("a"), NewStore("b")
	opsA := a.Set("u", "n", "from-a")
	opsB := b.Set("u", "n", "from-b")
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
	ops := a.Add("u", "n", "v")
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
	add := a.Add("u", "n", "v")
	b.ApplyRemote(add)
	del := b.Remove("u", "n", "v")
	a.ApplyRemote(del)
	if vals := a.Values("u", "n"); len(vals) != 0 {
		t.Fatalf("tombstone lost: %v", vals)
	}
	// A later re-add resurrects the element everywhere.
	re := a.Add("u", "n", "v")
	b.ApplyRemote(re)
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
	op1 := a.Add("u", "n", "1")[0]
	op2 := a.Add("u", "n", "2")[0]
	op3 := a.Add("u", "n", "3")[0]
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
	go func() { done <- s.WaitVersion(v0, 2*time.Second) }()
	time.Sleep(20 * time.Millisecond)
	s.Add("u", "n", "v")
	select {
	case v := <-done:
		if v <= v0 {
			t.Fatalf("version did not advance: %d", v)
		}
	case <-time.After(time.Second):
		t.Fatal("WaitVersion did not wake")
	}
	// Timeout path.
	start := time.Now()
	v := s.WaitVersion(s.Version(), 50*time.Millisecond)
	if time.Since(start) < 40*time.Millisecond {
		t.Fatal("WaitVersion returned too early")
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
			all = append(all, st.Set(uri, name, value)...)
		case 1:
			all = append(all, st.Add(uri, name, value)...)
		case 2:
			all = append(all, st.Remove(uri, name, value)...)
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
	if ops := st.Set("u", "n", "v"); len(ops) != 1 || !ops[0].Sole {
		t.Fatalf("Set minted %v, want one Sole op", ops)
	}
	if ops := st.Remove("u", "n", "old"); ops != nil {
		t.Fatalf("Remove of a value the Set cleared minted %v", ops)
	}
	if ops := st.Remove("u", "n", "v"); len(ops) != 1 || !ops[0].Deleted {
		t.Fatalf("Remove of the register's value minted %v", ops)
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
	if cat := st.catalogs[uri]; len(cat) != 1 || cap(cat) > 2 {
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
// what TestStoreMatchesReference holds the slice layout to.
type refStore struct {
	catalogs map[string]map[refKey]*Assertion
}

type refKey struct {
	name  string
	value string
	sole  bool
}

func newRefStore() *refStore {
	return &refStore{catalogs: make(map[string]map[refKey]*Assertion)}
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
		stores[i], refs[i] = NewStore(fmt.Sprintf("r%d", i)), newRefStore()
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
			what, ops = "Set", st.Set(uri, name, value)
		case 1:
			what, ops = "Add", st.Add(uri, name, value)
		case 2:
			what, ops = "AddSigned", st.AddSigned(uri, name, value, "signer", []byte{byte(n)})
		case 3:
			was := ref.liveValue(uri, name, value)
			what, ops = "Remove", st.Remove(uri, name, value)
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
// in slot order and read back in value order; one Set cuts all of them and
// gives their room back; a Remove of the value the register holds leaves
// its tombstone beside the register, which stays as the floor.
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
		cat := st.catalogs[uri]
		for i := 1; i < len(cat); i++ {
			if slotCmp(&cat[i-1], cat[i].Name, cat[i].Sole, cat[i].Value) >= 0 {
				t.Fatalf("entries %d and %d out of slot order: %v, %v", i-1, i, &cat[i-1], &cat[i])
			}
		}
		for i := range cat {
			if unsafe.StringData(cat[i].URI) != unsafe.StringData(cat[0].URI) {
				t.Fatalf("entry %d holds a URI string of its own", i)
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
	if cat := st.catalogs[uri]; len(cat) != 3 || cap(cat) > 8 {
		t.Fatalf("after the Set the URI holds %d entries in room for %d, want 3 in at most 8", len(cat), cap(cat))
	}
	if vals := st.Values(uri, AttrServiceReplica); len(vals) != 1 || vals[0] != values[7] {
		t.Fatalf("after the Set: %v", vals)
	}
	if ops := st.Remove(uri, AttrServiceReplica, values[7]); len(ops) != 1 || !ops[0].Deleted {
		t.Fatalf("Remove of the register's value minted %v", ops)
	}
	checkSlotOrder()
	i, hasReg := search(st.catalogs[uri], AttrServiceReplica, true, "")
	if cat := st.catalogs[uri]; !hasReg || len(cat) != 4 || !cat[i+1].Deleted || cat[i+1].Value != cat[i].Value {
		t.Fatalf("the tombstone is not beside the register: %v", cat)
	}
	if vals := st.Values(uri, AttrServiceReplica); len(vals) != 0 {
		t.Fatalf("after the Remove: %v", vals)
	}
	if _, elems, tombs := st.Stats(); elems != 2 || tombs != 1 {
		t.Fatalf("Stats: %d elements, %d tombstones; want 2 and 1", elems, tombs)
	}
}
