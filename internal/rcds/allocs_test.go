package rcds

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"snipe/internal/testutil"
	"snipe/internal/xdr"
)

// TestClientRoutedOpAllocs is the tier-1 guard on the always-routed
// client path: against a one-group server with no shard map published,
// a warmed op costs what it keeps and one — client and server both
// counted, since AllocsPerRun reads the process-wide counter. A Set keeps
// the stored value (its log entry lies in a chunk of 64 and the op it hands
// the push queue is copied there); an uncached FirstValue the value it
// returns; an uncached Get the slice and the value (the URI is the
// caller's string, the name and origin are shared). Measured: 1, 1 and 2. What a client that caches reads does after a write, sweep its
// groups' caches, it does in place. The benchmark ledger gates the same
// path as catalog_mix allocs_per_op.
func TestClientRoutedOpAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("the race detector's shadow allocations are counted as the program's")
	}
	s := NewServer(NewStore("alloc"), WithAntiEntropyInterval(0))
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c := NewClient([]string{s.Addr()}, nil)
	defer c.Close()

	ctx := context.Background()
	vals := [2]string{"v0", "v1"}
	i := 0
	set := func() {
		i++
		if err := c.Set(ctx, "urn:alloc", "k", vals[i&1]); err != nil {
			t.Fatal(err)
		}
	}
	first := func() {
		if _, ok, err := c.FirstValue(ctx, "urn:alloc", "k"); err != nil || !ok {
			t.Fatalf("first value: %v %v", ok, err)
		}
	}
	get := func() {
		if as, err := c.Get(ctx, "urn:alloc"); err != nil || len(as) != 1 {
			t.Fatalf("get: %v %v", as, err)
		}
	}
	cases := []struct {
		name  string
		op    func()
		bound float64
	}{
		{"Set", set, 2},
		{"FirstValue", first, 2},
		{"Get", get, 3},
	}
	for j := 0; j < 200; j++ { // dial, the shard-map bootstrap, pools
		for _, tc := range cases {
			tc.op()
		}
	}
	for _, tc := range cases {
		if got := testing.AllocsPerRun(2000, tc.op); got > tc.bound {
			t.Errorf("%s costs %.1f allocations, want ≤ %.0f", tc.name, got, tc.bound)
		} else {
			t.Logf("%s: %.1f allocations", tc.name, got)
		}
	}

	// Made only now: every write above would have woken its watch, whose
	// long-poll cycle is no part of what a write costs.
	cached := NewClient([]string{s.Addr()}, nil, WithReadCache())
	defer cached.Close()
	if got := testing.AllocsPerRun(1000, func() { cached.invalidateWrite("urn:alloc", nil) }); got > 0 {
		t.Errorf("the cache sweep after a write costs %.1f allocations, want 0", got)
	}
}

// maxReplicatedSetAllocs bounds a warmed Set on a two-replica group end
// to end — the client, the replica that takes it and the replica it is
// pushed to: what the replicas keep, each the value, and one. Measured: 2.
const maxReplicatedSetAllocs = 3

// TestReplicatedSetCost is the tier-1 guard on what a replicated write
// costs in frames and allocations: a Set on a two-replica group is one
// frame in each direction on the client's link and one frame, pusher to
// peer, on the push link — the Ping that opened it aside, the peer never
// writes. Both links run through counting relays, which allocate nothing
// per frame. The benchmark ledger gates the same as catalog_mix
// io_syscalls_per_op and allocs_per_op.
func TestReplicatedSetCost(t *testing.T) {
	const n = 2000
	rc := startChain(t, [][]int{{}, {0}})
	push := startFrameRelay(t, rc[1].Addr())
	rc[0].SetPeers(push.Addr())
	front := startFrameRelay(t, rc[0].Addr())
	c := NewClient([]string{front.Addr()}, nil)
	defer c.Close()

	ctx := context.Background()
	vals := [2]string{"v0", "v1"}
	sets := 0
	set := func() {
		sets++
		if err := c.Set(ctx, "urn:alloc", "k", vals[sets&1]); err != nil {
			t.Fatal(err)
		}
	}
	settle := func() {
		testutil.WaitFor(t, 5*time.Second, func() bool { return counter(rc[1], "remote_ops") == uint64(sets) },
			"replica 1 did not receive every op")
	}
	for j := 0; j < 200; j++ { // dials, the shard-map bootstrap, the push link's Ping, pools
		set()
	}
	settle()
	before := sets
	upC, downC := front.up.frames.Load(), front.down.frames.Load()
	upP, downP := push.up.frames.Load(), push.down.frames.Load()

	if testutil.RaceEnabled {
		for j := 0; j < n; j++ {
			set()
		}
	} else if got := testing.AllocsPerRun(n, set); got > maxReplicatedSetAllocs {
		t.Errorf("a replicated Set costs %.1f allocations end to end, want ≤ %d", got, maxReplicatedSetAllocs)
	} else {
		t.Logf("replicated Set: %.1f allocations", got)
	}
	settle()
	did := int64(sets - before)

	if up, down := front.up.frames.Load()-upC, front.down.frames.Load()-downC; up != did || down != did {
		t.Errorf("client link: %d frames up, %d down for %d Sets; want one each way per Set", up, down, did)
	}
	// A Set the pusher had not yet taken when the next one arrived
	// shares its frame: never more than one frame per Set, and one op.
	up, down := push.up.frames.Load()-upP, push.down.frames.Load()-downP
	if up == 0 || up > did || down != 0 {
		t.Errorf("push link: %d frames pusher → peer, %d back for %d Sets; want at most one per Set and none back", up, down, did)
	}
	t.Logf("%.3f push frames per Set", float64(up)/float64(did))
	if got := counter(rc[0], "apply_ops_sent"); got != uint64(sets) {
		t.Errorf("%d ops pushed for %d Sets", got, sets)
	}
	if got := counter(rc[0], "applies_received") + counter(rc[1], "applies_sent"); got != 0 {
		t.Errorf("%d Apply frames went from replica 1 to replica 0: a push was echoed", got)
	}
	if f := rc[0].PushFailures() + rc[1].PushFailures(); f != 0 {
		t.Errorf("%d push failures", f)
	}
}

// settledHeap returns the live heap after two collections: the second
// frees what the first one's finalizers and sweep let go.
func settledHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// maxBytesPerURI bounds what a replica keeps per once-overwritten
// single-attribute URN, log compacted away: the map slot, the key's
// bytes, one 72-byte entry and its value. Measured: 250 every way; with
// 136-byte Assertions as entries and a map log 346 (287 loaded from a
// file), with a map per URI 879.
const maxBytesPerURI = 260

// checkBytesPerURI fails the test if st, built since the heap read
// `before`, holds more than maxBytesPerURI bytes for each of its uris.
func checkBytesPerURI(t *testing.T, what string, st *Store, before uint64, uris int) {
	t.Helper()
	st.Compact(0)
	per := float64(settledHeap()-before) / float64(uris)
	runtime.KeepAlive(st)
	if got, _, _ := st.Stats(); got != uris {
		t.Fatalf("%s holds %d URIs, want %d", what, got, uris)
	}
	if per > maxBytesPerURI {
		t.Errorf("%s: %.0f B per URI, want ≤ %d", what, per, maxBytesPerURI)
	} else {
		t.Logf("%s: %.0f B per URI", what, per)
	}
}

// TestStoreBytesPerURI is the tier-1 guard on what a URN costs to hold,
// on the three ways an entry gets into a store, every string as the wire
// decoders produce it: a client's Set decoded as the server's dispatch does (replica 0
// of the ledger's catalog_mix, whose URNs and values these are), the
// pushed op decoded by DecodeAssertion into ApplyRemote (replica 1, where
// the origin too is a decoded string), and a snapshot file read by
// LoadStore. Every URN is written twice, so an entry that kept the
// strings of the write it replaced would show. The benchmark ledger gates
// the same as catalog_mix live_heap_mb.
func TestStoreBytesPerURI(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("the race detector's shadow memory is counted as the program's")
	}
	const uris = 20000
	req := xdr.NewEncoder(256)
	pushes := xdr.NewEncoder(2 * uris * 128) // every op as pushed, allocated before the first reading

	before := settledHeap()
	local := NewStore("rc0")
	for _, state := range []string{"running", "blocked"} {
		for k := 0; k < uris; k++ {
			req.Reset()
			req.PutString(fmt.Sprintf("urn:snipe:process:node%04d/task%05d", k/64, k))
			req.PutString(AttrState)
			req.PutString(state)
			d := xdr.NewDecoder(req.Bytes()) // as Server.dispatchURI reads a Set
			uri, _ := d.BytesMax(maxWireURI)
			name, _ := decodeName(d)
			value, err := d.StringMax(maxWireValue)
			if err != nil {
				t.Fatal(err)
			}
			op := local.Set(local.key(uri), name, value)
			op.Encode(pushes)
		}
	}
	checkBytesPerURI(t, "Set", local, before, uris)

	before = settledHeap()
	remote := NewStore("rc1")
	for d := xdr.NewDecoder(pushes.Bytes()); d.Remaining() > 0; {
		op, err := DecodeAssertion(d)
		if err != nil {
			t.Fatal(err)
		}
		remote.ApplyRemote([]Assertion{op})
	}
	checkBytesPerURI(t, "ApplyRemote", remote, before, uris)

	before = settledHeap()
	loaded := func() *Store {
		var file bytes.Buffer
		if err := local.SaveTo(&file); err != nil {
			t.Fatal(err)
		}
		st, err := LoadStore(&file)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}()
	checkBytesPerURI(t, "LoadStore", loaded, before, uris)

	if h := local.ContentHash(); remote.ContentHash() != h || loaded.ContentHash() != h {
		t.Error("the replica or the loaded store holds other entries than the store they came from")
	}
	runtime.KeepAlive(pushes) // or the replica's reading would be less the ops it was fed
}
