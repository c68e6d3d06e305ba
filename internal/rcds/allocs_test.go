package rcds

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"testing"

	"snipe/internal/testutil"
	"snipe/internal/xdr"
)

// TestClientRoutedOpAllocs is the tier-1 guard on the always-routed
// client path: against a one-group server with no shard map published,
// a warmed Set and an uncached FirstValue cost what they cost before
// every client routed by shard map — client and server both counted,
// since AllocsPerRun reads the process-wide counter. The benchmark
// ledger gates the same path as catalog_mix allocs_per_op.
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
	for j := 0; j < 200; j++ { // dial, the shard-map bootstrap, pools
		set()
		first()
	}
	// Bounds are the counts measured at the last commit whose default
	// client skipped the routed path.
	for _, tc := range []struct {
		name  string
		op    func()
		bound float64
	}{
		{"Set", set, 15},
		{"FirstValue", first, 11},
	} {
		if got := testing.AllocsPerRun(2000, tc.op); got > tc.bound {
			t.Errorf("%s costs %.1f allocations, want ≤ %.0f", tc.name, got, tc.bound)
		} else {
			t.Logf("%s: %.1f allocations", tc.name, got)
		}
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
// bytes, one entry and its value. The map-per-URI layout measured 879.
const maxBytesPerURI = 400

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
// decoders produce it: a client's Set decoded by decodeTriple (replica 0
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
			uri, name, value, err := decodeTriple(xdr.NewDecoder(req.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			for _, op := range local.Set(uri, name, value) {
				op.Encode(pushes)
			}
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
