package rcds

import (
	"context"
	"testing"

	"snipe/internal/testutil"
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
