package naming

import (
	"context"
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"snipe/internal/rcds"
	"snipe/internal/testutil"
)

// startWatch runs Watch on its own goroutine and returns the number of
// notifications so far; the test's cleanup ends the watch and waits for
// Watch to return.
func startWatch(t *testing.T, cat Catalog, uri string, poll time.Duration, changed func()) *atomic.Int64 {
	t.Helper()
	var n atomic.Int64
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		Watch(ctx, cat, uri, poll, func() {
			if changed != nil {
				changed()
			}
			n.Add(1)
		})
	}()
	t.Cleanup(func() {
		cancel()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Error("Watch did not return when its context ended")
		}
	})
	return &n
}

// cachedClient starts one RC server and returns a client of it with the
// read cache on; both close after the watches startWatch started.
func cachedClient(t *testing.T) *rcds.Client {
	t.Helper()
	srv := rcds.NewServer(rcds.NewStore("rc0"))
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	c := rcds.NewClient([]string{srv.Addr()}, nil, rcds.WithReadCache())
	t.Cleanup(c.Close)
	return c
}

func waitCount(t *testing.T, n *atomic.Int64, want int64, msg string) {
	t.Helper()
	testutil.WaitFor(t, 5*time.Second, func() bool { return n.Load() >= want }, msg)
}

// TestWatchStoreSubscription: over an in-process store Watch rides the
// push subscription — one notification when it is in place, one per
// write under the URI, none for a write elsewhere.
func TestWatchStoreSubscription(t *testing.T) {
	cat := StoreCatalog(rcds.NewStore("watch"))
	uri := ServiceURN("w")
	n := startWatch(t, cat, uri, time.Hour, nil)
	waitCount(t, n, 1, "no notification that the watch is in place")

	cat.Add(uri, rcds.AttrServiceReplica, "urn:r1")
	waitCount(t, n, 2, "a write under the watched URI was not reported")
	cat.Set(HostURL("elsewhere"), rcds.AttrLoad, "1")
	cat.Remove(uri, rcds.AttrServiceReplica, "urn:r1")
	waitCount(t, n, 3, "a removal under the watched URI was not reported")
	if got := n.Load(); got != 3 {
		t.Fatalf("%d notifications, want 3: the write to another URI was reported", got)
	}
}

// TestWatchLongPollReadsSeeTheChange: over a remote client Watch rides
// the version long-poll, and a read made from the callback is not
// answered from the client's read cache as it was before the change —
// the one notification a write gets is the only chance to see it.
func TestWatchLongPollReadsSeeTheChange(t *testing.T) {
	c := cachedClient(t)
	writer := rcds.NewClient(c.Servers(), nil)
	defer writer.Close()
	cat := ClientCatalog(c)
	uri := ServiceURN("lp")
	// A long-poll on a catalog nobody ever wrote to has no version to
	// return until its window ends.
	if err := cat.Set(HostURL("lp"), rcds.AttrLoad, "0"); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var seen []string
	n := startWatch(t, cat, uri, time.Hour, func() {
		vals, _ := cat.Values(uri, rcds.AttrServiceReplica)
		mu.Lock()
		seen = vals
		mu.Unlock()
	})
	waitCount(t, n, 1, "no notification that the watch is in place")

	for i, v := range []string{"urn:r1", "urn:r2", "urn:r3"} {
		// Warm the cache with the value about to go stale.
		testutil.WaitFor(t, 5*time.Second, func() bool {
			before := c.MetricsSnapshot().Counters["cache_hits"]
			cat.Values(uri, rcds.AttrServiceReplica)
			return c.MetricsSnapshot().Counters["cache_hits"] > before
		}, "read cache never served the watched URI")
		if err := writer.Add(context.Background(), uri, rcds.AttrServiceReplica, v); err != nil {
			t.Fatal(err)
		}
		waitCount(t, n, int64(i+2), "a remote write was not reported")
		mu.Lock()
		got := slices.Clone(seen)
		mu.Unlock()
		if !slices.Contains(got, v) {
			t.Fatalf("the read made on notification of %s saw %v", v, got)
		}
	}
}

// TestWatchPollsWithoutAFace: a catalog that offers neither a
// subscription nor a long-poll is reported changed on every tick.
func TestWatchPollsWithoutAFace(t *testing.T) {
	cat := GatedCatalog(StoreCatalog(rcds.NewStore("gated")), func() error { return nil })
	n := startWatch(t, cat, ServiceURN("p"), 2*time.Millisecond, nil)
	waitCount(t, n, 3, "the poll face never ticked")
}

// TestClientCatalogWarmReadAllocs: a read the client's cache answers
// costs the copy handed to the caller and nothing else — no deadline
// context, no timer — and every read, hit or miss, is still counted once.
func TestClientCatalogWarmReadAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("the race detector's shadow allocations are counted as the program's")
	}
	c := cachedClient(t)
	cat := ClientCatalog(c)
	uri := HostURL("warm")
	if err := cat.Add(uri, rcds.AttrCommAddr, "tcp://127.0.0.1:1"); err != nil {
		t.Fatal(err)
	}
	if err := cat.Set(uri, rcds.AttrLoad, "0.5"); err != nil {
		t.Fatal(err)
	}
	readsOf := func(c *rcds.Client) uint64 {
		cs := c.MetricsSnapshot().Counters
		return cs["cache_hits"] + cs["cache_misses"]
	}
	reads := func() uint64 { return readsOf(c) }
	hits := func() uint64 { return c.MetricsSnapshot().Counters["cache_hits"] }

	// Reads are misses until the cache's watch has confirmed coherence;
	// each is counted once all the same.
	issued, start := uint64(0), reads()
	testutil.WaitFor(t, 5*time.Second, func() bool {
		before := hits()
		cat.Values(uri, rcds.AttrCommAddr)
		cat.FirstValue(uri, rcds.AttrLoad)
		issued += 2
		return hits() == before+2
	}, "reads never became cache hits")
	if got := reads() - start; got != issued {
		t.Fatalf("%d reads counted for %d issued across the warm-up", got, issued)
	}

	start = reads()
	if got := testing.AllocsPerRun(200, func() {
		if vals, err := cat.Values(uri, rcds.AttrCommAddr); err != nil || len(vals) != 1 {
			t.Fatalf("Values: %v, %v", vals, err)
		}
	}); got > 1 {
		t.Errorf("a warm Values costs %.1f allocations, want ≤ 1", got)
	}
	if got := testing.AllocsPerRun(200, func() {
		if v, ok, err := cat.FirstValue(uri, rcds.AttrLoad); err != nil || !ok || v != "0.5" {
			t.Fatalf("FirstValue: %q, %v, %v", v, ok, err)
		}
	}); got > 0 {
		t.Errorf("a warm FirstValue costs %.1f allocations, want 0", got)
	}
	if got := reads() - start; got != 402 { // AllocsPerRun makes one warm-up call
		t.Fatalf("%d reads counted for 402 issued", got)
	}

	// A miss still goes out under the client's deadline, and one that
	// fails under it is counted once all the same. The timeout is fixed
	// at construction, so this client's first call is spent failing to
	// resolve the shard map — no read yet; the second is routed, misses
	// and expires.
	hurried := rcds.NewClient(c.Servers(), nil, rcds.WithReadCache(), rcds.WithTimeout(time.Nanosecond))
	defer hurried.Close()
	cold := ClientCatalog(hurried)
	if _, err := cold.Values(HostURL("cold"), rcds.AttrLoad); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("routing under a 1 ns timeout: %v, want deadline exceeded", err)
	}
	start = readsOf(hurried)
	if _, err := cold.Values(HostURL("cold"), rcds.AttrLoad); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("a miss under a 1 ns timeout: %v, want deadline exceeded", err)
	}
	if got := readsOf(hurried) - start; got != 1 {
		t.Fatalf("%d reads counted for one miss", got)
	}
}
