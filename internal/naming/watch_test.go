package naming

import (
	"context"
	"errors"
	"fmt"
	"runtime"
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
func startWatch(t *testing.T, cat Catalog, uri string, changed func()) *atomic.Int64 {
	t.Helper()
	var n atomic.Int64
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		Watch(ctx, cat, uri, func() {
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
	n := startWatch(t, cat, uri, nil)
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
// the client's subscription, which its group's long-poll signals after
// flushing the read cache, so a read made from the callback is not
// answered from the cache as it was before the change — the one
// notification a write gets is the only chance to see it.
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
	n := startWatch(t, cat, uri, func() {
		vals, _ := cat.Values(uri, rcds.AttrServiceReplica)
		mu.Lock()
		seen = vals
		mu.Unlock()
	})
	waitCount(t, n, 1, "no notification that the watch is in place")

	for _, v := range []string{"urn:r1", "urn:r2", "urn:r3"} {
		// Warm the cache with the value about to go stale.
		testutil.WaitFor(t, 5*time.Second, func() bool {
			before := c.MetricsSnapshot().Counters["cache_hits"]
			cat.Values(uri, rcds.AttrServiceReplica)
			return c.MetricsSnapshot().Counters["cache_hits"] > before
		}, "read cache never served the watched URI")
		if err := writer.Add(context.Background(), uri, rcds.AttrServiceReplica, v); err != nil {
			t.Fatal(err)
		}
		// The group's first good poll may signal once more than the
		// writes do, so the wake-up is awaited by what its read saw.
		testutil.WaitFor(t, 5*time.Second, func() bool {
			mu.Lock()
			defer mu.Unlock()
			return slices.Contains(seen, v)
		}, "a remote write was not reported, or the read made on its notification missed it")
	}
}

// requests counts the client's requests to its servers.
func requests(c *rcds.Client) uint64 { return c.MetricsSnapshot().Counters["requests"] }

// TestWatchesShareOneLongPoll: four watches over one caching client add
// no long-poll of their own. The server keeps one parked Wait — the
// client's watch of its group — and holds no goroutine beyond the
// watchers', and a quiet 4.1 s window costs the one loop's polls, one
// per 2 s window.
func TestWatchesShareOneLongPoll(t *testing.T) {
	c := cachedClient(t)
	cat := ClientCatalog(c)
	uri := HostURL("quiet")
	if err := cat.Set(uri, rcds.AttrLoad, "0"); err != nil {
		t.Fatal(err)
	}
	// A cache hit says the group's watch has polled, and parked, once.
	testutil.WaitFor(t, 5*time.Second, func() bool {
		before := c.MetricsSnapshot().Counters["cache_hits"]
		cat.FirstValue(uri, rcds.AttrLoad)
		return c.MetricsSnapshot().Counters["cache_hits"] > before
	}, "read cache never served")
	base := runtime.NumGoroutine()

	const watches = 4
	for i := 0; i < watches; i++ {
		n := startWatch(t, cat, ServiceURN(fmt.Sprint("quiet", i)), nil)
		waitCount(t, n, 1, "no notification that the watch is in place")
	}
	testutil.WaitFor(t, 2*time.Second, func() bool { return runtime.NumGoroutine()-base <= watches },
		"the watches hold goroutines beyond their own: a parked Wait each")

	start := requests(c)
	time.Sleep(4100 * time.Millisecond)
	// Two poll windows, and a third poll that may start at the edge.
	if got := requests(c) - start; got > 3 {
		t.Fatalf("%d watches cost %d requests in a quiet 4.1 s, want ≤ 3", watches, got)
	}
}

// TestClosedClientWatchIsSilent: a watch over a client that has closed
// waits for its context and sends nothing meanwhile.
func TestClosedClientWatchIsSilent(t *testing.T) {
	c := cachedClient(t)
	cat := ClientCatalog(c)
	n := startWatch(t, cat, ServiceURN("closed"), nil)
	waitCount(t, n, 1, "no notification that the watch is in place")
	c.Close()
	start := requests(c)
	time.Sleep(500 * time.Millisecond)
	if got := requests(c) - start; got != 0 {
		t.Fatalf("a watch over a closed client issued %d requests in 500 ms, want 0", got)
	}
}

// TestClientCatalogWarmReadAllocs: a read the client's cache answers
// costs the copy handed to the caller and nothing else — no deadline
// context, no timer — and every read, hit or miss, is still counted once.
// The route stamp costs nothing at all.
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
	// Every transmission reads the route stamp: it costs nothing.
	r := NewResolver(cat)
	if got := testing.AllocsPerRun(200, func() {
		if _, ok := r.RouteStamp(uri); !ok {
			t.Fatal("no route stamp over a warm cache")
		}
	}); got > 0 {
		t.Errorf("RouteStamp costs %.1f allocations, want 0", got)
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
