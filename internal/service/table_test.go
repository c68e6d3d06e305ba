package service

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"snipe/internal/comm"
	"snipe/internal/naming"
	"snipe/internal/rcds"
	"snipe/internal/testutil"
)

// countingCatalog counts every catalog read made through it. It hides
// whatever change-notification face the wrapped catalog has, so a client
// over it falls back to polling; pushCatalog puts the store's back.
type countingCatalog struct {
	naming.Catalog
	reads atomic.Int64
	// block, when set, parks every Values call until it is closed.
	block atomic.Pointer[chan struct{}]
}

func (c *countingCatalog) Values(uri, name string) ([]string, error) {
	c.reads.Add(1)
	if ch := c.block.Load(); ch != nil {
		<-*ch
	}
	return c.Catalog.Values(uri, name)
}

func (c *countingCatalog) FirstValue(uri, name string) (string, bool, error) {
	c.reads.Add(1)
	return c.Catalog.FirstValue(uri, name)
}

func (c *countingCatalog) URIs(prefix string) ([]string, error) {
	c.reads.Add(1)
	return c.Catalog.URIs(prefix)
}

// pushCatalog is a countingCatalog that forwards the wrapped store's
// Subscribe face, counting nothing for it: a subscription is not a read.
type pushCatalog struct {
	*countingCatalog
	subscribed atomic.Bool
}

type subscriber interface {
	Subscribe(prefix string, ch chan rcds.Event) int
	Unsubscribe(id int)
}

func (p *pushCatalog) Subscribe(prefix string, ch chan rcds.Event) int {
	defer p.subscribed.Store(true)
	return p.Catalog.(subscriber).Subscribe(prefix, ch)
}

func (p *pushCatalog) Unsubscribe(id int) { p.Catalog.(subscriber).Unsubscribe(id) }

func counter(c *Client, name string) uint64 { return c.MetricsSnapshot().Counters[name] }

// callTag makes one call and returns the tag of the replica that answered.
func callTag(t *testing.T, cli *Client) string {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	resp, err := cli.Call(ctx, "echo", []byte("q"))
	if err != nil {
		t.Fatalf("call failed: %v", err)
	}
	tag, _, ok := strings.Cut(string(resp), ":")
	if !ok {
		t.Fatalf("bad response %q", resp)
	}
	return tag
}

// testTableFollowsCatalog drives one client through a replica joining and
// another leaving, with no call allowed to fail or to wait for a refresh:
// the table alone has to keep up. quiet says the catalog pushes its
// changes, so between changes the client must not read it at all.
func testTableFollowsCatalog(t *testing.T, w *world, cat naming.Catalog, count *countingCatalog, poll time.Duration, quiet bool) {
	srvA, _ := w.echoReplica("tbl", "ha", "a", nil)
	cli, err := newClient(ClientConfig{
		Service: "tbl", Catalog: cat, Endpoint: w.endpoint(naming.ProcessURN("cli", "tbl")),
	}, poll)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	if quiet {
		// Warm up: the first call fills the empty table, the watch coming
		// into place costs one more read, and then the catalog goes quiet.
		waitFor(t, 5*time.Second, func() bool {
			before := count.reads.Load()
			for i := 0; i < 20; i++ {
				callTag(t, cli)
			}
			return cat.(*pushCatalog).subscribed.Load() && count.reads.Load() == before
		}, "the client never stopped reading the catalog")
		reads, refreshes := count.reads.Load(), counter(cli, "table_refreshes")
		for i := 0; i < 1000; i++ {
			if tag := callTag(t, cli); tag != "a" {
				t.Fatalf("call %d answered by %q", i, tag)
			}
		}
		if got := count.reads.Load() - reads; got != 0 {
			t.Fatalf("1000 calls made %d catalog reads, want 0", got)
		}
		if got := counter(cli, "table_refreshes") - refreshes; got != 0 {
			t.Fatalf("1000 calls refreshed the table %d times, want 0", got)
		}
	} else {
		callTag(t, cli)
		start, refreshes := time.Now(), counter(cli, "table_refreshes")
		for i := 0; i < 1000; i++ {
			callTag(t, cli)
		}
		ticks := uint64(time.Since(start)/poll) + 2
		if got := counter(cli, "table_refreshes") - refreshes; got > ticks {
			t.Fatalf("1000 calls refreshed the table %d times in %d poll intervals", got, ticks)
		}
	}

	// A replica joins: one notification, one refresh, and it is in rotation.
	refreshes := counter(cli, "table_refreshes")
	srvB, _ := w.echoReplica("tbl", "hb", "b", nil)
	waitFor(t, 5*time.Second, func() bool {
		callTag(t, cli)
		cands, err := cli.Candidates()
		return err == nil && slices.Contains(cands, srvB.URN())
	}, "the replica that joined never entered the table")
	if got := counter(cli, "table_refreshes") - refreshes; quiet && got != 1 {
		t.Fatalf("one replica joining cost %d refreshes, want 1", got)
	}

	// The other leaves the group, still serving: calls move to the newcomer
	// once the table has caught up, and none fails on the way.
	refreshes = counter(cli, "table_refreshes")
	if err := w.cat.Remove(cli.ServiceURI(), rcds.AttrServiceReplica, srvA.URN()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return callTag(t, cli) == "b" },
		"the replica that joined never served a call")
	for i := 0; i < 50; i++ {
		if tag := callTag(t, cli); tag != "b" {
			t.Fatalf("withdrawn replica %q still picked", tag)
		}
	}
	if got := counter(cli, "table_refreshes") - refreshes; quiet && got != 1 {
		t.Fatalf("one replica leaving cost %d refreshes, want 1", got)
	}
	if got := counter(cli, "table_refreshes_sync"); got != 1 {
		t.Fatalf("%d calls waited for a refresh, want only the first", got)
	}
	if calls, attempts := counter(cli, "calls"), counter(cli, "attempts"); calls != attempts {
		t.Fatalf("%d attempts for %d calls: some attempt failed", attempts, calls)
	}
}

// TestCallReadsNoCatalog: over a catalog that pushes its changes, a
// warmed-up client makes no catalog call at all on the steady path, and
// membership changes reach it through one notification each.
func TestCallReadsNoCatalog(t *testing.T) {
	w := newWorld(t)
	count := &countingCatalog{Catalog: w.cat}
	testTableFollowsCatalog(t, w, &pushCatalog{countingCatalog: count}, count, time.Hour, true)
}

// TestCallPollsCatalogWithoutAFace: over a catalog with no notification
// face the table is re-read once per poll interval, however many calls
// that interval carries, and membership changes reach it the same way.
func TestCallPollsCatalogWithoutAFace(t *testing.T) {
	w := newWorld(t)
	count := &countingCatalog{Catalog: w.cat}
	testTableFollowsCatalog(t, w, count, count, 20*time.Millisecond, false)
}

// TestRefreshCoalesces: however many notifications arrive while one
// background refresh is stuck in the catalog, calls keep being served from
// the table as it is, and the burst costs one more refresh, not one each.
func TestRefreshCoalesces(t *testing.T) {
	w := newWorld(t)
	w.echoReplica("burst", "ha", "a", nil)
	count := &countingCatalog{Catalog: w.cat}
	cli, err := newClient(ClientConfig{
		Service: "burst", Catalog: count, Endpoint: w.endpoint(naming.ProcessURN("cli", "burst")),
	}, time.Hour) // no face and no tick: the test is the only source of notifications
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	callTag(t, cli)
	if got := counter(cli, "table_refreshes"); got != 1 {
		t.Fatalf("%d refreshes after the first call, want 1", got)
	}

	gate := make(chan struct{})
	count.block.Store(&gate)
	for i := 0; i < 1000; i++ {
		cli.markStale()
		callTag(t, cli)
	}
	if got := counter(cli, "table_refreshes"); got != 2 {
		t.Fatalf("%d refreshes with one stuck in the catalog, want 2", got)
	}
	count.block.Store(nil)
	close(gate)
	waitFor(t, 5*time.Second, func() bool {
		cli.mu.Lock()
		defer cli.mu.Unlock()
		return !cli.refreshing
	}, "the stuck refresh never finished")
	for i := 0; i < 100; i++ {
		callTag(t, cli)
	}
	waitFor(t, 5*time.Second, func() bool {
		cli.mu.Lock()
		defer cli.mu.Unlock()
		return !cli.refreshing
	}, "the follow-up refresh never finished")
	if got := counter(cli, "table_refreshes"); got != 3 {
		t.Fatalf("%d refreshes after the burst, want 3: the stuck one and one more", got)
	}
	if got := counter(cli, "table_refreshes_sync"); got != 1 {
		t.Fatalf("%d calls waited for a refresh, want only the first", got)
	}
}

// TestCallAllocs is the tier-1 guard on the unary call path: one warmed
// 256 B → 4 KiB Call over TCP loopback to a group of three replicas —
// pick, open, write, half-close, the handler's read and answer, read to
// EOF — costs at most 30 heap allocations and 8 KiB, both ends counted
// (27 and ~7,520 B measured; 35 and ~7,870 B while every burst of frames
// started a flusher goroutine and every wait of a mux's receive loop
// registered a context watcher). The benchmark ledger gates the same
// numbers on its service_call workload.
func TestCallAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("the race detector's shadow allocations are counted as the program's")
	}
	w := newWorld(t)
	answer := make([]byte, 4<<10)
	for _, host := range []string{"h1", "h2", "h3"} {
		srv, err := NewServer(ServerConfig{
			Name: "alloc", Catalog: w.cat, Endpoint: w.endpoint(naming.ProcessURN(host, "alloc")),
		})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		srv.Handle("echo", func(ctx context.Context, st *comm.Stream) error {
			if _, err := readAll(ctx, st); err != nil {
				return err
			}
			return st.Write(ctx, answer)
		})
	}
	cli, err := NewClient(ClientConfig{
		Service: "alloc", Catalog: w.cat, Endpoint: w.endpoint(naming.ProcessURN("cli", "alloc")),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	ctx := context.Background()
	req := make([]byte, 256)
	op := func() {
		resp, err := cli.Call(ctx, "echo", req)
		if err != nil || !bytes.Equal(resp, answer) {
			t.Fatalf("call: %d bytes, %v", len(resp), err)
		}
	}
	for i := 0; i < 500; i++ { // dial, hello, pools, the table and its follow-up refresh
		op()
	}
	if got := testing.AllocsPerRun(2000, op); got > 30 {
		t.Errorf("256 B → 4 KiB Call costs %.1f allocations, want ≤ 30", got)
	} else {
		t.Logf("256 B → 4 KiB Call: %.1f allocations", got)
	}
	// Bytes: the request is copied once into the send buffer and the
	// response once out of the frame buffer, and the caller gets that
	// second copy itself. A further copy of the response would show as
	// 4 KiB more.
	// TotalAlloc is the whole process's, and whatever else runs in it
	// (table refreshes, timers, goroutines of earlier tests winding down)
	// can only add: the least of a few rounds is the call's own.
	const rounds, calls = 5, 400
	least := ^uint64(0)
	for r := 0; r < rounds; r++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < calls; i++ {
			op()
		}
		runtime.ReadMemStats(&after)
		least = min(least, (after.TotalAlloc-before.TotalAlloc)/calls)
	}
	if least > 8<<10 {
		t.Errorf("256 B → 4 KiB Call allocates %d bytes, want ≤ %d", least, 8<<10)
	} else {
		t.Logf("256 B → 4 KiB Call: %d bytes allocated", least)
	}
}

// TestCallJoinsResponseChunks: a response the handler wrote in two
// pieces reaches the caller whole and in order, and a response of one
// piece comes back with no capacity beyond its length — it is a window
// into the message that carried it, and an append by the caller must
// not write into what lies behind it.
func TestCallJoinsResponseChunks(t *testing.T) {
	w := newWorld(t)
	answer := make([]byte, 4<<10)
	for i := range answer {
		answer[i] = byte(i * 7)
	}
	srv, err := NewServer(ServerConfig{
		Name: "chunks", Catalog: w.cat, Endpoint: w.endpoint(naming.ProcessURN("h1", "chunks")),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Handle("split", func(ctx context.Context, st *comm.Stream) error {
		req, err := readAll(ctx, st)
		if err != nil {
			return err
		}
		cut := int(req[0]) * 16
		if cut > 0 {
			if err := st.Write(ctx, answer[:cut]); err != nil {
				return err
			}
		}
		return st.Write(ctx, answer[cut:])
	})
	cli, err := NewClient(ClientConfig{
		Service: "chunks", Catalog: w.cat, Endpoint: w.endpoint(naming.ProcessURN("cli", "chunks")),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, cut := range []byte{0, 1, 100, 255} {
		resp, err := cli.Call(ctx, "split", []byte{cut})
		if err != nil || !bytes.Equal(resp, answer) {
			t.Fatalf("response cut at %d: %d bytes, %v", int(cut)*16, len(resp), err)
		}
		if cut == 0 && cap(resp) != len(resp) {
			t.Fatalf("one-chunk response has capacity %d beyond its %d bytes", cap(resp), len(resp))
		}
	}
}

// TestTableFollowsServiceURNInAnotherShard: under shard routing the
// service URN's replica group need not be the seed group, whose version
// stream is the only one a plain Wait follows. A replica that registers
// there must still reach the table by notification — without a call
// having to fail first.
func TestTableFollowsServiceURNInAnotherShard(t *testing.T) {
	// Two single-replica groups under one shard map.
	m := &rcds.ShardMap{Epoch: 1}
	var servers []*rcds.Server
	for g := 0; g < 2; g++ {
		srv := rcds.NewServer(rcds.NewStore(fmt.Sprintf("g%d", g)))
		if err := srv.Start("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close) // after the replicas and endpoints, which withdraw from it
		servers = append(servers, srv)
		m.Groups = append(m.Groups, []string{srv.Addr()})
	}
	for g, srv := range servers {
		srv.SetShard(g, m)
	}
	if err := rcds.PublishShardMap(context.Background(), m, nil); err != nil {
		t.Fatal(err)
	}
	rc := rcds.NewClient(m.Groups[0], nil, rcds.WithReadCache())
	t.Cleanup(rc.Close)
	w := &world{t: t, cat: naming.ClientCatalog(rc)}

	// A service whose URN group 1 owns.
	var svc string
	for i := 0; ; i++ {
		if svc = fmt.Sprintf("far%d", i); m.Owner(naming.ServiceURN(svc)) == 1 {
			break
		}
	}
	w.echoReplica(svc, "ha", "a", nil)
	cli, err := NewClient(ClientConfig{
		Service: svc, Catalog: w.cat, Endpoint: w.endpoint(naming.ProcessURN("cli", svc)),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	callTag(t, cli)

	srvB, _ := w.echoReplica(svc, "hb", "b", nil)
	waitFor(t, 5*time.Second, func() bool {
		callTag(t, cli)
		cands, err := cli.Candidates()
		return err == nil && slices.Contains(cands, srvB.URN())
	}, "a replica registered in a non-seed group never entered the table")
	if got := counter(cli, "table_refreshes_sync"); got != 1 {
		t.Fatalf("%d calls waited for a refresh, want only the first", got)
	}
	if calls, attempts := counter(cli, "calls"), counter(cli, "attempts"); calls != attempts {
		t.Fatalf("%d attempts for %d calls: some attempt failed", attempts, calls)
	}
}
