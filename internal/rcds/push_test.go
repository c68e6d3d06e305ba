package rcds

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"snipe/internal/testutil"
)

// startChain launches one RC server per entry of links: links[i] lists
// the servers that server i pushes to, and pulls from when a push link
// opens. It returns once the pulls the opening links started are served,
// so that a test which counts what crosses a link sees pushes alone.
func startChain(t *testing.T, links [][]int) []*Server {
	t.Helper()
	servers := make([]*Server, len(links))
	for i := range servers {
		servers[i] = NewServer(NewStore(fmt.Sprintf("rc%d", i)))
		if err := servers[i].Start("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
	}
	for i, to := range links {
		var peers []string
		for _, j := range to {
			peers = append(peers, servers[j].Addr())
		}
		servers[i].SetPeers(peers...)
	}
	t.Cleanup(func() {
		for _, s := range servers {
			s.Close()
		}
	})
	testutil.WaitFor(t, 5*time.Second, func() bool { return linksOpen(servers) }, "the push links did not open")
	pullsSettle(t, servers, func(i int) int { return len(links[i]) })
	return servers
}

// linksOpen reports whether every pusher of servers has opened its link
// and learnt its peer's origin, which it does before it starts the pulls
// of a new link.
func linksOpen(servers []*Server) bool {
	for _, s := range servers {
		s.mu.Lock()
		s.store.mu.Lock()
		open := !slices.ContainsFunc(s.pushers, func(p *pusher) bool { return p.w.peer == "" })
		s.store.mu.Unlock()
		s.mu.Unlock()
		if !open {
			return false
		}
	}
	return true
}

// pullsSettle waits until each of servers, which pull from none but each
// other, has made at least least(i) pulls, every pull made is served, and
// no pull has begun for 100 ms: the pulls that opening links start come
// in passes, one after another, as the links open.
func pullsSettle(t *testing.T, servers []*Server, least func(i int) int) {
	t.Helper()
	var last uint64
	var since time.Time
	testutil.WaitFor(t, 5*time.Second, func() bool {
		var pulls, served uint64
		done := true
		for i, s := range servers {
			done = done && counter(s, "pulls") >= uint64(least(i))
			pulls, served = pulls+counter(s, "pulls"), served+counter(s, "tail_pulls_served")
		}
		if !done || served != pulls || pulls != last {
			last, since = pulls, time.Now()
			return false
		}
		return time.Since(since) >= 100*time.Millisecond
	}, "the servers did not pull from their new peers")
}

func counter(s *Server, name string) uint64 {
	return s.Store().Metrics().Counter(name).Value()
}

// setN writes n keys through a client on srv.
func setN(t *testing.T, srv *Server, n int) {
	t.Helper()
	c := NewClient([]string{srv.Addr()}, nil)
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := 0; i < n; i++ {
		if err := c.Set(ctx, fmt.Sprintf("urn:k%04d", i), AttrState, "running"); err != nil {
			t.Fatalf("Set %d: %v", i, err)
		}
	}
}

// TestPushIsNotEchoed: on a two-replica group a Set is one RPC and one
// one-way frame end to end — the client's, and one Apply carrying one
// op. The receiver's relay has only the sender to go to, and does not.
func TestPushIsNotEchoed(t *testing.T) {
	const n = 40
	rc := startChain(t, [][]int{{1}, {0}})
	setN(t, rc[0], n)
	// Every op reaches replica 1, and replica 0 has counted the last
	// Apply frame it wrote.
	testutil.WaitFor(t, 5*time.Second, func() bool {
		return rc[1].Store().Vector().Dominates(rc[0].Store().Vector()) && counter(rc[0], "apply_ops_sent") == n
	}, "replica 1 did not get every write")
	if got := counter(rc[1], "remote_ops"); got != n {
		t.Errorf("%d ops arrived at replica 1 for %d Sets, want one each", got, n)
	}
	if rc[1].Store().ContentHash() != rc[0].Store().ContentHash() {
		t.Error("replica 1 does not hold what replica 0 holds")
	}
	if got := counter(rc[0], "applies_received"); got != 0 {
		t.Errorf("replica 0 applied %d Apply frames; its own writes were echoed back", got)
	}
	if got := counter(rc[1], "applies_sent"); got != 0 {
		t.Errorf("replica 1 sent %d Apply frames with no write of its own", got)
	}
	sent, ops := counter(rc[0], "applies_sent"), counter(rc[0], "apply_ops_sent")
	if ops != n || sent == 0 || sent > n {
		t.Errorf("replica 0 sent %d ops in %d Apply frames for %d Sets", ops, sent, n)
	}
	t.Logf("%.2f ops per Apply", float64(ops)/float64(sent))
	if f := rc[0].PushFailures() + rc[1].PushFailures(); f != 0 {
		t.Errorf("%d push failures", f)
	}
}

// TestRelayChain: A–B–C with A and C not peers. A write at A reaches C
// through B's relay, and travels no way but forward: B does not send it
// back to A, C does not send it back to B.
func TestRelayChain(t *testing.T) {
	const n = 20
	rc := startChain(t, [][]int{{1}, {0, 2}, {1}})
	a, b, c := rc[0], rc[1], rc[2]
	setN(t, a, n)
	testutil.WaitFor(t, 5*time.Second, func() bool {
		return c.Store().Vector().Dominates(a.Store().Vector()) && counter(b, "apply_ops_sent") == n
	}, "C did not get every write through B")
	if c.Store().ContentHash() != a.Store().ContentHash() {
		t.Error("C does not hold what A wrote")
	}
	for _, srv := range []*Server{b, c} {
		if got := counter(srv, "remote_ops"); got != n {
			t.Errorf("%d ops arrived at %s, want %d: each op once, none carried back", got, srv.Store().Origin(), n)
		}
	}
	if got := counter(a, "applies_received"); got != 0 {
		t.Errorf("A applied %d Apply frames", got)
	}
	if got := counter(c, "applies_sent"); got != 0 {
		t.Errorf("C sent %d Apply frames", got)
	}
	if got := counter(b, "apply_ops_sent"); got != n {
		t.Errorf("B relayed %d ops, want %d (to C alone)", got, n)
	}
	for _, srv := range []*Server{b, c} {
		if got := counter(srv, "relay_skipped"); got != 0 {
			t.Errorf("%s's pusher towards the source read %d ops to leave them out; it was woken for them", srv.Store().Origin(), got)
		}
	}
}

// TestApplyWakesNoPusherBack: on a two-replica group, n Sets at replica 0
// arrive at replica 1 in Apply frames from replica 0, which wake none of
// replica 1's pushers: its one pusher, back to replica 0, is owed none of
// them. It never reads the log for them — no Store.owed run passes over
// one (relay_skipped) — and its mark stays where the link opened it.
func TestApplyWakesNoPusherBack(t *testing.T) {
	const n = 200
	rc := startChain(t, [][]int{{1}, {0}})
	rc[1].mu.Lock()
	back := rc[1].pushers[0]
	rc[1].mu.Unlock()
	setN(t, rc[0], n)
	testutil.WaitFor(t, 5*time.Second, func() bool {
		return rc[1].Store().Vector().Dominates(rc[0].Store().Vector())
	}, "replica 1 did not get every write")
	if got := counter(rc[1], "relay_skipped"); got != 0 {
		t.Errorf("replica 1's pusher back to replica 0 passed over %d of its ops", got)
	}
	o := slices.Index(rc[1].Store().origins, "rc0")
	rc[1].Close() // the pusher has returned: its batch is the test's to read
	if mark := back.batch.mark; o < len(mark) && mark[o] != 0 {
		t.Errorf("replica 1's pusher back to replica 0 moved its mark to seq %d of replica 0's", mark[o])
	}
}

// TestDirectStoreWriteIsPushed: a write made on a running server's Store,
// with no write behind it, reaches the peer by push within a second.
func TestDirectStoreWriteIsPushed(t *testing.T) {
	rc := startChain(t, [][]int{{1}, {0}})
	pulls := counter(rc[1], "pulls")
	rc[0].Store().Set("urn:direct", AttrState, "running")
	testutil.WaitFor(t, time.Second, func() bool {
		v, _ := rc[1].Store().FirstValue("urn:direct", AttrState)
		return v == "running"
	}, "a write made on the store directly was not pushed")
	if got := counter(rc[1], "pulls") - pulls; got != 0 {
		t.Errorf("replica 1 pulled %d times, want the push alone", got)
	}
}

// TestWriteCompactsLog: a replica of a two-replica group that compacts to
// a tail of 4,096 takes a burst of 50,000 Sets from 16 writers, with no
// Compact call and no pause. Each write that grows a log past the bound
// compacts it: whenever looked at, no origin's log holds more than 4,096
// + 64 ops at either replica. The peer keeps up by push alone: no snapshot
// page is served and no push fails. Then a write at the peer wakes its
// pusher back, whose mark for the burst lies far under its floor there:
// those ops are the replica's own, owed none, so the write goes out on the
// link as it stands — no link is opened anew, and nobody pulls.
func TestWriteCompactsLog(t *testing.T) {
	const keep, writes, writers = 4096, 50_000, 16
	var rc [2]*Server
	for i := range rc {
		rc[i] = NewServer(NewStore(fmt.Sprintf("rc%d", i)), WithLogCompaction(keep))
		if err := rc[i].Start("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(rc[i].Close)
	}
	rc[0].SetPeers(rc[1].Addr())
	rc[1].SetPeers(rc[0].Addr())
	pullsSettle(t, rc[:], func(int) int { return 1 })

	// longest is the most ops any one origin's log holds at either replica.
	longest := func() (n int) {
		for _, s := range rc {
			st := s.Store()
			st.mu.Lock()
			for _, l := range st.logs {
				n = max(n, l.n)
			}
			st.mu.Unlock()
		}
		return n
	}
	done := make(chan struct{})
	peak := make(chan int)
	go func() {
		most := 0
		for {
			select {
			case <-done:
				peak <- max(most, longest())
				return
			default:
				most = max(most, longest())
				runtime.Gosched()
			}
		}
	}()
	c := NewClient([]string{rc[0].Addr()}, nil)
	defer c.Close()
	ctx := ctxTimeout(t, "120s")
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < writes; i += writers {
				if err := c.Set(ctx, fmt.Sprintf("urn:k%05d", i), AttrState, "running"); err != nil {
					t.Errorf("Set %d: %v", i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	testutil.WaitFor(t, 10*time.Second, func() bool { return converged(rc[1], rc[0]) }, "replica 1 did not get every write")
	close(done)
	if got := <-peak; got > keep+logChunk {
		t.Errorf("an origin's log held %d ops, want at most %d", got, keep+logChunk)
	}
	if got := counter(rc[0], "log_compacted_ops"); got < writes-keep-logChunk {
		t.Errorf("replica 0 compacted %d ops of %d written", got, writes)
	}
	if got := counter(rc[0], "snapshot_pages_served") + counter(rc[1], "snapshot_pages_served"); got != 0 {
		t.Errorf("%d snapshot pages served", got)
	}
	if f := rc[0].PushFailures() + rc[1].PushFailures(); f != 0 {
		t.Errorf("%d push failures", f)
	}

	pulls := counter(rc[0], "pulls") + counter(rc[1], "pulls")
	c1 := NewClient([]string{rc[1].Addr()}, nil)
	defer c1.Close()
	setOne(t, c1, "urn:back")
	testutil.WaitFor(t, 5*time.Second, func() bool { return converged(rc[0], rc[1]) }, "the write at replica 1 did not reach replica 0")
	time.Sleep(redialBackoff + 100*time.Millisecond) // a relinked pusher would have pulled by now
	if got := counter(rc[0], "pulls") + counter(rc[1], "pulls") - pulls; got != 0 {
		t.Errorf("%d pulls after the write at replica 1, want none", got)
	}
}

// TestPusherBelowFloorReopens: one peer's pusher is held up while 4,096 +
// 64 writes go past it and the log is compacted under its mark. Writes
// keep being accepted, the other peer gets every one by push, and once the
// held pusher goes on it finds its mark under the floor and opens its link
// anew; the peer, seeing the new link, pulls, and one snapshot transfer
// brings it level. Nothing counts as a failed push.
func TestPusherBelowFloorReopens(t *testing.T) {
	const writes = 4096 + 64
	var hold atomic.Bool
	held := make(chan struct{}, 1)
	release := make(chan struct{})
	var once sync.Once
	open := func() { once.Do(func() { close(release) }) }

	start := func(s *Server) *Server {
		if err := s.Start("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		return s
	}
	rc1 := start(NewServer(NewStore("rc1")))
	rc2 := start(NewServer(NewStore("rc2")))
	rc0 := NewServer(NewStore("rc0"), WithPeers(rc1.Addr(), rc2.Addr()))
	rc0.peerGate = func(peer string) error {
		if peer == rc1.Addr() && hold.Load() {
			signal(held)
			<-release
		}
		return nil
	}
	start(rc0)
	defer open() // a failed assertion must not leave a pusher in the gate
	rc1.SetPeers(rc0.Addr())
	servers := []*Server{rc0, rc1, rc2}
	pullsSettle(t, servers, func(i int) int { return []int{2, 1, 0}[i] })

	hold.Store(true)
	c := NewClient([]string{rc0.Addr()}, nil)
	defer c.Close()
	if err := c.Set(ctxTimeout(t, "5s"), "urn:first", AttrState, "running"); err != nil {
		t.Fatal(err)
	}
	<-held // the push of the first write waits in the gate
	// setN's deadline is the "nothing blocks" check: every Set returns.
	setN(t, rc0, writes)
	testutil.WaitFor(t, 10*time.Second, func() bool { return counter(rc2, "remote_ops") == 1+writes },
		"the other peer did not get every write by push")
	if got := counter(rc1, "remote_ops"); got != 0 {
		t.Fatalf("%d ops reached the held-up peer", got)
	}
	rc0.Store().Compact(0)
	pages := counter(rc0, "snapshot_pages_served")

	open()
	testutil.WaitFor(t, 10*time.Second, func() bool { return converged(rc1, rc0) },
		"the held-up peer never caught up")
	pullsSettle(t, servers, func(int) int { return 0 })
	if got := counter(rc0, "snapshot_pages_served") - pages; got != 1 {
		t.Errorf("the held-up peer was served %d snapshot pages, want one transfer of one page", got)
	}
	if got := counter(rc1, "remote_ops"); got > 1 {
		t.Errorf("%d ops pushed or tail-pulled to the held-up peer, want the first write alone", got)
	}
	if f := rc0.PushFailures(); f != 0 {
		t.Errorf("%d push failures", f)
	}
}

// TestOwedCapsOneApply: a pusher's batch stops once its op strings pass
// maxApplyBytes, and the next one starts where it stopped: 25 writes of
// 100 KiB go out as 11, 11 and 3 ops, in seq order, none left out.
func TestOwedCapsOneApply(t *testing.T) {
	st := NewStore("rc0")
	value := strings.Repeat("v", 100<<10)
	for i := 0; i < 25; i++ {
		st.Set(fmt.Sprintf("urn:big%02d", i), AttrState, value)
	}
	b := pushBatch{mark: []uint64{0}}
	var sizes []int
	next := uint64(1)
	for more := true; more; more = b.more {
		st.owed(&b, &waiter{})
		for _, op := range b.ops {
			if op.Seq != next {
				t.Fatalf("batch %d holds seq %d, want %d", len(sizes), op.Seq, next)
			}
			next++
		}
		sizes = append(sizes, len(b.ops))
		b.mark, b.next = b.next, b.mark
	}
	if !slices.Equal(sizes, []int{11, 11, 3}) {
		t.Errorf("batches of %v ops, want [11 11 3]", sizes)
	}
}

// pushers counts the goroutines pushing to a peer, of every server in the
// process.
func pushers() int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return strings.Count(string(buf[:n]), "rcds.(*Server).push(")
		}
		buf = make([]byte, 2*len(buf))
	}
}

// TestSlowPeerHoldsUpOnlyItself: a replica pushes to two peers, and one
// stops reading for 3 s and more. Pushes to the other keep becoming
// visible there as fast as before. The push to the stalled peer fails
// when its write times out, and counts in PushFailures; once the peer
// reads again it is brought level. Dropping it from the peer set stops
// its pusher.
func TestSlowPeerHoldsUpOnlyItself(t *testing.T) {
	start := func(origin string) *Server {
		s := NewServer(NewStore(origin))
		if err := s.Start("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		return s
	}
	src, fast := start("src"), start("fast")
	slow := start("slow") // with no peers until it reads again
	relay := startFrameRelay(t, slow.Addr())
	src.SetPeers(fast.Addr(), relay.Addr())

	// A round is a burst of 1 KiB writes at src and a marker behind them;
	// it returns how long the marker took to be visible at fast.
	value := strings.Repeat("v", 1<<10)
	rounds := 0
	round := func() time.Duration {
		for j := 0; j < 63; j++ {
			src.Store().Set(fmt.Sprintf("urn:bulk%02d", j), AttrState, value)
		}
		rounds++
		marker := strconv.Itoa(rounds)
		begin := time.Now()
		src.Store().Set("urn:marker", AttrState, marker)
		for {
			if v, _ := fast.Store().FirstValue("urn:marker", AttrState); v == marker {
				return time.Since(begin)
			}
			if time.Since(begin) > 10*time.Second {
				t.Fatalf("round %d: the marker never reached the fast peer", rounds)
			}
			runtime.Gosched()
		}
	}
	// phase runs rounds for d, and for as long after as until() is false,
	// and returns the median time to visibility.
	phase := func(d time.Duration, until func() bool) time.Duration {
		var took []time.Duration
		for end := time.Now().Add(d); time.Now().Before(end) || !until(); {
			took = append(took, round())
			if len(took) > 1e6 {
				t.Fatal("the phase never ended")
			}
		}
		slices.Sort(took)
		return took[len(took)/2]
	}

	base := phase(time.Second, func() bool { return true })
	relay.pause()
	stalled := phase(3*time.Second, func() bool { return src.PushFailures() > 0 })
	relay.unpause()
	t.Logf("visible at the fast peer after a median %v unpaused, %v with the other peer stalled; %d rounds, %d push failures",
		base, stalled, rounds, src.PushFailures())
	if stalled > 2*base {
		t.Errorf("a stalled peer slowed pushes to the other from %v to %v", base, stalled)
	}
	testutil.WaitFor(t, 5*time.Second, func() bool {
		return fast.Store().ContentHash() == src.Store().ContentHash()
	}, "the fast peer missed a push")
	if got := counter(fast, "remote_ops"); got != uint64(64*rounds) {
		t.Errorf("%d ops pushed to the fast peer, want all %d", got, 64*rounds)
	}

	slow.SetPeers(src.Addr())
	testutil.WaitFor(t, 10*time.Second, func() bool {
		return slow.Store().Vector().Dominates(src.Store().Vector()) &&
			slow.Store().ContentHash() == src.Store().ContentHash()
	}, "the stalled peer never caught up")

	src.SetPeers(fast.Addr())
	testutil.WaitFor(t, 5*time.Second, func() bool { return pushers() == 2 },
		"the dropped peer's pusher still runs") // src → fast, slow → src
}
