package rcds

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"snipe/internal/testutil"
)

// startChain launches one RC server per entry of links: links[i] lists
// the servers that server i pushes to, and pulls from when a peer is new,
// a hole opens or its pull is due. It returns once the pulls from the new
// peers are served, so that a test which counts what crosses a link and
// ends before the next pull falls due (pullPeriod) sees pushes alone.
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
	testutil.WaitFor(t, 5*time.Second, func() bool {
		var pulls, served uint64
		for i, s := range servers {
			if counter(s, "pulls") < uint64(len(links[i])) {
				return false
			}
			pulls, served = pulls+counter(s, "pulls"), served+counter(s, "tail_pulls_served")
		}
		return served == pulls
	}, "the servers did not pull from their new peers")
	return servers
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
	// Every op reaches replica 1, its relay decides on every one, and
	// replica 0 has counted the last Apply frame it wrote.
	testutil.WaitFor(t, 5*time.Second, func() bool {
		return counter(rc[1], "relay_skipped") == n && counter(rc[0], "apply_ops_sent") == n
	}, "replica 1 did not leave every relayed op out of its push to replica 0")
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
		return counter(b, "relay_skipped") == n && counter(c, "relay_skipped") == n &&
			counter(b, "apply_ops_sent") == n
	}, "B and C did not each leave every op out of the push towards its source")
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
}

// pendingFor is the number of ops queued on srv's pusher to peer.
func pendingFor(srv *Server, peer string) int {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	for _, p := range srv.pushers {
		if p.peer == peer {
			return len(p.pending)
		}
	}
	return -1
}

// TestPushQueueOverflowCounts: while one peer's pusher is held up by a
// peer it cannot reach, writes keep being accepted; past maxPendingPushOps
// they are counted as failed pushes and not queued for that peer, the
// other peer gets every one, and a pull delivers them to the first once
// it is back. A first write is taken by the held-up pusher before the
// rest are made, so exactly maxPendingPushOps of them queue behind it
// however late the scheduler runs that pusher.
func TestPushQueueOverflowCounts(t *testing.T) {
	const extra = 64
	release := make(chan struct{})
	var once sync.Once
	open := func() { once.Do(func() { close(release) }) }

	rc1 := NewServer(NewStore("rc1"))
	if err := rc1.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer rc1.Close()
	rc2 := NewServer(NewStore("rc2"))
	if err := rc2.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer rc2.Close()
	rc0 := NewServer(NewStore("rc0"), WithPeers(rc1.Addr(), rc2.Addr()))
	rc0.peerGate = func(peer string) error {
		if peer == rc1.Addr() {
			<-release
		}
		return nil
	}
	if err := rc0.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer rc0.Close()
	defer open() // a failed assertion must not leave a pusher in the gate

	c := NewClient([]string{rc0.Addr()}, nil)
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := c.Set(ctx, "urn:first", AttrState, "running"); err != nil {
		t.Fatal(err)
	}
	testutil.WaitFor(t, 5*time.Second, func() bool { return pendingFor(rc0, rc1.Addr()) == 0 },
		"the gated peer's pusher did not take the first write")

	// setN's deadline is the "nothing blocks" check: every Set returns.
	setN(t, rc0, maxPendingPushOps+extra)
	if got := rc0.PushFailures(); got != extra {
		t.Fatalf("%d push failures after %d writes over the bound of %d; want %d",
			got, extra, maxPendingPushOps, extra)
	}
	if got := counter(rc1, "remote_ops"); got != 0 {
		t.Fatalf("%d ops reached the gated peer", got)
	}
	testutil.WaitFor(t, 10*time.Second, func() bool {
		return counter(rc2, "remote_ops") == 1+maxPendingPushOps+extra
	}, "the ungated peer did not get every write by push")

	// The gate opens: the queued ops are pushed, and replica 1, now told
	// of its peer, pulls the ones that were never queued.
	open()
	rc1.SetPeers(rc0.Addr())
	testutil.WaitFor(t, 10*time.Second, func() bool {
		return rc1.Store().Vector().Dominates(rc0.Store().Vector()) &&
			rc1.Store().ContentHash() == rc0.Store().ContentHash()
	}, "replica 1 never caught up")
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
// stops reading for 3 s. Pushes to the other keep becoming visible there
// as fast as before. The stalled peer's list fills, what overflows it
// counts in PushFailures, and a pull brings that peer level once it
// reads again. Dropping it from the peer set stops its pusher.
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
			src.enqueuePush([]Assertion{src.Store().Set(fmt.Sprintf("urn:bulk%02d", j), AttrState, value)}, "")
		}
		rounds++
		marker := strconv.Itoa(rounds)
		begin := time.Now()
		src.enqueuePush([]Assertion{src.Store().Set("urn:marker", AttrState, marker)}, "")
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
