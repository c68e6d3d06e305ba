package rcds

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"snipe/internal/testutil"
)

// startChain launches one RC server per entry of links, without
// anti-entropy so that only pushes move ops: links[i] lists the servers
// that server i pushes to.
func startChain(t *testing.T, links [][]int) []*Server {
	t.Helper()
	servers := make([]*Server, len(links))
	for i := range servers {
		servers[i] = NewServer(NewStore(fmt.Sprintf("rc%d", i)), WithAntiEntropyInterval(0))
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

// TestPushQueueOverflowCounts: while the push loop is held up by a peer
// it cannot reach, writes keep being accepted; past maxPendingPushOps
// they are counted as failed pushes and not queued, and anti-entropy
// delivers them once the peer is back.
func TestPushQueueOverflowCounts(t *testing.T) {
	const extra = 64
	release := make(chan struct{})
	var once sync.Once
	open := func() { once.Do(func() { close(release) }) }
	gate := func(string) error { <-release; return nil }

	rc1 := NewServer(NewStore("rc1"), WithAntiEntropyInterval(20*time.Millisecond))
	if err := rc1.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer rc1.Close()
	rc0 := NewServer(NewStore("rc0"), WithPeers(rc1.Addr()), WithAntiEntropyInterval(0))
	rc0.peerGate = gate
	if err := rc0.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer rc0.Close()
	defer open() // a failed assertion must not leave the push loop in the gate

	// setN's deadline is the "nothing blocks" check: every Set returns.
	setN(t, rc0, maxPendingPushOps+extra)
	if got := rc0.PushFailures(); got == 0 || got > extra {
		t.Fatalf("%d push failures after %d writes over the bound of %d; want a few short of %d",
			got, extra, maxPendingPushOps, extra)
	}
	if got := counter(rc1, "remote_ops"); got != 0 {
		t.Fatalf("%d ops reached the gated peer", got)
	}

	// The gate opens: the queued ops are pushed, and replica 1, now told
	// of its peer, pulls the ones that were never queued.
	open()
	rc1.SetPeers(rc0.Addr())
	testutil.WaitFor(t, 10*time.Second, func() bool {
		return rc1.Store().Vector().Dominates(rc0.Store().Vector()) &&
			rc1.Store().ContentHash() == rc0.Store().ContentHash()
	}, "replica 1 never caught up")
}
