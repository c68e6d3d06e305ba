package rcds

import (
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"snipe/internal/testutil"
)

// Replication repair (DESIGN.md "Replication repair"): a push that fails
// is sent again by its own pusher, from its mark; a server pulls only when
// a push link opens. These tests hold each path to its figure, and an
// idle group to no pulls at all.

// converged reports whether a holds every op b holds, and b's catalog.
func converged(a, b *Server) bool {
	return a.Store().Vector().Dominates(b.Store().Vector()) && a.Store().ContentHash() == b.Store().ContentHash()
}

// setOne writes uri through c.
func setOne(t *testing.T, c *Client, uri string) {
	t.Helper()
	if err := c.Set(ctxTimeout(t, "5s"), uri, AttrState, "running"); err != nil {
		t.Fatalf("Set %s: %v", uri, err)
	}
}

// dropOne returns a peer gate that severs the link for the one exchange
// after arm is called, and arm.
func dropOne() (gate func(string) error, arm func()) {
	var armed atomic.Bool
	gate = func(string) error {
		if armed.CompareAndSwap(true, false) {
			return errors.New("dropped")
		}
		return nil
	}
	return gate, func() { armed.Store(true) }
}

// startRepairPair starts two replicas that push to each other, replica 0
// through gate if it is not nil, and has them converge on one write made
// through the client it returns, which writes to replica 0.
func startRepairPair(t *testing.T, gate func(string) error) (rc0, rc1 *Server, c *Client) {
	t.Helper()
	rc0, rc1 = NewServer(NewStore("rc0")), NewServer(NewStore("rc1"))
	if gate != nil {
		rc0.peerGate = gate
	}
	for _, s := range []*Server{rc0, rc1} {
		if err := s.Start("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
	}
	rc0.SetPeers(rc1.Addr())
	rc1.SetPeers(rc0.Addr())
	c = NewClient([]string{rc0.Addr()}, nil)
	t.Cleanup(c.Close)
	setOne(t, c, "urn:repair:first")
	testutil.WaitFor(t, 5*time.Second, func() bool { return converged(rc1, rc0) }, "the first write did not reach replica 1")
	return rc0, rc1, c
}

// TestIdleGroupBarelyPulls: a converged two-replica group that nobody
// writes to has nothing to send and no link opening: in 4 s it serves no
// Catchup and applies no Apply frame.
func TestIdleGroupBarelyPulls(t *testing.T) {
	rc := startReplicaGroup(t, 2, nil)
	c := NewClient([]string{rc[0].Addr()}, nil)
	defer c.Close()
	setOne(t, c, "urn:idle")
	testutil.WaitFor(t, 5*time.Second, func() bool { return converged(rc[1], rc[0]) }, "the group did not converge")
	pullsSettle(t, rc, func(int) int { return 1 })
	both := func(name string) uint64 { return counter(rc[0], name) + counter(rc[1], name) }
	served, applied := both("tail_pulls_served"), both("applies_received")
	time.Sleep(4 * time.Second)
	if got := both("tail_pulls_served") - served; got != 0 {
		t.Errorf("an idle group served %d Catchups in 4 s, want 0", got)
	}
	if got := both("applies_received") - applied; got != 0 {
		t.Errorf("an idle group applied %d Apply frames in 4 s, want 0", got)
	}
}

// resentWithin is how soon a gated push must reach its peer: one
// redialBackoff, and a margin for the scheduler.
const resentWithin = redialBackoff + 250*time.Millisecond

// TestGatedPushIsResent: replica 0's push of its last write is gated, and
// no write follows. Its own pusher sends it again one redialBackoff later,
// on the link it has: replica 1 holds it within resentWithin, one push
// counts as failed, and nobody pulls.
func TestGatedPushIsResent(t *testing.T) {
	gate, arm := dropOne()
	rc0, rc1, c := startRepairPair(t, gate)
	rc := []*Server{rc0, rc1}
	pullsSettle(t, rc, func(int) int { return 1 })
	pulls := counter(rc0, "pulls") + counter(rc1, "pulls")
	arm()
	start := time.Now()
	setOne(t, c, "urn:repair:last")
	testutil.WaitFor(t, resentWithin-time.Since(start), func() bool { return converged(rc1, rc0) },
		"replica 0 did not send the gated write again within one backoff")
	t.Logf("converged %v after the gated write", time.Since(start))
	if got := rc0.PushFailures(); got != 1 {
		t.Errorf("%d push failures, want the one gated", got)
	}
	if got := counter(rc0, "pulls") + counter(rc1, "pulls") - pulls; got != 0 {
		t.Errorf("%d pulls, want none: the gated push is its pusher's to send again", got)
	}
}

// TestGatedPushKeepsOrder: replica 0's push of one write is gated, and a
// second write follows at once. The pusher sends nothing while it waits
// out its backoff, and then both writes in one Apply, in order: replica
// 1 never holds the second above a hole, and nobody pulls.
func TestGatedPushKeepsOrder(t *testing.T) {
	gate, arm := dropOne()
	rc0, rc1, c := startRepairPair(t, gate)
	rc := []*Server{rc0, rc1}
	pullsSettle(t, rc, func(int) int { return 1 })
	pulls := counter(rc0, "pulls") + counter(rc1, "pulls")
	sent, opsSent := counter(rc0, "applies_sent"), counter(rc0, "apply_ops_sent")
	arm()
	start := time.Now()
	setOne(t, c, "urn:repair:lost")
	testutil.WaitFor(t, 5*time.Second, func() bool { return rc0.PushFailures() == 1 }, "the push was not gated")
	setOne(t, c, "urn:repair:next")
	testutil.WaitFor(t, resentWithin-time.Since(start), func() bool {
		if n := aboveMarks(rc1.Store()); n != 0 {
			t.Fatalf("replica 1 holds %d ops above a hole", n)
		}
		return converged(rc1, rc0)
	}, "replica 0 did not send both writes within one backoff")
	t.Logf("converged %v after the gated write", time.Since(start))
	if got, ops := counter(rc0, "applies_sent")-sent, counter(rc0, "apply_ops_sent")-opsSent; got != 1 || ops != 2 {
		t.Errorf("replica 0 sent %d ops in %d Apply frames, want both in one", ops, got)
	}
	if got := counter(rc0, "pulls") + counter(rc1, "pulls") - pulls; got != 0 {
		t.Errorf("%d pulls, want none", got)
	}
}

// TestDroppedLinkIsReopened: every connection into an idle replica drops,
// its peer's push link among them. The peer opens its link again at once,
// with nothing to send, and the new link starts a pull at both ends, as
// any link opening does: within 1 s, and with no new write.
func TestDroppedLinkIsReopened(t *testing.T) {
	rc0, rc1, _ := startRepairPair(t, nil)
	rc := []*Server{rc0, rc1}
	pullsSettle(t, rc, func(int) int { return 1 })
	pulls0, pulls1, writes := counter(rc0, "pulls"), counter(rc1, "pulls"), counter(rc0, "local_ops")
	rc1.mu.Lock()
	var conns []net.Conn
	for conn := range rc1.conns {
		conns = append(conns, conn)
	}
	rc1.mu.Unlock()
	for _, conn := range conns {
		conn.Close()
	}
	start := time.Now()
	testutil.WaitFor(t, time.Second, func() bool {
		return counter(rc0, "pulls") > pulls0 && counter(rc1, "pulls") > pulls1
	}, "the dropped link did not open again and start a pull at both ends")
	t.Logf("pulled again %v after the drop", time.Since(start))
	pullsSettle(t, rc, func(int) int { return 1 })
	if got := counter(rc0, "local_ops"); got != writes {
		t.Errorf("%d writes during the test, want none", got-writes)
	}
	if f := rc0.PushFailures() + rc1.PushFailures(); f != 0 {
		t.Errorf("%d push failures", f)
	}
}

// TestFailedPullIsRetried: replica 1 holds a write that only a pull
// brings to replica 0, whose link to it runs through a relay. With the
// relay stalled behind a push, replica 0's pull times out (pushTimeout)
// and its link stays up. Replica 0 breaks the link, opens it again one redialBackoff
// later and pulls again: once the relay reads again the pair converges,
// with no push failing.
func TestFailedPullIsRetried(t *testing.T) {
	rc0, rc1 := NewServer(NewStore("rc0")), NewServer(NewStore("rc1"))
	for _, s := range []*Server{rc0, rc1} {
		if err := s.Start("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
	}
	relay := startFrameRelay(t, rc1.Addr())
	rc0.SetPeers(relay.Addr()) // replica 1 pushes nowhere
	pullsSettle(t, []*Server{rc0, rc1}, func(i int) int { return 1 - i })
	rc1.Store().Set("urn:repair:unpushed", AttrState, "running")
	relay.pause()
	// The relay reads one more time, and stops: a push goes through first.
	rc0.Store().Set("urn:repair:pushed", AttrState, "running")
	testutil.WaitFor(t, time.Second, func() bool { return counter(rc1, "remote_ops") == 1 }, "the push did not go through")
	pulls := counter(rc0, "pulls")
	signal(rc0.linkUp) // as a link opening does
	testutil.WaitFor(t, time.Second, func() bool { return counter(rc0, "pulls") > pulls }, "replica 0 did not pull")
	time.Sleep(pushTimeout + 100*time.Millisecond) // the pull's Catchup has timed out
	relay.unpause()
	start := time.Now()
	testutil.WaitFor(t, 2*time.Second, func() bool { return converged(rc0, rc1) },
		"replica 0 did not pull again after its pull failed")
	t.Logf("converged %v after the relay read again", time.Since(start))
	if f := rc0.PushFailures(); f != 0 {
		t.Errorf("%d push failures", f)
	}
}

// TestRejoinPullsOneSnapshot: a replica that missed history its two peers
// have compacted away rejoins them. Its pulls run one after another, so
// the first brings it to that peer's snapshot base and the second finds
// only a tail to serve: one snapshot transfer, not one per peer.
func TestRejoinPullsOneSnapshot(t *testing.T) {
	rc := startReplicaGroup(t, 3, nil)
	c := NewClient([]string{rc[0].Addr()}, nil)
	defer c.Close()
	setOne(t, c, "urn:rejoin:pre")
	testutil.WaitFor(t, 5*time.Second, func() bool { return converged(rc[2], rc[0]) }, "the first write did not reach replica 2")

	down := rc[2].Store()
	rc[2].Close()
	ctx := ctxTimeout(t, "10s")
	for i := 0; i < 100; i++ {
		if err := c.Set(ctx, fmt.Sprintf("urn:rejoin:%d", i%10), AttrState, fmt.Sprint(i)); err != nil {
			t.Fatal(err)
		}
	}
	testutil.WaitFor(t, 5*time.Second, func() bool { return converged(rc[1], rc[0]) }, "replica 1 did not get the history")
	rc[0].Store().Compact(0)
	rc[1].Store().Compact(0)
	pages := func() uint64 {
		return counter(rc[0], "snapshot_pages_served") + counter(rc[1], "snapshot_pages_served")
	}
	before, pulls := pages(), counter(rc[2], "pulls") // the store's counters, which the rejoined server goes on with

	rejoined := NewServer(down, WithPeers(rc[0].Addr(), rc[1].Addr()))
	if err := rejoined.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer rejoined.Close()
	// A third pull begins only once the pass that made the first two is
	// over, the one from each peer: one more pass is asked for once both
	// have begun.
	testutil.WaitFor(t, 10*time.Second, func() bool { return converged(rejoined, rc[0]) && counter(rejoined, "pulls") >= pulls+2 },
		"the rejoined replica did not converge")
	signal(rejoined.linkUp)
	testutil.WaitFor(t, 10*time.Second, func() bool { return counter(rejoined, "pulls") >= pulls+3 },
		"the rejoined replica did not pull again")
	if got := pages() - before; got != 1 {
		t.Errorf("the rejoin was served %d snapshot pages, want one transfer of one page", got)
	}
}
