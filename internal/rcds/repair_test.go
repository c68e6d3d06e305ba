package rcds

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"snipe/internal/testutil"
)

// Replication repair (DESIGN.md "Replication repair"): a server pulls from
// its peers at once when one is new or an Apply leaves a hole, and
// otherwise on a timer. These tests hold each trigger to its figure, and
// an idle group to the few pulls its timer makes.

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
// through gate, and has them converge on one write made through the
// client it returns, which writes to replica 0.
func startRepairPair(t *testing.T, gate func(string) error) (rc0, rc1 *Server, c *Client) {
	t.Helper()
	rc0, rc1 = NewServer(NewStore("rc0")), NewServer(NewStore("rc1"))
	rc0.peerGate = gate
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
// writes to pulls only when its timer is due, every pullPeriod: at most 6
// Catchups served between the two in 4 s. A pull every 250 ms, whatever
// happened, made 32.
func TestIdleGroupBarelyPulls(t *testing.T) {
	rc := startReplicaGroup(t, 2, nil)
	c := NewClient([]string{rc[0].Addr()}, nil)
	defer c.Close()
	setOne(t, c, "urn:idle")
	testutil.WaitFor(t, 5*time.Second, func() bool {
		return converged(rc[1], rc[0]) && counter(rc[0], "pulls") > 0 && counter(rc[1], "pulls") > 0
	}, "the group did not converge and pull from its new peers")
	served := func() uint64 { return counter(rc[0], "tail_pulls_served") + counter(rc[1], "tail_pulls_served") }
	before := served()
	time.Sleep(4 * time.Second)
	if got := served() - before; got > 6 {
		t.Errorf("an idle group served %d Catchups in 4 s, want ≤ 6", got)
	} else {
		t.Logf("an idle group served %d Catchups in 4 s", got)
	}
	if got := counter(rc[0], "hole_pulls") + counter(rc[1], "hole_pulls"); got != 0 {
		t.Errorf("%d pulls started by a hole in a group whose every push arrived", got)
	}
}

// TestHoleIsPulledAtOnce: replica 0's push of one write is lost, and its
// next write reaches replica 1 above the hole that left. Replica 1 pulls
// at once rather than when its timer is due: it holds both writes within
// 500 ms of the second.
func TestHoleIsPulledAtOnce(t *testing.T) {
	gate, arm := dropOne()
	rc0, rc1, c := startRepairPair(t, gate)
	// A timed pull may fetch the lost write before the next one shows the
	// hole; then lose another.
	for lost := 1; ; lost++ {
		arm()
		uri := fmt.Sprintf("urn:repair:lost%d", lost)
		setOne(t, c, uri)
		testutil.WaitFor(t, 5*time.Second, func() bool { return rc0.PushFailures() == lost }, "the push was not dropped")
		if _, held := rc1.Store().FirstValue(uri, AttrState); !held {
			break
		}
		if lost == 3 {
			t.Fatal("replica 1's timer fetched every lost write before the next one")
		}
	}
	start := time.Now()
	setOne(t, c, "urn:repair:next")
	testutil.WaitFor(t, 500*time.Millisecond, func() bool { return converged(rc1, rc0) },
		"replica 1 did not fetch the lost write when the next one showed the hole")
	t.Logf("converged %v after the write above the hole", time.Since(start))
	if got := counter(rc1, "hole_pulls"); got == 0 {
		t.Error("replica 1 counted no pull started by a hole")
	}
}

// TestLostLastPushIsPulledOnTime: replica 0's push of its last write is
// lost, and no write follows to show a hole. Replica 1's timed pull fetches
// it within pullPeriod and a margin: 2.5 s.
func TestLostLastPushIsPulledOnTime(t *testing.T) {
	gate, arm := dropOne()
	rc0, rc1, c := startRepairPair(t, gate)
	pulls := counter(rc1, "pulls")
	arm()
	start := time.Now()
	setOne(t, c, "urn:repair:last")
	testutil.WaitFor(t, 2500*time.Millisecond-time.Since(start), func() bool { return converged(rc1, rc0) },
		"replica 1 did not fetch the lost last write on time")
	t.Logf("converged %v after the lost write", time.Since(start))
	if got := rc0.PushFailures(); got != 1 {
		t.Errorf("%d push failures, want the one dropped", got)
	}
	if counter(rc1, "pulls") == pulls || counter(rc1, "hole_pulls") != 0 {
		t.Errorf("replica 1 made %d pulls, %d of them for a hole; want a timed one",
			counter(rc1, "pulls")-pulls, counter(rc1, "hole_pulls"))
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
	// over, the one from each peer.
	testutil.WaitFor(t, 10*time.Second, func() bool { return converged(rejoined, rc[0]) && counter(rejoined, "pulls") >= pulls+3 },
		"the rejoined replica did not converge and pull again")
	if got := pages() - before; got != 1 {
		t.Errorf("the rejoin was served %d snapshot pages, want one transfer of one page", got)
	}
}
