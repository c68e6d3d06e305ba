package rcds

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"snipe/internal/netsim"
	"snipe/internal/testutil"
)

func TestStoreSnapshotPagePagination(t *testing.T) {
	s := NewStore("rc0")
	const n = 25
	for i := 0; i < n; i++ {
		s.Set(fmt.Sprintf("urn:u%02d", i), "k", "v")
	}
	s.Remove("urn:u03", "k", "v") // tombstone must survive the dump

	var got []Assertion
	after, pages := "", 0
	for {
		ops, next, vv := s.SnapshotPage(after, 7)
		if len(vv) == 0 {
			t.Fatal("page carried no version vector")
		}
		got = append(got, ops...)
		pages++
		if next == "" {
			break
		}
		if next <= after {
			t.Fatalf("cursor not advancing: %q -> %q", after, next)
		}
		after = next
	}
	if pages < 3 {
		t.Fatalf("%d pages for %d URIs at 7/page, want several", pages, n)
	}
	uris := map[string]bool{}
	tombs := 0
	for _, a := range got {
		uris[a.URI] = true
		if a.Deleted {
			tombs++
		}
	}
	if len(uris) != n || tombs != 1 {
		t.Fatalf("dump covers %d URIs (%d tombstones), want %d (1)", len(uris), tombs, n)
	}
	// A page never splits a URI: re-dump with maxOps 1 and confirm each
	// page still carries whole URIs.
	s.Add("urn:u00", "k", "second")
	ops, next, _ := s.SnapshotPage("", 1)
	if len(ops) < 2 || ops[0].URI != ops[1].URI {
		t.Fatalf("page split a URI: %v (next %q)", ops, next)
	}
}

func TestStoreCompactionFloor(t *testing.T) {
	s := NewStore("rc0")
	for i := 0; i < 100; i++ {
		s.Set("urn:hot", "k", fmt.Sprintf("v%d", i))
	}
	if !s.CanServeTail(VersionVector{}) {
		t.Fatal("uncompacted log must serve any tail")
	}
	before := s.LogLen()
	dropped := s.Compact(10)
	if dropped == 0 || s.LogLen() >= before {
		t.Fatalf("Compact dropped %d (log %d -> %d)", dropped, before, s.LogLen())
	}
	if s.CanServeTail(VersionVector{}) {
		t.Fatal("empty vector is below the floor after compaction")
	}
	if !s.CanServeTail(s.Vector()) {
		t.Fatal("an up-to-date vector must still be tail-servable")
	}
	// Snapshot install + MergeVector lands a fresh replica above the floor.
	fresh := NewStore("rc1")
	ops, next, vv := s.SnapshotPage("", 0)
	if next != "" {
		t.Fatalf("single-page dump expected, got cursor %q", next)
	}
	fresh.InstallSnapshotOps(ops)
	fresh.MergeVector(vv)
	if !s.CanServeTail(fresh.Vector()) {
		t.Fatal("snapshot-installed replica still below the floor")
	}
	if fresh.ContentHash() != s.ContentHash() {
		t.Fatal("snapshot install did not converge byte-identically")
	}
}

func TestSyncFromPeerTailPath(t *testing.T) {
	servers := startReplicaGroup(t, 1, nil)
	src := servers[0].Store()
	for i := 0; i < 50; i++ {
		src.Set(fmt.Sprintf("urn:t%d", i), "k", "v")
	}
	dst := NewStore("rcX")
	c := NewClient(groupAddrs(servers), nil)
	defer c.Close()
	res, err := SyncFromPeer(context.Background(), dst, c, 7) // force paging
	if err != nil {
		t.Fatal(err)
	}
	if res.UsedSnapshot || res.Snapshots != 0 {
		t.Fatalf("tail-servable gap used snapshot: %+v", res)
	}
	if res.TailOps == 0 || dst.ContentHash() != src.ContentHash() {
		t.Fatalf("tail sync did not converge: %+v", res)
	}
}

func TestSyncFromPeerSnapshotPath(t *testing.T) {
	servers := startReplicaGroup(t, 1, nil)
	src := servers[0].Store()
	// Long history, small catalog: 20 URIs overwritten 50 times each,
	// cycling two values so elements supersede instead of piling up new
	// tombstones — the snapshot stays O(catalog) while history grows.
	const uris, rewrites = 20, 50
	history := 0
	for r := 0; r < rewrites; r++ {
		for i := 0; i < uris; i++ {
			src.Set(fmt.Sprintf("urn:s%d", i), "k", fmt.Sprintf("v%d", r%2))
			history++
		}
	}
	src.Remove("urn:s0", "k", fmt.Sprintf("v%d", rewrites-1))
	history++
	src.Compact(5)

	dst := NewStore("rcY")
	c := NewClient(groupAddrs(servers), nil)
	defer c.Close()
	res, err := SyncFromPeer(context.Background(), dst, c, 64)
	if err != nil {
		t.Fatal(err)
	}
	if !res.UsedSnapshot {
		t.Fatalf("stale replica bypassed the snapshot: %+v", res)
	}
	if dst.ContentHash() != src.ContentHash() {
		t.Fatal("snapshot sync did not converge byte-identically")
	}
	// The point of the snapshot: transfer is O(catalog), not O(history).
	if total := res.SnapshotOps + res.TailOps; total >= history/2 {
		t.Fatalf("rejoin transferred %d ops against %d history ops", total, history)
	}
	snap := src.Metrics().Snapshot()
	if snap.Counters["snapshot_pages_served"] == 0 {
		t.Fatal("server never counted a snapshot page")
	}
	if snap.Counters["log_compacted_ops"] == 0 {
		t.Fatal("store never counted compacted ops")
	}
}

// TestServerRejoinViaSnapshot is the full crash/rejoin cycle: a replica
// misses a long overwrite history, the survivor compacts its log, and
// the rejoiner's own anti-entropy loop converges it through the
// snapshot path without history replay.
func TestServerRejoinViaSnapshot(t *testing.T) {
	servers := startReplicaGroup(t, 2, nil)
	c := NewClient([]string{servers[0].Addr()}, nil)
	defer c.Close()
	if err := c.Set(context.Background(), "urn:pre", "k", "v"); err != nil {
		t.Fatal(err)
	}
	testutil.WaitFor(t, 5*time.Second, func() bool {
		_, ok := servers[1].Store().FirstValue("urn:pre", "k")
		return ok
	}, "initial write never replicated")

	// Replica 1 goes down and misses a long history.
	downStore := servers[1].Store()
	servers[1].Close()
	for r := 0; r < 30; r++ {
		for i := 0; i < 10; i++ {
			if err := c.Set(context.Background(), fmt.Sprintf("urn:r%d", i), "k", fmt.Sprintf("v%d", r)); err != nil {
				t.Fatal(err)
			}
		}
	}
	servers[0].Store().Compact(5)

	// Restart over the surviving store; AE must use the snapshot path.
	rejoin := NewServer(downStore,
		WithPeers(servers[0].Addr()),
		WithAntiEntropyInterval(20*time.Millisecond))
	if err := rejoin.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer rejoin.Close()
	// Vector coverage first: content can match while the sync is still
	// mid-snapshot (the differing URIs may sort into early pages); only
	// a merged base vector proves the transfer actually completed.
	testutil.WaitFor(t, 10*time.Second, func() bool {
		return downStore.Vector().Dominates(servers[0].Store().Vector()) &&
			downStore.ContentHash() == servers[0].Store().ContentHash()
	}, "rejoining replica never converged")
	snap := servers[0].Store().Metrics().Snapshot()
	if snap.Counters["snapshot_pages_served"] == 0 {
		t.Fatal("rejoin did not go through the snapshot path")
	}
	if snap.Counters["snapshot_ops_installed"] != 0 {
		t.Fatal("survivor should install nothing; the rejoiner does")
	}
	if downStore.Metrics().Snapshot().Counters["snapshot_ops_installed"] == 0 {
		t.Fatal("rejoiner installed no snapshot ops")
	}
}

// TestPartitionRejoinViaSnapshot drives the same rejoin through a
// netsim partition: the replication link is severed via a Fabric gate
// (pushes and pulls are skipped while partitioned), the connected side
// accumulates and compacts history, and healing the partition lets
// anti-entropy converge the stale side through the snapshot path.
func TestPartitionRejoinViaSnapshot(t *testing.T) {
	fab := netsim.NewFabric()
	stores := []*Store{NewStore("rc0"), NewStore("rc1")}
	servers := make([]*Server, 2)
	addrToNode := make(map[string]string)
	var mkGate = func(self string) func(string) error {
		return func(peer string) error {
			node, ok := addrToNode[peer]
			if !ok {
				return nil
			}
			return fab.Gate(self, node)()
		}
	}
	for i := range servers {
		servers[i] = NewServer(stores[i], WithAntiEntropyInterval(20*time.Millisecond))
		servers[i].peerGate = mkGate(fmt.Sprintf("n%d", i))
		if err := servers[i].Start("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		defer servers[i].Close()
	}
	for i := range servers {
		addrToNode[servers[i].Addr()] = fmt.Sprintf("n%d", i)
	}
	servers[0].SetPeers(servers[1].Addr())
	servers[1].SetPeers(servers[0].Addr())

	c := NewClient([]string{servers[0].Addr()}, nil)
	defer c.Close()
	if err := c.Set(context.Background(), "urn:pre", "k", "v"); err != nil {
		t.Fatal(err)
	}
	testutil.WaitFor(t, 5*time.Second, func() bool {
		_, ok := stores[1].FirstValue("urn:pre", "k")
		return ok
	}, "write never crossed the healthy link")

	fab.Partition("n0", "n1")
	pushesBefore := servers[0].PushFailures()
	for r := 0; r < 25; r++ {
		for i := 0; i < 8; i++ {
			if err := c.Set(context.Background(), fmt.Sprintf("urn:p%d", i), "k", fmt.Sprintf("v%d", r)); err != nil {
				t.Fatal(err)
			}
		}
	}
	stores[0].Compact(5)
	if servers[0].PushFailures() <= pushesBefore {
		t.Fatal("partitioned pushes were not counted as failures")
	}
	if h0, h1 := stores[0].ContentHash(), stores[1].ContentHash(); h0 == h1 {
		t.Fatal("stores converged across a severed link")
	}

	fab.Heal("n0", "n1")
	testutil.WaitFor(t, 10*time.Second, func() bool {
		return stores[1].Vector().Dominates(stores[0].Vector()) &&
			stores[0].ContentHash() == stores[1].ContentHash()
	}, "stale side never converged after heal")
	if stores[1].Metrics().Snapshot().Counters["snapshot_ops_installed"] == 0 {
		t.Fatal("healed rejoin did not use the snapshot path")
	}
	if !strings.Contains(fmt.Sprint(stores[1].Vector()), "rc0") {
		t.Fatal("rejoiner never learned the survivor's origin")
	}
}
