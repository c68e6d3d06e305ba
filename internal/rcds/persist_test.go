package rcds

import (
	"bytes"
	"context"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"snipe/internal/testutil"
	"snipe/internal/xdr"
)

func TestSnapshotRoundTrip(t *testing.T) {
	s := NewStore("rc1")
	s.Set("urn:h1", AttrArch, "go-sim")
	s.Add("urn:f1", AttrLocation, "fs1")
	s.Add("urn:f1", AttrLocation, "fs2")
	s.Remove("urn:f1", AttrLocation, "fs1")
	// Remote ops are preserved too.
	other := NewStore("rc2")
	s.ApplyRemote([]Assertion{other.Set("urn:h2", AttrArch, "sparc")})

	var buf bytes.Buffer
	if err := s.SaveTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadStore(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Origin() != "rc1" {
		t.Fatalf("origin: %s", got.Origin())
	}
	if v, ok := got.FirstValue("urn:h1", AttrArch); !ok || v != "go-sim" {
		t.Fatalf("h1 arch: %q %v", v, ok)
	}
	if locs := got.Values("urn:f1", AttrLocation); len(locs) != 1 || locs[0] != "fs2" {
		t.Fatalf("f1 locations (tombstone lost?): %v", locs)
	}
	if v, ok := got.FirstValue("urn:h2", AttrArch); !ok || v != "sparc" {
		t.Fatalf("remote op lost: %q %v", v, ok)
	}
	// Version vector reconstructed: a caught-up peer gets nothing.
	if ops := got.OpsSince(s.Vector(), 0); len(ops) != 0 {
		t.Fatalf("vector drift: %d ops", len(ops))
	}
}

func TestSnapshotPreservesClocks(t *testing.T) {
	s := NewStore("rc1")
	for i := 0; i < 10; i++ {
		s.Set("u", "n", "v")
	}
	var buf bytes.Buffer
	s.SaveTo(&buf)
	got, err := LoadStore(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// New local ops on the restored store must supersede pre-snapshot
	// state everywhere (clocks must not regress).
	op := got.Set("u", "n", "post-restart")
	if !op.Supersedes(&Assertion{Clock: 10, Origin: "rc1", Seq: 10}) {
		t.Fatalf("restored clocks regressed: %+v", op)
	}
}

func TestLoadStoreRejectsGarbage(t *testing.T) {
	if _, err := LoadStore(bytes.NewReader([]byte("not a snapshot"))); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := LoadStore(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty accepted")
	}
	// A file of the op-log-only format is refused by name, not misread.
	old := xdr.NewEncoder(64)
	old.PutString("SNIPE-RC-SNAPSHOT-1")
	old.PutString("rc1")
	old.PutUint64(3)
	old.PutUint64(3)
	old.PutUint32(0)
	if _, err := LoadStore(bytes.NewReader(old.Bytes())); err == nil || !strings.Contains(err.Error(), "SNIPE-RC-SNAPSHOT-1") {
		t.Fatalf("old-format snapshot: error %v, want one naming the format", err)
	}
	// Trailing bytes after a well-formed snapshot are corruption.
	var buf bytes.Buffer
	if err := NewStore("rc1").SaveTo(&buf); err != nil {
		t.Fatal(err)
	}
	buf.WriteByte(0)
	if _, err := LoadStore(&buf); err == nil {
		t.Fatal("snapshot with trailing bytes accepted")
	}
}

// TestSnapshotKeepsCompactedCatalog: a replica that compacts its log
// (snipe-rcserver -data f -compact-keep n) restarts with the catalog it
// had, not with what the log tail can rebuild, and goes on serving its
// new writes to peers.
func TestSnapshotKeepsCompactedCatalog(t *testing.T) {
	s := NewStore("rc1")
	for i := 0; i < 10; i++ {
		s.Set(fmt.Sprintf("urn:h%d", i), AttrArch, "go-sim")
	}
	s.Add("urn:f1", AttrLocation, "fs1")
	s.Add("urn:f1", AttrLocation, "fs2")
	s.Remove("urn:f1", AttrLocation, "fs1")
	s.Set("urn:h0", AttrLoad, "0.5")
	s.Remove("urn:h0", AttrLoad, "0.5") // a register under a tombstone
	other := NewStore("rc2")
	s.ApplyRemote([]Assertion{other.Set("urn:h2", AttrArch, "sparc")})
	if s.Compact(0) == 0 || logLen(s) != 0 {
		t.Fatalf("Compact(0) left %d log entries", logLen(s))
	}

	var buf bytes.Buffer
	if err := s.SaveTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadStore(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.ContentHash() != s.ContentHash() {
		t.Errorf("restored catalog differs: %d of %d URIs", len(got.URIs("")), len(s.URIs("")))
	}
	before := s.Vector()
	if v := got.Vector(); !v.Dominates(before) || !before.Dominates(v) {
		t.Errorf("restored vector %v, saved %v", v, before)
	}
	if got.CanServeTail(VersionVector{}) {
		t.Error("restored replica claims to serve history it compacted away")
	}
	// A write after the restart takes the next sequence number, advances
	// the vector and is served to a peer that was up to date.
	op := got.Set("urn:h3", AttrArch, "post-restart")
	if op.Seq != before["rc1"]+1 || got.Vector()["rc1"] != op.Seq {
		t.Errorf("post-restart op seq %d, vector %v; saved vector %v", op.Seq, got.Vector(), before)
	}
	if ops := got.OpsSince(before, 0); len(ops) != 1 || ops[0].Value != "post-restart" {
		t.Errorf("OpsSince(saved vector) = %v, want the post-restart Set", ops)
	}
}

func TestSaveLoadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "rc.snap")

	// Missing file → fresh store.
	fresh, err := LoadFile(path, "rc9")
	if err != nil || fresh.Origin() != "rc9" {
		t.Fatalf("fresh: %v %v", fresh, err)
	}

	s := NewStore("rc1")
	s.Set("urn:x", "k", "v")
	if err := s.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path, "ignored")
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := got.FirstValue("urn:x", "k"); !ok || v != "v" {
		t.Fatalf("file round trip: %q %v", v, ok)
	}
}

func TestRestartedReplicaCatchesUp(t *testing.T) {
	// A replica snapshots, "crashes", misses writes, restarts from the
	// snapshot, and converges by the pull it makes on start.
	s0 := NewServer(NewStore("rc0"))
	if err := s0.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer s0.Close()
	s1 := NewServer(NewStore("rc1"),
		WithPeers(s0.Addr()))
	if err := s1.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	s0.SetPeers(s1.Addr())

	c := NewClient([]string{s0.Addr()}, nil)
	defer c.Close()
	c.Set(context.Background(), "urn:a", "k", "before")

	// Replica 1 receives the write, snapshots, and dies.
	c1 := NewClient([]string{s1.Addr()}, nil)
	waitValue(t, c1, "urn:a", "k", 3*time.Second)
	c1.Close()
	var snap bytes.Buffer
	if err := s1.Store().SaveTo(&snap); err != nil {
		t.Fatal(err)
	}
	s1.Close()

	// A write lands while replica 1 is down.
	c.Set(context.Background(), "urn:a", "k2", "while-down")

	// Restart from the snapshot; the pull on start fetches the missed write.
	restored, err := LoadStore(&snap)
	if err != nil {
		t.Fatal(err)
	}
	s1b := NewServer(restored, WithPeers(s0.Addr()))
	if err := s1b.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer s1b.Close()
	c1b := NewClient([]string{s1b.Addr()}, nil)
	defer c1b.Close()
	if v := waitValue(t, c1b, "urn:a", "k2", 5*time.Second); v != "while-down" {
		t.Fatalf("catch-up: %q", v)
	}
	// And it kept the pre-crash state.
	if v, ok, _ := c1b.FirstValue(context.Background(), "urn:a", "k"); !ok || v != "before" {
		t.Fatalf("pre-crash state: %q %v", v, ok)
	}
}

// TestRestartFromOlderFileKeepsOwnOps: a replica writes a, saves its
// file, writes b, which reaches one peer, and restarts from the file. Its
// pulls on start bring b back — also when b is held only by the second of
// two peers, pulled after the first — and it adopts it: its next write, c,
// is minted past b, so every peer files c too, and a replica that joins
// later learns a, b and c. All hold one catalog.
func TestRestartFromOlderFileKeepsOwnOps(t *testing.T) {
	for _, n := range []int{1, 2} {
		t.Run(fmt.Sprintf("peers=%d", n), func(t *testing.T) { restartFromOlderFile(t, n) })
	}
}

func restartFromOlderFile(t *testing.T, n int) {
	start := func(st *Store, peers ...string) *Server {
		s := NewServer(st, WithPeers(peers...))
		if err := s.Start("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		return s
	}
	set := func(s *Server, uri string) {
		t.Helper()
		c := NewClient([]string{s.Addr()}, nil)
		defer c.Close()
		if err := c.Set(ctxTimeout(t, "5s"), uri, AttrState, "running"); err != nil {
			t.Fatal(err)
		}
	}
	holds := func(s *Server, uri string) func() bool {
		return func() bool { _, ok := s.Store().FirstValue(uri, AttrState); return ok }
	}
	var peers []*Server
	var addrs []string
	for i := 0; i < n; i++ {
		peers = append(peers, start(NewStore(fmt.Sprintf("peer%d", i))))
		addrs = append(addrs, peers[i].Addr())
	}
	last := peers[n-1]
	rc1 := start(NewStore("rc1"), addrs...)
	set(rc1, "urn:a")
	for _, p := range peers {
		testutil.WaitFor(t, 5*time.Second, holds(p, "urn:a"), "a did not reach a peer")
	}
	var file bytes.Buffer
	if err := rc1.Store().SaveTo(&file); err != nil {
		t.Fatal(err)
	}
	rc1.SetPeers(last.Addr()) // b reaches the last peer alone
	set(rc1, "urn:b")
	testutil.WaitFor(t, 5*time.Second, holds(last, "urn:b"), "b did not reach the last peer")
	rc1.Close()

	restored, err := LoadStore(&file)
	if err != nil {
		t.Fatal(err)
	}
	rc1b := start(restored, addrs...)
	for _, p := range peers {
		p.SetPeers(rc1b.Addr())
	}
	testutil.WaitFor(t, 5*time.Second, holds(rc1b, "urn:b"), "the restarted replica did not get its own write b back")
	set(rc1b, "urn:c")
	for _, p := range peers {
		testutil.WaitFor(t, 5*time.Second, func() bool { return converged(p, rc1b) }, "a peer did not converge with the restarted replica")
	}

	rc2 := NewStore("rc2")
	c := NewClient([]string{peers[0].Addr()}, nil)
	defer c.Close()
	if err := SyncFromPeer(ctxTimeout(t, "5s"), rc2, c, 0); err != nil {
		t.Fatal(err)
	}
	for _, uri := range []string{"urn:a", "urn:b", "urn:c"} {
		if _, ok := rc2.FirstValue(uri, AttrState); !ok {
			t.Errorf("a replica that joined later lacks %s", uri)
		}
	}
	for _, s := range append(peers, rc1b) {
		if rc2.ContentHash() != s.Store().ContentHash() {
			t.Errorf("%s holds another catalog than the replica that joined later", s.Store().Origin())
		}
	}
	if got := rc1b.Store().Vector()["rc1"]; got != 3 {
		t.Errorf("the restarted replica's own mark is %d, want 3", got)
	}
}

// goldenStore builds, with a fixed clock, the store testdata/golden.snap
// was saved from by the release before catalog entries and the op log
// took their compact form: registers (one overwritten), elements, a
// tombstone, a register under its tombstone, a signed entry, two origins,
// a log compacted below a floor and, of the second origin, a log with a
// hole (seq 3 never delivered, 4 and 5 held above it).
func goldenStore() *Store {
	now := int64(1_700_000_000_000_000_000)
	clock := func() int64 { now += 1000; return now }
	st, peer := NewStore("rc1"), NewStore("rc2")
	st.nowFn = clock
	peer.nowFn = clock
	st.Set("urn:snipe:host:alpha", AttrArch, "linux-amd64")
	st.Set("urn:snipe:host:alpha", AttrLoad, "0.25")
	st.Set("urn:snipe:host:alpha", AttrLoad, "0.50")
	st.Add("urn:snipe:file:f1", AttrLocation, "http://a/f1")
	st.Add("urn:snipe:file:f1", AttrLocation, "http://b/f1")
	st.Add("urn:snipe:file:f1", AttrLocation, "http://c/f1")
	st.Remove("urn:snipe:file:f1", AttrLocation, "http://b/f1")
	st.AddSigned("urn:snipe:user:alice", AttrPublicKey, "aabbcc", "alice", []byte{1, 2, 3, 4})
	st.Set("urn:snipe:process:p1", AttrState, "running")
	st.Remove("urn:snipe:process:p1", AttrState, "running")
	peer.Set("urn:snipe:host:beta", AttrArch, "sparc")
	peer.Add("urn:snipe:file:f1", AttrLocation, "http://d/f1")
	peer.Set("urn:snipe:host:alpha", AttrLoad, "0.75")
	peer.Add("urn:snipe:host:beta", AttrInterface, "tcp://beta:1")
	peer.Add("urn:snipe:host:beta", AttrInterface, "tcp://beta:2")
	ops := peer.OpsSince(nil, 0)
	st.ApplyRemote([]Assertion{ops[0], ops[1], ops[3], ops[4]})
	st.Compact(6)
	return st
}

// goldenHash is the ContentHash of goldenStore's catalog, as the release
// that wrote testdata/golden.snap computed it.
const goldenHash = "eaf2ee865decef03e4c491d9bc24b4ae09d3c9501b38ecbb18430366de134f2a"

// TestGoldenSnapshot: a snapshot file written before entries and the log
// took their compact form loads to the same catalog, vector, floors and
// log — ContentHash equal to the value that release computed — and goes
// round SaveTo and LoadStore unchanged. goldenStore, built on this tree,
// is the witness for everything but the hash.
func TestGoldenSnapshot(t *testing.T) {
	f, err := os.Open(filepath.Join("testdata", "golden.snap"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	loaded, err := LoadStore(f)
	if err != nil {
		t.Fatal(err)
	}
	var file bytes.Buffer
	if err := loaded.SaveTo(&file); err != nil {
		t.Fatal(err)
	}
	reloaded, err := LoadStore(&file)
	if err != nil {
		t.Fatal(err)
	}
	want := goldenStore()
	// Below the floor (rc1 ≤ 4), at it, past rc2's hole, and from nothing.
	vectors := []VersionVector{nil, {"rc1": 4}, {"rc1": 4, "rc2": 1}, {"rc1": 7, "rc2": 3}}
	for _, c := range []struct {
		name string
		st   *Store
	}{{"loaded", loaded}, {"saved and loaded again", reloaded}, {"built on this tree", want}} {
		if h := c.st.ContentHash(); hex.EncodeToString(h[:]) != goldenHash {
			t.Errorf("%s: ContentHash %x, want %s", c.name, h, goldenHash)
		}
		if c.st == want {
			continue
		}
		gu, ge, gt := c.st.Stats()
		wu, we, wt := want.Stats()
		if gu != wu || ge != we || gt != wt {
			t.Errorf("%s: Stats %d %d %d, want %d %d %d", c.name, gu, ge, gt, wu, we, wt)
		}
		if got, w := c.st.Vector(), want.Vector(); !got.Dominates(w) || !w.Dominates(got) {
			t.Errorf("%s: Vector %v, want %v", c.name, got, w)
		}
		if got, w := logLen(c.st), logLen(want); got != w {
			t.Errorf("%s: LogLen %d, want %d", c.name, got, w)
		}
		for _, vv := range vectors {
			if got, w := c.st.CanServeTail(vv), want.CanServeTail(vv); got != w {
				t.Errorf("%s: CanServeTail(%v) = %v, want %v", c.name, vv, got, w)
			}
			if got, w := opSet(c.st.OpsSince(vv, 0)), opSet(want.OpsSince(vv, 0)); got != w {
				t.Errorf("%s: OpsSince(%v) = %s, want %s", c.name, vv, got, w)
			}
		}
	}
	// What the release that wrote the file read back from it.
	if u, e, tb := want.Stats(); u != 5 || e != 9 || tb != 2 {
		t.Errorf("the golden store's Stats are %d %d %d, want 5 9 2", u, e, tb)
	}
	if vv := want.Vector(); len(vv) != 2 || vv["rc1"] != 10 || vv["rc2"] != 2 || logLen(want) != 10 {
		t.Errorf("the golden store's vector is %v with %d ops logged, want rc1:10 rc2:2 and 10", vv, logLen(want))
	}
	if n := len(want.OpsSince(VersionVector{"rc1": 4}, 0)); n != 8 {
		t.Errorf("the golden store serves %d ops above rc1's floor, want 6 of rc1 and 2 of rc2", n)
	}
}

// opSet renders ops as a sorted multiset.
func opSet(ops []Assertion) string {
	s := make([]string, len(ops))
	for i := range ops {
		s[i] = entryString(&ops[i])
	}
	sort.Strings(s)
	return strings.Join(s, "\n")
}
