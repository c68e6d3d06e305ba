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
	if s.Compact(0) == 0 || s.LogLen() != 0 {
		t.Fatalf("Compact(0) left %d log entries", s.LogLen())
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
	// snapshot, and converges via anti-entropy.
	s0 := NewServer(NewStore("rc0"), WithAntiEntropyInterval(30*time.Millisecond))
	if err := s0.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer s0.Close()
	s1 := NewServer(NewStore("rc1"),
		WithPeers(s0.Addr()), WithAntiEntropyInterval(30*time.Millisecond))
	if err := s1.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	s0.SetPeers(s1.Addr())

	c := NewClient([]string{s0.Addr()}, nil)
	defer c.Close()
	c.Set(context.Background(), "urn:a", "k", "before")

	// Replica 1 receives the write, snapshots, and dies.
	c1 := NewClient([]string{s1.Addr()}, nil)
	wctx, wcancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer wcancel()
	if _, err := c1.WaitFor(wctx, "urn:a", "k"); err != nil {
		t.Fatal(err)
	}
	c1.Close()
	var snap bytes.Buffer
	if err := s1.Store().SaveTo(&snap); err != nil {
		t.Fatal(err)
	}
	s1.Close()

	// A write lands while replica 1 is down.
	c.Set(context.Background(), "urn:a", "k2", "while-down")

	// Restart from the snapshot; anti-entropy pulls the missed write.
	restored, err := LoadStore(&snap)
	if err != nil {
		t.Fatal(err)
	}
	s1b := NewServer(restored, WithPeers(s0.Addr()), WithAntiEntropyInterval(30*time.Millisecond))
	if err := s1b.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer s1b.Close()
	c1b := NewClient([]string{s1b.Addr()}, nil)
	defer c1b.Close()
	wctx2, wcancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer wcancel2()
	if v, err := c1b.WaitFor(wctx2, "urn:a", "k2"); err != nil || v != "while-down" {
		t.Fatalf("catch-up: %q %v", v, err)
	}
	// And it kept the pre-crash state.
	if v, ok, _ := c1b.FirstValue(context.Background(), "urn:a", "k"); !ok || v != "before" {
		t.Fatalf("pre-crash state: %q %v", v, ok)
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
	st.SetNowFunc(clock)
	peer.SetNowFunc(clock)
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
		if got, w := c.st.LogLen(), want.LogLen(); got != w {
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
	if vv := want.Vector(); len(vv) != 2 || vv["rc1"] != 10 || vv["rc2"] != 2 || want.LogLen() != 10 {
		t.Errorf("the golden store's vector is %v with %d ops logged, want rc1:10 rc2:2 and 10", vv, want.LogLen())
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
