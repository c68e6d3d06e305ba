package fileserv

import (
	"bytes"
	"errors"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"snipe/internal/comm"
	"snipe/internal/lifn"
	"snipe/internal/naming"
	"snipe/internal/rcds"
	"snipe/internal/testutil"
)

type world struct {
	t     *testing.T
	store *rcds.Store
	cat   naming.Catalog
}

func newWorld(t *testing.T) *world {
	s := rcds.NewStore("fs-test")
	return &world{t: t, store: s, cat: naming.StoreCatalog(s)}
}

func (w *world) server(name string) *Server {
	w.t.Helper()
	s, err := NewServer(name, w.cat, nil)
	if err != nil {
		w.t.Fatal(err)
	}
	w.t.Cleanup(s.Close)
	return s
}

func (w *world) client(urn string) *Client {
	w.t.Helper()
	ep := comm.NewEndpoint(urn, comm.WithResolver(naming.NewResolver(w.cat)))
	route, err := ep.Listen(comm.ListenSpec{Transport: "tcp", Addr: "127.0.0.1:0"})
	if err != nil {
		w.t.Fatal(err)
	}
	naming.Register(w.cat, urn, []comm.Route{route})
	w.t.Cleanup(ep.Close)
	return NewClient(w.cat, ep)
}

func TestStoreAndFetch(t *testing.T) {
	w := newWorld(t)
	s := w.server("fs1")
	c := w.client("urn:fc")
	data := []byte("observations: 42")
	if err := c.Store(s.URN(), "weather.dat", data); err != nil {
		t.Fatal(err)
	}
	got, err := c.Fetch(s.URN(), "weather.dat")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("fetch: %q %v", got, err)
	}
	// Location registered in RC metadata.
	locs := w.store.Values(naming.FileURN("weather.dat"), rcds.AttrLocation)
	if len(locs) != 1 || locs[0] != s.URN() {
		t.Fatalf("locations: %v", locs)
	}
}

func TestFetchMissing(t *testing.T) {
	w := newWorld(t)
	s := w.server("fs1")
	c := w.client("urn:fc")
	if _, err := c.Fetch(s.URN(), "ghost"); !errors.Is(err, ErrRemote) {
		t.Fatalf("want ErrRemote, got %v", err)
	}
}

func TestLargeFileChunked(t *testing.T) {
	w := newWorld(t)
	s := w.server("fs1")
	c := w.client("urn:fc")
	data := make([]byte, 3*chunkSize+17)
	for i := range data {
		data[i] = byte(i * 13)
	}
	if err := c.Store(s.URN(), "big.bin", data); err != nil {
		t.Fatal(err)
	}
	got, err := c.Fetch(s.URN(), "big.bin")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("large fetch: len=%d err=%v", len(got), err)
	}
}

func TestEmptyFile(t *testing.T) {
	w := newWorld(t)
	s := w.server("fs1")
	c := w.client("urn:fc")
	if err := c.Store(s.URN(), "empty", nil); err != nil {
		t.Fatal(err)
	}
	got, err := c.Fetch(s.URN(), "empty")
	if err != nil || len(got) != 0 {
		t.Fatalf("empty fetch: %v %v", got, err)
	}
}

func TestSinkIncrementalWrites(t *testing.T) {
	// The paper's file sink: a process streams messages; they land in
	// one file.
	w := newWorld(t)
	s := w.server("fs1")
	c := w.client("urn:fc")
	sink := c.OpenSink(s.URN(), "log.txt")
	for i := 0; i < 5; i++ {
		if err := sink.Write([]byte(fmt.Sprintf("line %d\n", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := sink.Close(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	got, err := c.Fetch(s.URN(), "log.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := "line 0\nline 1\nline 2\nline 3\nline 4\n"
	if string(got) != want {
		t.Fatalf("sink content: %q", got)
	}
}

func TestTwoWritersDoNotInterleave(t *testing.T) {
	w := newWorld(t)
	s := w.server("fs1")
	c1 := w.client("urn:w1")
	c2 := w.client("urn:w2")
	s1 := c1.OpenSink(s.URN(), "same-name")
	s2 := c2.OpenSink(s.URN(), "other-name")
	s1.Write([]byte("AAA"))
	s2.Write([]byte("BBB"))
	s1.Write([]byte("aaa"))
	if err := s1.Close(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	got, _ := c1.Fetch(s.URN(), "same-name")
	if string(got) != "AAAaaa" {
		t.Fatalf("writer isolation: %q", got)
	}
}

func TestStreamToThirdParty(t *testing.T) {
	// A file source streams to a process other than the requester.
	w := newWorld(t)
	s := w.server("fs1")
	requester := w.client("urn:requester")
	receiverClient := w.client("urn:receiver3p")
	receiverEP := receiverClient.ep

	data := make([]byte, 2*chunkSize+5)
	for i := range data {
		data[i] = byte(i * 7)
	}
	s.Put("stream.dat", data)
	if err := requester.StreamTo(s.URN(), "stream.dat", "urn:receiver3p"); err != nil {
		t.Fatal(err)
	}
	name, got, err := ReceiveStream(receiverEP, s.URN(), 10*time.Second)
	if err != nil || name != "stream.dat" || !bytes.Equal(got, data) {
		t.Fatalf("stream: %q len=%d err=%v", name, len(got), err)
	}
}

// TestReceiveStreamBesideFetch: a stream and a fetch from one server
// arrive on one endpoint at once, and each gets its own bytes.
func TestReceiveStreamBesideFetch(t *testing.T) {
	w := newWorld(t)
	s := w.server("fs1")
	requester := w.client("urn:requester")
	c := w.client("urn:fc")
	streamed := bytes.Repeat([]byte("s"), 2*chunkSize+5)
	fetched := bytes.Repeat([]byte("f"), 2*chunkSize+9)
	s.Put("streamed.dat", streamed)
	s.Put("fetched.dat", fetched)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		name, got, err := ReceiveStream(c.ep, s.URN(), 10*time.Second)
		if err != nil || name != "streamed.dat" || !bytes.Equal(got, streamed) {
			t.Errorf("stream: %q len=%d err=%v", name, len(got), err)
		}
	}()
	if err := requester.StreamTo(s.URN(), "streamed.dat", "urn:fc"); err != nil {
		t.Fatal(err)
	}
	got, err := c.Fetch(s.URN(), "fetched.dat")
	if err != nil || !bytes.Equal(got, fetched) {
		t.Errorf("fetch: len=%d err=%v", len(got), err)
	}
	wg.Wait()
}

func TestStreamToMissingFile(t *testing.T) {
	w := newWorld(t)
	s := w.server("fs1")
	requester := w.client("urn:requester")
	receiver := w.client("urn:receiver3p")
	if err := requester.StreamTo(s.URN(), "ghost", "urn:receiver3p"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReceiveStream(receiver.ep, s.URN(), 5*time.Second); !errors.Is(err, ErrRemote) {
		t.Fatalf("missing file stream: %v", err)
	}
}

func TestList(t *testing.T) {
	w := newWorld(t)
	s := w.server("fs1")
	c := w.client("urn:fc")
	s.Put("b", []byte("2"))
	s.Put("a", []byte("1"))
	files, err := c.List(s.URN())
	if err != nil || len(files) != 2 || files[0] != "a" {
		t.Fatalf("List = %v, %v", files, err)
	}
}

// TestSetTimeoutBesideList: the timeout may change while calls that
// read it are in flight.
func TestSetTimeoutBesideList(t *testing.T) {
	w := newWorld(t)
	s := w.server("fs1")
	c := w.client("urn:fc")
	s.Put("a", []byte("1"))
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := c.List(s.URN()); err != nil {
			t.Errorf("List: %v", err)
		}
	}()
	c.SetTimeout(5 * time.Second)
	wg.Wait()
}

func TestPullReplication(t *testing.T) {
	w := newWorld(t)
	s1 := w.server("fs1")
	s2 := w.server("fs2")
	c := w.client("urn:fc")
	s1.Put("shared", []byte("replica me"))
	if err := c.Pull(s2.URN(), "shared", s1.URN()); err != nil {
		t.Fatal(err)
	}
	got, ok := s2.Get("shared")
	if !ok || string(got) != "replica me" {
		t.Fatalf("pulled: %q %v", got, ok)
	}
	// Both servers are now registered locations.
	locs := w.store.Values(naming.FileURN("shared"), rcds.AttrLocation)
	if len(locs) != 2 {
		t.Fatalf("locations after pull: %v", locs)
	}
}

func TestReplicatorSweep(t *testing.T) {
	w := newWorld(t)
	s1 := w.server("fs1")
	s2 := w.server("fs2")
	s3 := w.server("fs3")
	s1.Put("f1", []byte("one"))
	s2.Put("f2", []byte("two"))

	r := NewReplicator(w.client("urn:repl"), ReplicationPolicy{MinReplicas: 2})
	created := r.RunOnce()
	if created != 2 {
		t.Fatalf("created %d replicas, want 2", created)
	}
	// Every file now has 2 replicas; a second sweep is a no-op.
	if created := r.RunOnce(); created != 0 {
		t.Fatalf("second sweep created %d", created)
	}
	count := 0
	for _, s := range []*Server{s1, s2, s3} {
		if _, ok := s.Get("f1"); ok {
			count++
		}
	}
	if count != 2 {
		t.Fatalf("f1 has %d replicas", count)
	}
}

func TestReplicatorBackground(t *testing.T) {
	w := newWorld(t)
	s1 := w.server("fs1")
	s2 := w.server("fs2")
	r := NewReplicator(w.client("urn:repl"), ReplicationPolicy{MinReplicas: 2, Interval: 50 * time.Millisecond})
	r.Start()
	defer r.Stop()
	s1.Put("late-file", []byte("data"))
	testutil.WaitFor(t, 5*time.Second, func() bool {
		_, ok := s2.Get("late-file")
		return ok
	}, "background replication never happened")
	// The file is on s2 before the Pull that put it there has returned
	// to the replicator, which counts the copy only then.
	testutil.WaitFor(t, 5*time.Second, func() bool { return r.Copied() > 0 },
		"Copied() never counted the replica")
	r.Stop() // idempotent
}

func TestFetchAnyFailover(t *testing.T) {
	w := newWorld(t)
	s1 := w.server("fs1")
	s2 := w.server("fs2")
	s1.Put("ha-file", []byte("available"))
	c := w.client("urn:fc")
	if err := c.Pull(s2.URN(), "ha-file", s1.URN()); err != nil {
		t.Fatal(err)
	}
	// Kill the first replica; FetchAny must fail over to the second.
	s1.Close()
	c.SetTimeout(2 * time.Second)
	got, err := c.FetchAny("ha-file", nil)
	if err != nil || string(got) != "available" {
		t.Fatalf("FetchAny after replica failure: %q %v", got, err)
	}
	// No replicas at all.
	if _, err := c.FetchAny("never-stored", nil); !errors.Is(err, lifn.ErrNoLocations) {
		t.Fatalf("want ErrNoLocations, got %v", err)
	}
}

func TestHTTPExport(t *testing.T) {
	w := newWorld(t)
	s := w.server("fs1")
	s.Put("doc.txt", []byte("hypertext"))
	ts := httptest.NewServer(s)
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/files/doc.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := make([]byte, 32)
	n, _ := resp.Body.Read(buf)
	if resp.StatusCode != 200 || string(buf[:n]) != "hypertext" {
		t.Fatalf("HTTP: %d %q", resp.StatusCode, buf[:n])
	}
	if resp2, _ := ts.Client().Get(ts.URL + "/files/missing"); resp2.StatusCode != 404 {
		t.Fatalf("missing file: %d", resp2.StatusCode)
	}
	if resp3, _ := ts.Client().Get(ts.URL + "/other"); resp3.StatusCode != 404 {
		t.Fatalf("bad path: %d", resp3.StatusCode)
	}
}

func TestServiceRegistration(t *testing.T) {
	w := newWorld(t)
	s1 := w.server("fs1")
	w.server("fs2")
	c := w.client("urn:fc")
	servers, err := c.Servers()
	if err != nil || len(servers) != 2 {
		t.Fatalf("Servers = %v, %v", servers, err)
	}
	s1.Close()
	servers, _ = c.Servers()
	if len(servers) != 1 {
		t.Fatalf("after close: %v", servers)
	}
}

func TestFileMsgRoundTrip(t *testing.T) {
	f := &fileMsg{Op: opData, ReqID: 7, Name: "n", Dst: "d", Data: []byte{1},
		EOF: true, OK: true, Err: "e", Names: []string{"x"}}
	got, err := decodeFileMsg(f.encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Op != opData || got.ReqID != 7 || got.Name != "n" || got.Dst != "d" ||
		!got.EOF || !got.OK || got.Err != "e" || len(got.Names) != 1 {
		t.Fatalf("round trip: %+v", got)
	}
	if _, err := decodeFileMsg([]byte{9}); err == nil {
		t.Fatal("truncated accepted")
	}
}
