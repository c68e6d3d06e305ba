package rcds

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"snipe/internal/testutil"
	"snipe/internal/xdr"
)

// Who owns which buffer until when (DESIGN.md "What a catalog operation
// allocates"): a server connection's frame buffer until the response is
// written, a call record until its caller has decoded. These tests hold
// each owner to that: what must outlive a buffer does not alias it, what
// was abandoned is not reused, what grew large is not kept.

// exchange writes one request under id on a raw connection and returns
// the response's payload.
func (rc *rawConn) exchange(t *testing.T, id uint64, req []byte) *xdr.Decoder {
	t.Helper()
	var wire bytes.Buffer
	appendRequest(&wire, id, req)
	if _, err := rc.Write(wire.Bytes()); err != nil {
		t.Fatal(err)
	}
	got, d := rc.next(t)
	if got != id {
		t.Fatalf("response ID %d to request %d", got, id)
	}
	return d
}

// TestServedFrameIsNotKept: a Set is decoded where its frame lies, and
// the next frame is read over it. A's URI, value and origin must survive
// a same-length Set B and a 1 KiB Get on the same connection everywhere A
// went: the catalog, the op log, the push queue (held here until both
// have overwritten the buffer) and, by the same rule one hop on, the
// peer.
func TestServedFrameIsNotKept(t *testing.T) {
	release := make(chan struct{})
	rc1 := NewServer(NewStore("rc1"), WithAntiEntropyInterval(0))
	if err := rc1.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer rc1.Close()
	rc0 := NewServer(NewStore("rc0"), WithPeers(rc1.Addr()), WithAntiEntropyInterval(0))
	rc0.peerGate = func(string) error { <-release; return nil }
	if err := rc0.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer rc0.Close()
	var once sync.Once
	open := func() { once.Do(func() { close(release) }) }
	defer open() // a failed assertion must not leave the pusher in the gate

	const uriA, valA = "urn:owner:aaaaaaaa", "value-of-A"
	const uriB, valB = "urn:owner:bbbbbbbb", "value-of-B"
	set := func(uri, val string) []byte {
		return request(cmdSet, func(e *xdr.Encoder) { e.PutString(uri); e.PutString("attr"); e.PutString(val) })
	}
	get := func(uri string) []byte {
		return request(cmdGet, func(e *xdr.Encoder) { e.PutString(uri) })
	}
	conn := dialRaw(t, rc0.Addr())
	conn.exchange(t, 1, set(uriA, valA))
	conn.exchange(t, 2, set(uriB, valB))
	if as, err := DecodeAssertions(conn.exchange(t, 3, get("urn:owner:"+strings.Repeat("g", 1024)))); err != nil || len(as) != 0 {
		t.Fatalf("Get of an unknown 1 KiB URI: %v, %v", as, err)
	}

	isA := func(where string, a Assertion) {
		t.Helper()
		if a.URI != uriA || a.Name != "attr" || a.Value != valA || a.Origin != "rc0" || !a.Sole {
			t.Errorf("%s: A reads %s", where, a.String())
		}
	}
	as, err := DecodeAssertions(conn.exchange(t, 4, get(uriA)))
	if err != nil || len(as) != 1 {
		t.Fatalf("Get A: %v, %v", as, err)
	}
	isA("Get over the connection", as[0])
	ops, err := DecodeAssertions(conn.exchange(t, 5, request(cmdOpsSince, func(e *xdr.Encoder) {
		VersionVector{}.Encode(e)
		e.PutUint32(0)
	})))
	if err != nil || len(ops) != 2 {
		t.Fatalf("OpsSince: %v, %v", ops, err)
	}
	isA("the op log", ops[0])
	if uris := rc0.Store().URIs(""); len(uris) != 2 || uris[0] != uriA || uris[1] != uriB {
		t.Errorf("the catalog's keys: %q", uris)
	}

	open()
	testutil.WaitFor(t, 5*time.Second, func() bool { return counter(rc1, "remote_ops") == 2 },
		"the peer did not receive both ops")
	if as := rc1.Store().Get(uriA); len(as) != 1 {
		t.Fatalf("the peer's Get A: %v", as)
	} else {
		isA("the peer's catalog", as[0])
	}
	if rc0.Store().ContentHash() != rc1.Store().ContentHash() {
		t.Error("the peer does not hold what replica 0 holds")
	}
}

// TestAbandonedCallIsNotRecycled: a call abandoned with its response
// still to come — the server is holding it, a parked Wait — leaves a
// record the connection's read loop may yet fill, so it must not go back
// to the pool. The response arrives (the first Set wakes the Wait) in the
// middle of 1,000 calls from 8 goroutines, each of which must get its own
// answer and no other's.
func TestAbandonedCallIsNotRecycled(t *testing.T) {
	s := startTestServer(t, "abandon")
	c := NewClient([]string{s.Addr()}, nil)
	defer c.Close()
	ctx := ctxTimeout(t, "30s")
	if err := c.Set(ctx, "urn:abandon", "k", "v"); err != nil {
		t.Fatal(err)
	}
	short, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
	defer cancel()
	cl := newCall(cmdWait) // as Client.Wait makes it
	cl.req.PutUint64(s.Store().Version())
	cl.req.PutUint32(60_000)
	if err := c.roundTrip(short, c.seed, cl); err != context.DeadlineExceeded {
		t.Fatalf("a Wait nothing wakes, under a 50 ms context: %v", err)
	}
	cl.release()
	for i := 0; i < 64; i++ { // a record just pooled is the first the pool hands back
		if callPool.Get().(*call) == cl {
			t.Fatal("the abandoned call's record went back to the pool")
		}
	}

	const callers, each = 8, 125
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			uri := fmt.Sprintf("urn:abandon:%d", g)
			for i := 0; i < each; i++ {
				want := fmt.Sprintf("caller %d call %d", g, i)
				if i%2 == 0 {
					if err := c.Set(ctx, uri, "k", want); err != nil {
						t.Errorf("%s: Set: %v", want, err)
						return
					}
					continue
				}
				want = fmt.Sprintf("caller %d call %d", g, i-1)
				if as, err := c.Get(ctx, uri); err != nil || len(as) != 1 || as[0].URI != uri || as[0].Value != want {
					t.Errorf("Get %s: %v, %v; want the value %q", uri, as, err, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestLargeFrameIsNotPinned: a 1 MiB value goes through every reused
// buffer there is — the client's call record (request and response), its
// connection's, the server connection's frame buffer and response
// encoder, the pusher's record, the peer connection's frame buffer and
// ops — and once it is overwritten and compacted away, none of them still
// holds the room it took: a record taken from the pool holds at most
// maxKeptBuffer, and the heap is back within half a frame of where it
// was.
func TestLargeFrameIsNotPinned(t *testing.T) {
	// maxKeptOps counts ops of the size it was derived from.
	for _, typ := range []reflect.Type{reflect.TypeOf(Assertion{}), reflect.TypeOf(queuedOp{})} {
		if kept := maxKeptOps * int(typ.Size()); kept > maxKeptBuffer {
			t.Errorf("a reused []%s keeps up to %d bytes, want ≤ %d", typ.Name(), kept, maxKeptBuffer)
		}
	}
	rc := startChain(t, [][]int{{1}, {}})
	c := NewClient([]string{rc[0].Addr()}, nil)
	defer c.Close()
	ctx := ctxTimeout(t, "30s")
	replicated := func(n uint64) {
		t.Helper()
		testutil.WaitFor(t, 5*time.Second, func() bool { return counter(rc[1], "remote_ops") == n },
			"the peer did not receive every op")
	}
	roundTrip := func(value string) {
		t.Helper()
		if err := c.Set(ctx, "urn:big", "blob", value); err != nil {
			t.Fatal(err)
		}
		if as, err := c.Get(ctx, "urn:big"); err != nil || len(as) != 1 || as[0].Value != value {
			t.Fatalf("read back %d assertions, %v; want the %d bytes written", len(as), err, len(value))
		}
	}
	roundTrip("small")
	replicated(1)
	before := settledHeap()

	roundTrip(strings.Repeat("0123456789abcdef", maxWireValue/16))
	replicated(2)
	// The record the Get just released is the first the pool hands back to
	// this goroutine, unless the race detector's pool dropped it or the
	// goroutine moved: look until a used one turns up.
	for try, seen := 0, false; !seen; try++ {
		if try == 20 {
			t.Fatal("the pool never handed back a used record")
		}
		if _, err := c.Get(ctx, "urn:big"); err != nil {
			t.Fatal(err)
		}
		cl := callPool.Get().(*call)
		seen = cap(cl.req.Bytes()) > 0
		if cap(cl.req.Bytes()) > maxKeptBuffer || cap(cl.resp) > maxKeptBuffer || cl.dec.Remaining() != 0 {
			t.Fatalf("a pooled record holds a %d-byte request, a %d-byte response, %d bytes to decode; want ≤ %d, ≤ %d, 0",
				cap(cl.req.Bytes()), cap(cl.resp), cl.dec.Remaining(), maxKeptBuffer, maxKeptBuffer)
		}
	}

	roundTrip("small")
	replicated(3)
	rc[0].Store().Compact(0)
	rc[1].Store().Compact(0)
	if grown := int64(settledHeap()) - int64(before); grown > maxWireValue/2 {
		t.Errorf("after a 1 MiB value came and went the heap holds %d bytes more than before it", grown)
	}
}

// TestParkedWaitOutlivesItsFrame: a Wait parks while the connection's
// read loop goes on to read 100 more frames into the buffer the Wait
// arrived in. When a write wakes it, it answers under its own ID with the
// version past its own since.
func TestParkedWaitOutlivesItsFrame(t *testing.T) {
	s := startTestServer(t, "parked-frame")
	s.Store().Set("urn:parked", "k", "v")
	since := s.Store().Version()
	conn := dialRaw(t, s.Addr())
	const waitID = 0x0102030405060708
	var wire bytes.Buffer
	appendRequest(&wire, waitID, request(cmdWait, func(e *xdr.Encoder) {
		e.PutUint64(since)
		e.PutUint32(60_000)
	}))
	if _, err := conn.Write(wire.Bytes()); err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 100; i++ {
		uri := "urn:parked:" + strings.Repeat("x", int(i))
		if as, err := DecodeAssertions(conn.exchange(t, i, request(cmdGet, func(e *xdr.Encoder) { e.PutString(uri) }))); err != nil || len(as) != 0 {
			t.Fatalf("Get %d: %v, %v", i, as, err)
		}
	}
	s.Store().Set("urn:parked", "k", "w")
	id, d := conn.next(t)
	if v, err := d.Uint64(); id != waitID || err != nil || v != since+1 {
		t.Fatalf("the woken Wait answered under ID %#x with version %d (%v); want ID %#x, version %d", id, v, err, uint64(waitID), since+1)
	}
}

// TestGetOriginTableIsBounded: the table a client shares origins from is
// a peer's to fill, so it has a cap: 1,000 distinct origins through one
// client leave it at maxClientOrigins, and every assertion still names
// its own.
func TestGetOriginTableIsBounded(t *testing.T) {
	const origins = 1000
	s := startTestServer(t, "origins")
	for i := 0; i < origins; i++ {
		s.Store().ApplyRemote([]Assertion{{
			URI: "urn:origins", Name: "k", Value: fmt.Sprintf("v%04d", i),
			Clock: uint64(i + 1), Origin: fmt.Sprintf("rc%04d", i), Seq: 1,
		}})
	}
	c := NewClient([]string{s.Addr()}, nil)
	defer c.Close()
	for round := 0; round < 2; round++ {
		as, err := c.Get(ctxTimeout(t, "10s"), "urn:origins")
		if err != nil || len(as) != origins {
			t.Fatalf("Get: %d assertions, %v", len(as), err)
		}
		for i, a := range as { // in value order, which is origin order
			if want := fmt.Sprintf("rc%04d", i); a.Origin != want || a.URI != "urn:origins" {
				t.Fatalf("round %d: assertion %d names %s under origin %q, want %q", round, i, a.URI, a.Origin, want)
			}
		}
		c.originMu.Lock()
		n := len(c.origins)
		c.originMu.Unlock()
		if n != maxClientOrigins {
			t.Fatalf("round %d: the client's origin table holds %d entries, want its cap of %d", round, n, maxClientOrigins)
		}
	}
}
