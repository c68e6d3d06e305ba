package rcds

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"snipe/internal/testutil"
	"snipe/internal/xdr"
)

// linkCount is what crossed a frameRelay in one direction.
type linkCount struct{ frames, bytes atomic.Int64 }

// frameRelay is a TCP relay in front of one server that counts what
// crosses it, per direction, in bytes and in frames (by their length
// prefixes; tests here run without a secret, so a frame is its header
// and body).
type frameRelay struct {
	ln       net.Listener
	up, down linkCount // up: from whoever dialled the relay to the server; down: back

	mu     sync.Mutex
	conns  []net.Conn
	resume chan struct{} // while set, nothing more is read on the way up; closed to go on
	wg     sync.WaitGroup
}

// pause stops the relay reading what the dialling side sends, as a
// server whose reader has stalled: its socket buffers fill, and then the
// writer's writes block.
func (r *frameRelay) pause() {
	r.mu.Lock()
	if r.resume == nil {
		r.resume = make(chan struct{})
	}
	r.mu.Unlock()
}

// unpause lets the relay read on.
func (r *frameRelay) unpause() {
	r.mu.Lock()
	if r.resume != nil {
		close(r.resume)
		r.resume = nil
	}
	r.mu.Unlock()
}

// waitUp holds the up pump while the relay is paused.
func (r *frameRelay) waitUp() {
	r.mu.Lock()
	resume := r.resume
	r.mu.Unlock()
	if resume != nil {
		<-resume
	}
}

func startFrameRelay(t testing.TB, backend string) *frameRelay {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	r := &frameRelay{ln: ln}
	r.wg.Add(1)
	//lint:allow goroutinelife the accept loop exits when cleanup closes the listener
	go func() {
		defer r.wg.Done()
		for {
			in, err := ln.Accept()
			if err != nil {
				return
			}
			out, err := net.Dial("tcp", backend)
			if err != nil {
				in.Close()
				continue
			}
			r.mu.Lock()
			r.conns = append(r.conns, in, out)
			r.mu.Unlock()
			r.wg.Add(2)
			go r.pump(in, out, &r.up)
			go r.pump(out, in, &r.down)
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		r.unpause()
		r.mu.Lock()
		for _, c := range r.conns {
			c.Close()
		}
		r.mu.Unlock()
		r.wg.Wait()
	})
	return r
}

func (r *frameRelay) Addr() string { return r.ln.Addr().String() }

// pump forwards src to dst until either fails, counting into n. It
// allocates nothing per read, so a test that counts the process's
// allocations may have it in the path.
func (r *frameRelay) pump(src, dst net.Conn, n *linkCount) {
	defer r.wg.Done()
	defer dst.Close()
	buf := make([]byte, 32<<10)
	var hdr [4]byte
	hdrGot, body := 0, 0 // bytes of the current header read; bytes of the current body still to come
	for {
		if n == &r.up {
			r.waitUp()
		}
		got, err := src.Read(buf)
		for b := buf[:got]; len(b) > 0; {
			if body > 0 {
				skip := min(body, len(b))
				body, b = body-skip, b[skip:]
				continue
			}
			c := copy(hdr[hdrGot:], b)
			hdrGot, b = hdrGot+c, b[c:]
			if hdrGot == len(hdr) {
				n.frames.Add(1)
				hdrGot, body = 0, int(binary.BigEndian.Uint32(hdr[:]))
			}
		}
		n.bytes.Add(int64(got))
		if got > 0 {
			if _, werr := dst.Write(buf[:got]); werr != nil {
				return
			}
		}
		if err != nil {
			return
		}
	}
}

// fakePeer is a raw listener that plays a replica to one push link: it
// answers the link's Ping, then reads frames and never writes again.
// What it reads it hands to the serve of a server that is never started,
// which says whether the frame was a well-formed posted Apply and counts
// its ops.
type fakePeer struct {
	ln          net.Listener
	srv         *Server
	frames, bad atomic.Int64 // frames after the Ping; those that were no posted Apply
}

func (p *fakePeer) ops() uint64 { return counter(p.srv, "remote_ops") }

func startFakePeer(t *testing.T, origin string) *fakePeer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &fakePeer{ln: ln, srv: NewServer(NewStore(origin))}
	done := make(chan struct{})
	var conn net.Conn
	//lint:allow goroutinelife the read loop exits when the pusher's Close closes the link, the Accept when cleanup closes the listener
	go func() {
		defer close(done)
		var err error
		if conn, err = ln.Accept(); err != nil {
			return
		}
		fr, fw := xdr.NewFrameReader(conn), xdr.NewFrameWriter(conn)
		for pinged := false; ; {
			frame, err := nextFrame(fr, nil)
			if err != nil {
				return
			}
			resp, err := p.srv.serve(new(served), frame, nil)
			if !pinged && err == nil && resp != nil {
				pinged = true
				if writeFrame(fw, resp, nil) != nil {
					return
				}
				continue
			}
			p.frames.Add(1)
			if err != nil || resp != nil {
				p.bad.Add(1)
			}
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		// The pusher's Close has closed its end by now, which ends the
		// read loop; a link that never connected ends at the Accept.
		<-done
		if conn != nil {
			conn.Close()
		}
	})
	return p
}

// TestPushAsksForNoAnswer: a peer that never answers an Apply is a
// healthy peer. 200 writes reach it well inside pushTimeout — the old
// push RPC would have spent that long on the first — every one in a
// frame under request ID 0, none counted as a failure.
func TestPushAsksForNoAnswer(t *testing.T) {
	const n = 200
	peer := startFakePeer(t, "mute")
	rc0 := NewServer(NewStore("rc0"), WithPeers(peer.ln.Addr().String()), WithAntiEntropyInterval(0))
	if err := rc0.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer rc0.Close()

	setN(t, rc0, n)
	testutil.WaitFor(t, pushTimeout/2, func() bool { return peer.ops() == n },
		"the mute peer did not receive every op")
	if got, want := counter(rc0, "applies_sent"), uint64(peer.frames.Load()); got != want {
		t.Errorf("applies_sent = %d, the peer read %d frames", got, want)
	}
	if got := counter(rc0, "apply_ops_sent"); got != n {
		t.Errorf("apply_ops_sent = %d, want %d", got, n)
	}
	if bad := peer.bad.Load(); bad != 0 {
		t.Errorf("the peer read %d frames that were no well-formed Apply under request ID 0", bad)
	}
	if f := rc0.PushFailures(); f != 0 {
		t.Errorf("%d push failures", f)
	}
}

// TestPushLinkCarriesNothingBack: between two real replicas the push
// link's peer → pusher direction carries the Ping reply that named the
// peer, and then nothing, however many writes cross the other way.
func TestPushLinkCarriesNothingBack(t *testing.T) {
	const n = 100
	rc := startChain(t, [][]int{{}, {}})
	relay := startFrameRelay(t, rc[1].Addr())
	rc[0].SetPeers(relay.Addr())
	setN(t, rc[0], n)
	testutil.WaitFor(t, 5*time.Second, func() bool {
		return rc[1].Store().Vector().Dominates(rc[0].Store().Vector())
	}, "replica 1 never caught up by push alone")

	pong := okResponse(func(e *xdr.Encoder) { e.PutString("rc1") })
	if frames, b := relay.down.frames.Load(), relay.down.bytes.Load(); frames != 1 || b != int64(4+len(pong)) {
		t.Errorf("peer → pusher carried %d frames, %d bytes; want the Ping reply alone (1 frame, %d bytes)", frames, b, 4+len(pong))
	}
	sent := counter(rc[0], "applies_sent")
	if got := uint64(relay.up.frames.Load()); got != sent+1 {
		t.Errorf("pusher → peer carried %d frames, want the Ping and %d Applies", got, sent)
	}
	if got := counter(rc[1], "applies_received"); got != sent {
		t.Errorf("replica 1 applied %d frames of the %d sent", got, sent)
	}
	if f := rc[0].PushFailures(); f != 0 {
		t.Errorf("%d push failures", f)
	}
}

// TestPushKeepsWriteOrder: writes pipelined on one connection are minted,
// queued and pushed by that connection's read loop alone, and a link's
// frames are applied in the order written — so replica 1 learns replica
// 0's ops in the order replica 0 minted them, with no anti-entropy to
// tidy up behind.
func TestPushKeepsWriteOrder(t *testing.T) {
	const writers, each = 16, 100
	rc := startChain(t, [][]int{{1}, {0}})
	events := make(chan Event, 2*writers*each) // roomy: the store drops what does not fit
	sub := rc[1].Store().Subscribe("", events)
	defer rc[1].Store().Unsubscribe(sub)

	c := NewClient([]string{rc[0].Addr()}, nil)
	defer c.Close()
	ctx := ctxTimeout(t, "30s")
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := c.Set(ctx, fmt.Sprintf("urn:w%02d", w), AttrState, fmt.Sprint(i)); err != nil {
					t.Errorf("writer %d, Set %d: %v", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	var last uint64
	deadline := time.After(10 * time.Second)
	for seen := 0; seen < writers*each; seen++ {
		select {
		case ev := <-events:
			a := ev.Assertion
			if a.Origin != "rc0" || a.Seq <= last {
				t.Fatalf("event %d at replica 1: %s seq %d after seq %d", seen, a.Origin, a.Seq, last)
			}
			last = a.Seq
		case <-deadline:
			t.Fatalf("replica 1 saw %d of %d writes", seen, writers*each)
		}
	}
	if f := rc[0].PushFailures() + rc[1].PushFailures(); f != 0 {
		t.Errorf("%d push failures", f)
	}
}

// rawConn is a client connection driven frame by frame.
type rawConn struct {
	net.Conn
	fr *xdr.FrameReader
}

func dialRaw(t *testing.T, addr string) *rawConn {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &rawConn{Conn: conn, fr: xdr.NewFrameReader(conn)}
}

// appendRequest appends req to wire as a frame under the given ID.
func appendRequest(wire *bytes.Buffer, id uint64, req []byte) {
	setMuxID(req, id)
	writeFrame(xdr.NewFrameWriter(wire), req, nil)
}

// next reads one response, within 5 s, and returns its ID and payload.
func (rc *rawConn) next(t *testing.T) (uint64, *xdr.Decoder) {
	t.Helper()
	rc.SetReadDeadline(time.Now().Add(5 * time.Second))
	frame, err := nextFrame(rc.fr, nil)
	if err != nil {
		t.Fatalf("reading a response: %v", err)
	}
	id, body, err := splitMux(frame)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := parseBody(body)
	if err != nil {
		t.Fatalf("response %d: %v", id, err)
	}
	return id, dec
}

// TestRequestsAnsweredInArrivalOrder: 100 Gets that arrive in one
// segment are answered 1…100. (That a Wait still overlaps them is
// TestRequestOverlap's.)
func TestRequestsAnsweredInArrivalOrder(t *testing.T) {
	const n = 100
	s := startTestServer(t, "order")
	for i := 1; i <= n; i++ {
		s.Store().Set(fmt.Sprintf("urn:o%03d", i), "k", fmt.Sprint(i))
	}
	rc := dialRaw(t, s.Addr())
	var wire bytes.Buffer
	for i := 1; i <= n; i++ {
		appendRequest(&wire, uint64(i), request(cmdGet, func(e *xdr.Encoder) { e.PutString(fmt.Sprintf("urn:o%03d", i)) }))
	}
	if _, err := rc.Write(wire.Bytes()); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= n; i++ {
		id, d := rc.next(t)
		as, err := DecodeAssertions(d)
		if id != uint64(i) || err != nil || len(as) != 1 || as[0].Value != fmt.Sprint(i) {
			t.Fatalf("response %d carries ID %d and %v (%v)", i, id, as, err)
		}
	}
}

// TestParkedWaitsAreBounded: of 1,100 long-polls on one connection
// maxParkedWaits park and the rest are answered at once with the current
// version; a lookup behind all of them is answered as promptly as on an
// idle connection, and a write then wakes every parked one.
func TestParkedWaitsAreBounded(t *testing.T) {
	const waits = maxParkedWaits + 76
	s := startTestServer(t, "parked")
	s.Store().Set("urn:p", "k", "v")
	version := s.Store().Version()
	rc := dialRaw(t, s.Addr())

	var wire bytes.Buffer
	for i := 1; i <= waits; i++ {
		appendRequest(&wire, uint64(i), request(cmdWait, func(e *xdr.Encoder) {
			e.PutUint64(version)
			e.PutUint32(60_000)
		}))
	}
	if _, err := rc.Write(wire.Bytes()); err != nil {
		t.Fatal(err)
	}
	for i := maxParkedWaits + 1; i <= waits; i++ {
		id, d := rc.next(t)
		if v, _ := d.Uint64(); id != uint64(i) || v != version {
			t.Fatalf("answered at once: ID %d with version %d; want ID %d (the first %d park) with version %d",
				id, v, i, maxParkedWaits, version)
		}
	}

	wire.Reset()
	appendRequest(&wire, waits+1, request(cmdFirst, func(e *xdr.Encoder) { e.PutString("urn:p"); e.PutString("k") }))
	sent := time.Now()
	if _, err := rc.Write(wire.Bytes()); err != nil {
		t.Fatal(err)
	}
	if id, _ := rc.next(t); id != waits+1 {
		t.Fatalf("response ID %d, want the lookup's (%d): a parked Wait returned with nothing written", id, waits+1)
	}
	if took := time.Since(sent); took > 50*time.Millisecond {
		t.Errorf("a lookup behind %d long-polls took %v, want ≤ 50ms", waits, took)
	}

	s.Store().Set("urn:p", "k", "w")
	woken := make(map[uint64]bool)
	for len(woken) < maxParkedWaits {
		id, d := rc.next(t)
		if v, _ := d.Uint64(); id == 0 || id > maxParkedWaits || woken[id] || v <= version {
			t.Fatalf("woken long-poll: ID %d, version %d (since %d), already seen %v", id, v, version, woken[id])
		}
		woken[id] = true
	}
}

// deafConn is a connection whose peer can no longer be written to: reads
// go through, every write fails. (On loopback TCP a peer that shuts its
// read side down still acknowledges what it is sent, so a real socket
// would not show the server the failure.)
type deafConn struct{ net.Conn }

func (deafConn) Write([]byte) (int, error) { return 0, errors.New("peer is not reading") }

// TestUnwritableResponseEndsConnection: a client that sends 64 lookups
// and can be answered none of them is served until the first response
// fails to go out, not for as long as it keeps sending.
func TestUnwritableResponseEndsConnection(t *testing.T) {
	srv := NewServer(NewStore("rc0"))
	defer srv.Close()
	peer, conn := net.Pipe()
	defer peer.Close()
	srv.mu.Lock()
	srv.conns[conn] = struct{}{}
	srv.mu.Unlock()
	srv.wg.Add(1)
	go srv.serveConn(deafConn{conn})

	var wire bytes.Buffer
	for i := 1; i <= 64; i++ {
		appendRequest(&wire, uint64(i), request(cmdGet, func(e *xdr.Encoder) { e.PutString("urn:x") }))
	}
	// The pipe is synchronous: once the handler is gone the write fails,
	// which is the outcome wanted, so its error is not one.
	peer.SetWriteDeadline(time.Now().Add(5 * time.Second))
	peer.Write(wire.Bytes())
	handlerGone := make(chan struct{})
	go func() {
		srv.wg.Wait()
		close(handlerGone)
	}()
	select {
	case <-handlerGone:
	case <-time.After(time.Second):
		t.Fatal("the connection's handler is still serving a client it cannot answer")
	}
}

// TestConnectionEndTakesItsLongPollsAlong: the long-polls a connection
// parked do not outlive it by their timeouts.
func TestConnectionEndTakesItsLongPollsAlong(t *testing.T) {
	s := startTestServer(t, "gone")
	rc := dialRaw(t, s.Addr())
	var wire bytes.Buffer
	for i := 1; i <= 8; i++ {
		appendRequest(&wire, uint64(i), request(cmdWait, func(e *xdr.Encoder) {
			e.PutUint64(s.Store().Version())
			e.PutUint32(600_000)
		}))
	}
	// A lookup behind them: its answer says the eight are parked.
	appendRequest(&wire, 9, request(cmdPing, nil))
	if _, err := rc.Write(wire.Bytes()); err != nil {
		t.Fatal(err)
	}
	if id, _ := rc.next(t); id != 9 {
		t.Fatalf("response ID %d, want the Ping's", id)
	}
	rc.Close()
	testutil.WaitFor(t, time.Second, func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return len(s.conns) == 0
	}, "the handler outlived its connection, waiting on long-polls nobody can be told the end of")
}
