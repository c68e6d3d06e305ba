package rcds

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"snipe/internal/testutil"
	"snipe/internal/xdr"
)

// A connection's read loop waits for its next frame inside the
// descriptor's read lock (xdr.FrameReader.Serve), and net.Conn.Close waits
// for that lock: whatever ends a connection from inside the loop must do
// so by an error out of it, and a Close from beside it must still end it.
// Every test here has a hard bound on what it waits for, because the
// failure it guards against is a goroutine that never returns.

// within fails the test unless done is closed within d.
func within(t *testing.T, d time.Duration, done <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%s: still waiting after %v", what, d)
	}
}

// connCount is how many connections s is serving.
func connCount(s *Server) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

// TestRefusedResponseReleasesPendingCalls: a response the client cannot
// accept — its MAC does not verify, or it is too short to carry a request
// ID — ends the connection from inside the read loop, and every call
// pending on it is released to fail over (here to nothing: the one replica
// does the same again) instead of waiting for its context.
func TestRefusedResponseReleasesPendingCalls(t *testing.T) {
	secret := []byte("client's secret")
	cases := map[string]func(fw *xdr.FrameWriter) error{
		"bad MAC": func(fw *xdr.FrameWriter) error {
			return writeFrame(fw, okResponse(nil), []byte("another secret"))
		},
		"short mux frame": func(fw *xdr.FrameWriter) error {
			return writeFrame(fw, []byte{1, 2, 3}, secret)
		},
	}
	for name, reply := range cases {
		t.Run(name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			var served sync.WaitGroup
			accepted := make(chan struct{})
			//lint:allow goroutinelife the accept loop exits when the deferred cleanup closes the listener
			go func() {
				defer close(accepted)
				for {
					conn, err := ln.Accept()
					if err != nil {
						return
					}
					served.Add(1)
					go func() {
						defer served.Done()
						defer conn.Close()
						// One request in, the bad reply out, then whatever
						// else the client sends until it hangs up.
						if _, err := nextFrame(xdr.NewFrameReader(conn), secret); err != nil {
							return
						}
						if reply(xdr.NewFrameWriter(conn)) == nil {
							io.Copy(io.Discard, conn)
						}
					}()
				}
			}()
			defer func() {
				ln.Close()
				<-accepted
				served.Wait()
			}()

			c := NewClient([]string{ln.Addr().String()}, secret)
			defer c.Close()
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			const calls = 8
			errs := make(chan error, calls)
			for i := 0; i < calls; i++ {
				go func() {
					_, err := c.waitOn(ctx, c.seed, 0, 30*time.Second)
					errs <- err
				}()
			}
			released := make(chan struct{})
			go func() {
				defer close(released)
				for i := 0; i < calls; i++ {
					if err := <-errs; !errors.Is(err, ErrNoServers) {
						t.Errorf("a call pending on the refused connection returned %v, want ErrNoServers", err)
					}
				}
			}()
			within(t, 5*time.Second, released, "calls pending on a connection whose response was refused")
		})
	}
}

// TestRefusedRequestEndsConnection: the same two frames sent to a server
// end the connection — the client reads its end — and the handler.
func TestRefusedRequestEndsConnection(t *testing.T) {
	secret := []byte("server's secret")
	cases := map[string][]byte{}
	var wire bytes.Buffer
	writeFrame(xdr.NewFrameWriter(&wire), request(cmdPing, nil), []byte("another secret"))
	cases["bad MAC"] = bytes.Clone(wire.Bytes())
	wire.Reset()
	writeFrame(xdr.NewFrameWriter(&wire), []byte{1, 2, 3}, secret)
	cases["short mux frame"] = bytes.Clone(wire.Bytes())

	for name, frame := range cases {
		t.Run(name, func(t *testing.T) {
			srv := NewServer(NewStore("rc0"), WithSecret(secret))
			if err := srv.Start("127.0.0.1:0"); err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			rc := dialRaw(t, srv.Addr())
			// A good request first: the read loop is parked in the
			// descriptor when the bad one arrives.
			var good bytes.Buffer
			req := request(cmdPing, nil)
			setMuxID(req, 1)
			writeFrame(xdr.NewFrameWriter(&good), req, secret)
			if _, err := rc.Write(good.Bytes()); err != nil {
				t.Fatal(err)
			}
			rc.SetReadDeadline(time.Now().Add(5 * time.Second))
			if _, err := nextFrame(rc.fr, secret); err != nil {
				t.Fatalf("the good request's response: %v", err)
			}
			if _, err := rc.Write(frame); err != nil {
				t.Fatal(err)
			}
			if _, err := nextFrame(rc.fr, secret); err == nil || isTimeout(err) {
				t.Fatalf("after the refused frame the client read %v, want the connection's end", err)
			}
			testutil.WaitFor(t, 5*time.Second, func() bool { return connCount(srv) == 0 },
				"the handler of a connection whose frame was refused is still there")
		})
	}
}

// isTimeout reports whether a read ended by its deadline rather than by
// the connection's end.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// acceptOne listens on loopback TCP, dials it, and returns both ends: the
// accepted one a *net.TCPConn, descriptor and all.
func acceptOne(t *testing.T) (peer net.Conn, conn *net.TCPConn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	peer, err = net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { peer.Close() })
	c, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	return peer, c.(*net.TCPConn)
}

// TestUnwritableResponseEndsDescriptorLoop is
// TestUnwritableResponseEndsConnection on a real socket, its write side
// shut down (a wrapper with a failing Write would not do: the write must
// reach the descriptor): 64 lookups arrive together, the loop serves the
// complete frames its first read took — a read-ahead's worth — and their
// responses, written together, fail to go out. That ends the loop from
// inside the descriptor's read lock before it reads again, so no lookup
// behind that read is served, and the handler's Close, after it, returns.
func TestUnwritableResponseEndsDescriptorLoop(t *testing.T) {
	srv := NewServer(NewStore("rc0"))
	defer srv.Close()
	peer, conn := acceptOne(t)
	if err := conn.CloseWrite(); err != nil {
		t.Fatal(err)
	}
	srv.mu.Lock()
	srv.conns[conn] = struct{}{}
	srv.mu.Unlock()
	srv.wg.Add(1)
	go srv.serveConn(conn)

	var wire bytes.Buffer
	for i := 1; i <= 64; i++ {
		appendRequest(&wire, uint64(i), request(cmdGet, func(e *xdr.Encoder) { e.PutString("urn:x") }))
	}
	if _, err := peer.Write(wire.Bytes()); err != nil {
		t.Fatal(err)
	}
	handlerGone := make(chan struct{})
	go func() {
		srv.wg.Wait()
		close(handlerGone)
	}()
	within(t, 5*time.Second, handlerGone, "the handler of a client that cannot be answered")
	firstRead := uint64(xdr.FrameReadAhead / (wire.Len() / 64)) // the frames are of one size
	if n := counter(srv, "lookups"); n != firstRead {
		t.Errorf("%d of the 64 lookups were served, want the %d complete in the first read, whose responses failed", n, firstRead)
	}
	if n := counter(srv, "conn_writes"); n != 1 {
		t.Errorf("%d writes, want the one that failed", n)
	}
}

// unreadingClient connects to srv, asks for far more than the socket
// buffers between them hold, and reads none of it: when it returns, the
// connection's read loop is inside a handler, blocked in the response's
// write.
func unreadingClient(t *testing.T, srv *Server) *rawConn {
	t.Helper()
	srv.Store().Set("urn:big", "blob", strings.Repeat("x", maxWireValue))
	rc := dialRaw(t, srv.Addr())
	rc.Conn.(*net.TCPConn).SetReadBuffer(4 << 10)
	var wire bytes.Buffer
	for i := 1; i <= 32; i++ { // 32 MiB of responses
		appendRequest(&wire, uint64(i), request(cmdGet, func(e *xdr.Encoder) { e.PutString("urn:big") }))
	}
	if _, err := rc.Write(wire.Bytes()); err != nil {
		t.Fatal(err)
	}
	// The store counts a lookup when it serves it: once the count has
	// stood still, the loop is in a write that does not finish.
	served := func() uint64 { return counter(srv, "lookups") }
	last, since := served(), time.Now()
	testutil.WaitFor(t, 10*time.Second, func() bool {
		if n := served(); n != last {
			last, since = n, time.Now()
		}
		return last > 0 && time.Since(since) > 200*time.Millisecond
	}, "the server never stalled on the client that does not read")
	return rc
}

// TestUnreadingClientIsDropped: a client that sends requests and never
// reads used to hold its connection's read loop in a write for ever. The
// write is bounded by pushTimeout, after which the connection is ended;
// other connections are served while it lasts; and nothing is left behind
// (the package's TestMain counts goroutines).
func TestUnreadingClientIsDropped(t *testing.T) {
	srv := startTestServer(t, "stalled")
	start := time.Now()
	unreadingClient(t, srv)

	c := NewClient([]string{srv.Addr()}, nil)
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := c.Set(ctx, "urn:other", "k", "v"); err != nil {
		t.Fatalf("another connection, while one client stalls: %v", err)
	}
	c.Close()

	testutil.WaitFor(t, pushTimeout+3*time.Second, func() bool { return connCount(srv) == 0 },
		"the connection of a client that does not read was not ended")
	if took := time.Since(start); took < pushTimeout/2 {
		t.Errorf("the connection ended after %v: not by the write deadline (%v)", took, pushTimeout)
	}
}

// TestServerCloseInsideHandler: Close returns while one connection's read
// loop is parked in the descriptor and another's is inside a handler,
// blocked in a write that would last until its deadline.
func TestServerCloseInsideHandler(t *testing.T) {
	srv := NewServer(NewStore("closing"))
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	idle := dialRaw(t, srv.Addr())
	idle.exchange(t, 1, request(cmdPing, nil)) // served once, and parked again
	unreadingClient(t, srv)

	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	within(t, pushTimeout/2, closed, "Server.Close with a reader parked and another inside a handler")
}

// TestClientCloseWhileReaderParked: Close returns while the connection's
// reader is parked in the descriptor, and takes the call pending on it
// along.
func TestClientCloseWhileReaderParked(t *testing.T) {
	srv := startTestServer(t, "parked-client")
	c := NewClient([]string{srv.Addr()}, nil)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if _, err := c.Ping(ctx); err != nil {
		t.Fatal(err)
	}
	waited := make(chan error, 1)
	go func() {
		_, err := c.waitOn(ctx, c.seed, srv.Store().Version(), 30*time.Second)
		waited <- err
	}()
	testutil.WaitFor(t, 5*time.Second, func() bool {
		c.seed.mu.Lock()
		cc := c.seed.conn
		c.seed.mu.Unlock()
		cc.mu.Lock()
		defer cc.mu.Unlock()
		return len(cc.pending) == 1
	}, "the Wait was never registered on the connection")

	closed := make(chan struct{})
	go func() {
		c.Close()
		close(closed)
	}()
	within(t, 5*time.Second, closed, "Client.Close with the reader parked")
	select {
	case err := <-waited:
		if !errors.Is(err, ErrClientClosed) {
			t.Errorf("the pending Wait returned %v, want ErrClientClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the Wait pending on a closed client's connection was not released")
	}
}

// maxReadsPerFrame is what a connection's read loop may spend on a frame
// in a closed loop: the read that takes it. (A reader that re-entered
// conn.Read per frame spent two: the descriptor's readiness latch is reset
// on entry, so a read had to be tried, and fail, before each wait.) The
// margin is for the reads a connection's life costs beside its frames: the
// first, which may come before any byte, and the one that finds its end.
const maxReadsPerFrame = 1.05

// TestReadsPerFrame: 2,000 sequential Sets and Gets on a two-replica
// group cost the serving connection, the client's connection and the
// peer's push connection one read per frame, and 16 requests that arrive
// together are served from one or two reads, not sixteen. The counts are
// the frame reader's own — a counting net.Conn around the connection would
// hide its descriptor and measure the other path. Writes are counted too:
// a sequential call is a batch of one, exactly one write per frame each
// way, and the 16 are answered in one write per read that delivered them.
func TestReadsPerFrame(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("the detector's scheduling is not the program's")
	}
	const n = 2000
	rc := startChain(t, [][]int{{1}, {}})
	c := NewClient([]string{rc[0].Addr()}, nil)
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for i := 0; i < n; i++ {
		uri := fmt.Sprintf("urn:r%04d", i)
		if err := c.Set(ctx, uri, AttrState, "running"); err != nil {
			t.Fatal(err)
		}
		if as, err := c.Get(ctx, uri); err != nil || len(as) != 1 {
			t.Fatalf("Get %s: %v, %v", uri, as, err)
		}
	}
	testutil.WaitFor(t, 5*time.Second, func() bool { return counter(rc[1], "remote_ops") == n },
		"replica 1 did not receive every op")

	check := func(what string, reads, frames, wantFrames uint64) {
		t.Helper()
		per := float64(reads) / float64(frames)
		t.Logf("%s: %d reads for %d frames (%.3f)", what, reads, frames, per)
		if frames < wantFrames || per > maxReadsPerFrame {
			t.Errorf("%s: %d reads for %d frames (%.3f per frame), want ≥ %d frames at ≤ %.2f",
				what, reads, frames, per, wantFrames, maxReadsPerFrame)
		}
	}
	c.seed.mu.Lock()
	cc := c.seed.conn
	c.seed.mu.Unlock()
	// Close waits for the reader to leave the descriptor, after which it
	// counts no more: its counts are final, and this goroutine's to read.
	c.Close()
	reads, frames := cc.fr.Counts()
	check("client connection", reads, frames, 2*n)
	if writes, sent := c.Metrics().Counter("request_writes").Value(), c.Metrics().Counter("request_frames").Value(); writes != frames || sent != frames {
		t.Errorf("client connection: %d request writes for %d frames, want one per frame, %d", writes, sent, frames)
	}
	testutil.WaitFor(t, 5*time.Second, func() bool { return connCount(rc[0]) == 0 }, "the client's connection was not ended")
	check("serving connection", counter(rc[0], "conn_reads"), counter(rc[0], "conn_frames"), 2*n)
	if writes, frames := counter(rc[0], "conn_writes"), counter(rc[0], "conn_frames"); writes != frames {
		t.Errorf("serving connection: %d response writes for %d frames, want one per frame", writes, frames)
	}
	rc[0].Close() // and its push link with it
	testutil.WaitFor(t, 5*time.Second, func() bool { return connCount(rc[1]) == 0 }, "the push link was not ended")
	check("peer's push connection", counter(rc[1], "conn_reads"), counter(rc[1], "conn_frames"), n/4)

	// The burst, on a connection of its own: a Ping to have the loop
	// parked, 16 more in one write, and the end. Five reads are the most
	// that is not per-frame: the connection's first (nothing there yet),
	// the Ping, the burst in one or, split by the network, two, the end.
	s := startTestServer(t, "burst")
	raw := dialRaw(t, s.Addr())
	raw.exchange(t, 1, request(cmdPing, nil))
	var wire bytes.Buffer
	for i := 2; i <= 17; i++ {
		appendRequest(&wire, uint64(i), request(cmdPing, nil))
	}
	if _, err := raw.Write(wire.Bytes()); err != nil {
		t.Fatal(err)
	}
	for i := 2; i <= 17; i++ {
		if id, _ := raw.next(t); id != uint64(i) {
			t.Fatalf("burst response %d carries ID %d", i, id)
		}
	}
	raw.Close()
	testutil.WaitFor(t, 5*time.Second, func() bool { return connCount(s) == 0 }, "the burst's connection was not ended")
	if reads, frames := counter(s, "conn_reads"), counter(s, "conn_frames"); frames != 17 || reads > 5 {
		t.Errorf("a Ping and a burst of 16: %d reads for %d frames, want ≤ 5 for 17", reads, frames)
	}
	if writes := counter(s, "conn_writes"); writes > 3 {
		t.Errorf("a Ping and a burst of 16: %d response writes, want the Ping's and ≤ 2 for the burst", writes)
	}
}

// TestWritesPerFrame: 16 goroutines that share a client's connection
// gather their requests, at most one write for every two frames, counted
// by the client's own request_writes and request_frames. (Sequential calls
// and a burst of requests are TestReadsPerFrame's.)
func TestWritesPerFrame(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("the detector's scheduling is not the program's")
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	s := startTestServer(t, "concurrent")
	c := NewClient([]string{s.Addr()}, nil)
	defer c.Close()
	requests := func() (writes, frames uint64) {
		return c.Metrics().Counter("request_writes").Value(), c.Metrics().Counter("request_frames").Value()
	}
	if err := c.Set(ctx, "urn:first", AttrState, "running"); err != nil { // and the shard-map lookup before it
		t.Fatal(err)
	}
	w0, f0 := requests()
	const callers, each = 16, 200
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := c.Set(ctx, fmt.Sprintf("urn:c%02d-%04d", g, i), AttrState, "running"); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	w, f := requests()
	w, f = w-w0, f-f0
	t.Logf("%d callers: %d request writes for %d frames (%.3f)", callers, w, f, float64(w)/float64(f))
	if f != callers*each || 2*w > f {
		t.Errorf("%d callers on one connection: %d request writes for %d frames, want %d frames at ≤ 0.5 writes each",
			callers, w, f, callers*each)
	}
}
