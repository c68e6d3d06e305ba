package comm

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"snipe/internal/xdr"
)

// streamPair wires two endpoints with muxes over loopback TCP.
func streamPair(t *testing.T) (*StreamMux, *StreamMux) {
	t.Helper()
	res := newTestResolver()
	ma := NewStreamMux(newTestEndpoint(t, "urn:stream:a", res))
	mb := NewStreamMux(newTestEndpoint(t, "urn:stream:b", res))
	t.Cleanup(ma.Close)
	t.Cleanup(mb.Close)
	return ma, mb
}

// callReply is a reply payload: the request's ID, a status, the body.
func callReply(id uint64, status uint8, body string) []byte {
	return append(binary.BigEndian.AppendUint64(nil, id), append([]byte{status}, body...)...)
}

// sent opens a call to dst and sends its request with body req.
func sent(t *testing.T, ctx context.Context, m *StreamMux, dst, method, req string) *Stream {
	t.Helper()
	s, err := m.Open(ctx, dst, method)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Write(ctx, []byte(req)); err != nil {
		t.Fatal(err)
	}
	if err := s.CloseWrite(); err != nil {
		t.Fatal(err)
	}
	return s
}

// registered counts the requests e holds for replies.
func registered(e *Endpoint) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.requests)
}

func TestStreamRoundTrip(t *testing.T) {
	ma, mb := streamPair(t)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	s := sent(t, ctx, ma, "urn:stream:b", "echo", "ping")
	srv, err := mb.Accept(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if srv.Method() != "echo" || srv.Peer() != "urn:stream:a" {
		t.Fatalf("accepted %q from %q", srv.Method(), srv.Peer())
	}
	req, err := readAll(ctx, srv)
	if err != nil || string(req) != "ping" {
		t.Fatalf("request = %q, %v", req, err)
	}
	if err := srv.Write(ctx, []byte("pong")); err != nil {
		t.Fatal(err)
	}
	if err := srv.CloseWrite(); err != nil {
		t.Fatal(err)
	}
	resp, err := s.Read(ctx)
	if err != nil || string(resp) != "pong" {
		t.Fatalf("response = %q, %v", resp, err)
	}
	if _, err := s.Read(ctx); err != io.EOF {
		t.Fatalf("after the reply: %v", err)
	}
	// The reply ended the call's registration.
	if n := registered(ma.Endpoint()); n != 0 {
		t.Fatalf("%d requests still registered after the reply", n)
	}
}

func TestStreamLargePayloadChunks(t *testing.T) {
	// A request and a reply above the stripe threshold arrive intact.
	ma, mb := streamPair(t)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	payload := make([]byte, 300<<10)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	served := make(chan error, 1)
	go func() {
		srv, err := mb.Accept(ctx)
		if err != nil {
			served <- err
			return
		}
		req, err := readAll(ctx, srv)
		if err == nil && !bytes.Equal(req, payload) {
			err = errors.New("request corrupted")
		}
		if err == nil {
			err = srv.Write(ctx, req)
		}
		if err == nil {
			err = srv.CloseWrite()
		}
		served <- err
	}()
	s := sent(t, ctx, ma, "urn:stream:b", "bulk", string(payload))
	got, err := readAll(ctx, s)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-served; err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("reply corrupted: got %d bytes, want %d", len(got), len(payload))
	}
}

func TestStreamHalfClose(t *testing.T) {
	// CloseWrite sends the request; the opener writes nothing after it,
	// and reads the answer the acceptor wrote in parts.
	ma, mb := streamPair(t)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	s := sent(t, ctx, ma, "urn:stream:b", "half", "req")
	if err := s.Write(ctx, []byte("more")); !errors.Is(err, ErrStreamReset) {
		t.Fatalf("write after CloseWrite: %v", err)
	}
	srv, err := mb.Accept(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Read(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Read(ctx); err != io.EOF {
		t.Fatalf("read after the request: %v", err)
	}
	for i := 0; i < 3; i++ {
		if err := srv.Write(ctx, []byte("part")); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.CloseWrite(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Write(ctx, []byte("late")); !errors.Is(err, ErrStreamReset) {
		t.Fatalf("acceptor's write after CloseWrite: %v", err)
	}
	got, err := readAll(ctx, s)
	if err != nil || string(got) != "partpartpart" {
		t.Fatalf("response = %q, %v", got, err)
	}
}

func TestStreamCancelMidStream(t *testing.T) {
	// A cancelled Read leaves the call standing: a later Read gets the
	// reply. A Reset abandons the call: its reply, when it comes, is
	// dropped.
	ma, mb := streamPair(t)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	a := ma.Endpoint()

	s := sent(t, ctx, ma, "urn:stream:b", "cancel", "x")
	srv, err := mb.Accept(ctx)
	if err != nil {
		t.Fatal(err)
	}
	ended, end := context.WithCancel(context.Background())
	end()
	if _, err := s.Read(ended); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled read: %v", err)
	}
	if err := srv.Write(ctx, []byte("y")); err != nil {
		t.Fatal(err)
	}
	if err := srv.CloseWrite(); err != nil {
		t.Fatal(err)
	}
	if got, err := s.Read(ctx); err != nil || string(got) != "y" {
		t.Fatalf("read after a cancelled one: %q, %v", got, err)
	}

	s = sent(t, ctx, ma, "urn:stream:b", "cancel", "z")
	if srv, err = mb.Accept(ctx); err != nil {
		t.Fatal(err)
	}
	s.Reset("client gave up")
	if _, err := s.Read(ctx); !errors.Is(err, ErrStreamReset) {
		t.Fatalf("read after reset: %v", err)
	}
	received := a.mReceived.Value()
	if err := srv.CloseWrite(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 3*time.Second, func() bool { return a.mReceived.Value() > received }, "the late reply never arrived")
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.requests) != 0 || len(a.mailbox) != 0 {
		t.Fatalf("late reply kept: %d requests registered, %d messages in the mailbox", len(a.requests), len(a.mailbox))
	}
}

func TestStreamDrainRejectsNewStreams(t *testing.T) {
	ma, mb := streamPair(t)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	// A call taken before the drain is answered through it.
	s := sent(t, ctx, ma, "urn:stream:b", "old", "before")
	waitFor(t, 3*time.Second, func() bool { return len(mb.accepts) == 1 }, "the request never arrived")
	mb.Drain()
	if !mb.Draining() {
		t.Fatal("Draining() = false after Drain")
	}

	// New calls are refused with the drain marker.
	s2 := sent(t, ctx, ma, "urn:stream:b", "new", "")
	if _, err := s2.Read(ctx); !errors.Is(err, ErrDraining) {
		t.Fatalf("call to a draining mux: %v", err)
	}

	// Accept hands out the call taken before the drain, then stops.
	srv, err := mb.Accept(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mb.Accept(ctx); !errors.Is(err, ErrDraining) {
		t.Fatalf("accept with the backlog empty and the mux draining: %v", err)
	}
	if err := srv.Write(ctx, []byte("after")); err != nil {
		t.Fatal(err)
	}
	if err := srv.CloseWrite(); err != nil {
		t.Fatal(err)
	}
	if got, err := s.Read(ctx); err != nil || string(got) != "after" {
		t.Fatalf("call taken before the drain: %q, %v", got, err)
	}
}

func TestStreamFullBacklogAnswersOverloaded(t *testing.T) {
	// Nobody accepts: the first streamAcceptBacklog calls wait, and the
	// next is answered at once.
	ma, mb := streamPair(t)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for i := 0; i < streamAcceptBacklog; i++ {
		sent(t, ctx, ma, "urn:stream:b", "wait", "")
	}
	s := sent(t, ctx, ma, "urn:stream:b", "one too many", "")
	if _, err := s.Read(ctx); !errors.Is(err, ErrStreamReset) || !strings.Contains(err.Error(), "accept backlog full") {
		t.Fatalf("call beyond the backlog: %v, want ErrStreamReset for a full backlog", err)
	}
	if n := len(mb.accepts); n != streamAcceptBacklog {
		t.Fatalf("%d calls waiting, want %d", n, streamAcceptBacklog)
	}
}

func TestStreamMuxCloseFailsStreams(t *testing.T) {
	ma, mb := streamPair(t)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	s := sent(t, ctx, ma, "urn:stream:b", "m", "x")
	unsent, err := ma.Open(ctx, "urn:stream:b", "m")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mb.Accept(ctx); err != nil {
		t.Fatal(err)
	}
	readErr := make(chan error, 1)
	go func() {
		_, err := s.Read(ctx)
		readErr <- err
	}()
	ma.Close()
	if err := <-readErr; !errors.Is(err, ErrClosed) {
		t.Fatalf("read across mux close: %v", err)
	}
	if err := unsent.Write(ctx, []byte("y")); !errors.Is(err, ErrClosed) {
		t.Fatalf("write after mux close: %v", err)
	}
	if _, err := unsent.Read(ctx); !errors.Is(err, ErrClosed) {
		t.Fatalf("send after mux close: %v", err)
	}
	if _, err := ma.Open(ctx, "urn:stream:b", "m"); !errors.Is(err, ErrClosed) {
		t.Fatalf("open after mux close: %v", err)
	}
	if n := registered(ma.Endpoint()); n != 0 {
		t.Fatalf("%d requests still registered after the close", n)
	}
}

// echoOnce accepts one call on m, reads the request and answers resp.
func echoOnce(ctx context.Context, m *StreamMux, resp []byte) error {
	srv, err := m.Accept(ctx)
	if err != nil {
		return err
	}
	if _, err := readAll(ctx, srv); err != nil {
		return err
	}
	if err := srv.Write(ctx, resp); err != nil {
		return err
	}
	return srv.CloseWrite()
}

// readAll reads s to EOF.
func readAll(ctx context.Context, s *Stream) ([]byte, error) {
	var out []byte
	for {
		chunk, err := s.Read(ctx)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, chunk...)
	}
}

func TestStreamDataForDroppedStreamResetsWriter(t *testing.T) {
	// An acceptor that drops the call answers with the reason, so the
	// opener's Read fails at once instead of waiting out ctx.
	ma, mb := streamPair(t)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	s := sent(t, ctx, ma, "urn:stream:b", "lost", "x")
	srv, err := mb.Accept(ctx)
	if err != nil {
		t.Fatal(err)
	}
	srv.Reset("no such task")
	if err := srv.Write(ctx, []byte("y")); !errors.Is(err, ErrStreamReset) {
		t.Fatalf("write after the acceptor's reset: %v", err)
	}
	readCtx, readCancel := context.WithTimeout(ctx, 2*time.Second)
	defer readCancel()
	if _, err := s.Read(readCtx); !errors.Is(err, ErrStreamReset) || !strings.Contains(err.Error(), "no such task") {
		t.Fatalf("read after the acceptor dropped the call: %v, want ErrStreamReset with its reason", err)
	}
	srv.CloseWrite() // the answer has left: nothing more is sent
	if n := mb.Endpoint().mSent.Value(); n != 1 {
		t.Fatalf("acceptor sent %d messages, want the one reply", n)
	}
}

func TestStreamUnaryEchoCounters(t *testing.T) {
	// A unary call is one message each way, and leaves nothing behind.
	ma, mb := streamPair(t)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	served := make(chan error, 1)
	go func() { served <- echoOnce(ctx, mb, make([]byte, 4<<10)) }()
	s := sent(t, ctx, ma, "urn:stream:b", "echo", string(make([]byte, 256)))
	resp, err := readAll(ctx, s)
	if err != nil || len(resp) != 4<<10 {
		t.Fatalf("response: %d bytes, %v", len(resp), err)
	}
	if err := <-served; err != nil {
		t.Fatal(err)
	}
	for _, m := range []*StreamMux{ma, mb} {
		c := counters(m.Endpoint(), "sent", "stream_send_failures")
		if c[0] != 1 || c[1] != 0 {
			t.Errorf("%s: %d messages sent, %d refused; want 1 and 0", m.Endpoint().URN(), c[0], c[1])
		}
	}
	if n := registered(ma.Endpoint()); n != 0 {
		t.Errorf("%d requests still registered after the call", n)
	}
}

func TestStreamSendFailureSurfacesOnRead(t *testing.T) {
	// A request the endpoint refuses fails the call: its first Read
	// returns the cause, no registration is left behind, and the next
	// call to the same peer goes through.
	res := newTestResolver()
	a := newRefusingEndpoint(t, "urn:stream:a", res, 1)
	ma := NewStreamMux(a)
	mb := NewStreamMux(newTestEndpoint(t, "urn:stream:b", res))
	t.Cleanup(ma.Close)
	t.Cleanup(mb.Close)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	s, err := ma.Open(ctx, "urn:stream:b", "refused")
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	_, err = s.Read(ctx)
	if !errors.Is(err, errRefused) || !errors.Is(err, ErrStreamReset) {
		t.Fatalf("read after a refused send: %v, want ErrStreamReset wrapping the refusal", err)
	}
	if err := s.Write(ctx, []byte("x")); !errors.Is(err, errRefused) {
		t.Fatalf("write after a refused send: %v, want the refusal", err)
	}
	if n := ma.mSendFailures.Value(); n != 1 {
		t.Fatalf("stream_send_failures = %d, want 1", n)
	}
	if n := registered(a); n != 0 {
		t.Fatalf("%d requests registered after the failure, want 0", n)
	}
	served := make(chan error, 1)
	go func() { served <- echoOnce(ctx, mb, []byte("ok")) }()
	if got, err := readAll(ctx, sent(t, ctx, ma, "urn:stream:b", "after", "")); err != nil || string(got) != "ok" {
		t.Fatalf("call after the refused one: %q, %v", got, err)
	}
	if err := <-served; err != nil {
		t.Fatal(err)
	}
}

func TestStreamQueueBoundRefusesOneStream(t *testing.T) {
	// The endpoint's send buffer bounds the calls in flight: with room
	// for one message, a second call while the first request is unacked
	// is refused with ErrBufferFull, and the first call, and a call made
	// once its ack is back, go through.
	res := newTestResolver()
	a := newTestEndpoint(t, "urn:stream:a", res, WithBufferLimit(1))
	b := newTestEndpoint(t, "urn:stream:b", res, withAckFlush(time.Hour)) // the ack waits for the reply
	ma := NewStreamMux(a)
	t.Cleanup(ma.Close)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	answer := func() {
		t.Helper()
		m, err := b.RecvMatch(ctx, "urn:stream:a", StreamTag)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Send("urn:stream:a", ReplyTag, callReply(binary.BigEndian.Uint64(m.Payload), callOK, "ok")); err != nil {
			t.Fatal(err)
		}
	}
	first := sent(t, ctx, ma, "urn:stream:b", "m", "1")
	second, err := ma.Open(ctx, "urn:stream:b", "m")
	if err != nil {
		t.Fatal(err)
	}
	if err := second.CloseWrite(); !errors.Is(err, ErrBufferFull) {
		t.Fatalf("second call with the buffer full: %v, want ErrBufferFull", err)
	}
	if _, err := second.Read(ctx); !errors.Is(err, ErrBufferFull) {
		t.Fatalf("second call's read: %v, want ErrBufferFull", err)
	}
	answer()
	if got, err := first.Read(ctx); err != nil || string(got) != "ok" {
		t.Fatalf("first call: %q, %v", got, err)
	}
	waitFor(t, 3*time.Second, func() bool { return a.Pending() == 0 }, "the first request was never acked")
	third := sent(t, ctx, ma, "urn:stream:b", "m", "3")
	answer()
	if got, err := third.Read(ctx); err != nil || string(got) != "ok" {
		t.Fatalf("call after the ack: %q, %v", got, err)
	}
}

func TestStreamWriteIsSentWithoutAnotherCall(t *testing.T) {
	// CloseWrite puts the request on the wire by itself: a bare endpoint
	// receives it, whole, while the opener makes no further call; and
	// the requests of calls to one peer arrive in the order sent.
	res := newTestResolver()
	a := newTestEndpoint(t, "urn:stream:a", res)
	b := newTestEndpoint(t, "urn:stream:b", res)
	ma := NewStreamMux(a)
	t.Cleanup(ma.Close)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	s, err := ma.Open(ctx, "urn:stream:b", "ticker")
	if err != nil {
		t.Fatal(err)
	}
	for _, part := range []string{"ti", "ck"} {
		if err := s.Write(ctx, []byte(part)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.CloseWrite(); err != nil {
		t.Fatal(err)
	}
	m, err := b.RecvMatch(ctx, "urn:stream:a", StreamTag)
	if err != nil {
		t.Fatal(err)
	}
	id, method, body, err := decodeRequest(m.Payload)
	if err != nil || id != s.id || method != "ticker" || string(body) != "tick" {
		t.Fatalf("request: id %d method %q body %q, %v; want id %d, ticker, tick", id, method, body, err, s.id)
	}
	var ids []uint64
	for i := 0; i < 3; i++ {
		ids = append(ids, sent(t, ctx, ma, "urn:stream:b", "seq", "").id)
	}
	for _, want := range ids {
		m, err := b.RecvMatch(ctx, "urn:stream:a", StreamTag)
		if err != nil {
			t.Fatal(err)
		}
		if id, _, _, _ := decodeRequest(m.Payload); id != want {
			t.Fatalf("request %d arrived where %d was sent", id, want)
		}
	}
}

func TestStreamMuxCloseSendsQueuedFrames(t *testing.T) {
	// An answer is with the endpoint when CloseWrite returns: a Close of
	// the acceptor's mux right behind it does not cut it short.
	ma, mb := streamPair(t)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	want := bytes.Repeat([]byte("response "), 10<<10)
	served := make(chan error, 1)
	go func() {
		err := echoOnce(ctx, mb, want)
		mb.Close()
		served <- err
	}()
	s := sent(t, ctx, ma, "urn:stream:b", "last", "")
	got, err := readAll(ctx, s)
	if err != nil {
		t.Fatalf("response cut short after %d bytes: %v", len(got), err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("response: %d bytes, want %d", len(got), len(want))
	}
	if err := <-served; err != nil {
		t.Fatal(err)
	}
}

func TestStreamOpenToClosingMuxIsReset(t *testing.T) {
	// A call the mux took but nobody accepted before Close is answered
	// as failed, so its opener fails over at once instead of waiting out
	// its timeout.
	ma, mb := streamPair(t)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	s := sent(t, ctx, ma, "urn:stream:b", "late", "")
	waitFor(t, 3*time.Second, func() bool { return len(mb.accepts) == 1 }, "the request never arrived")
	mb.Close()
	readCtx, readCancel := context.WithTimeout(ctx, 2*time.Second)
	defer readCancel()
	if _, err := s.Read(readCtx); !errors.Is(err, ErrStreamReset) {
		t.Fatalf("read from a closing mux: %v, want ErrStreamReset", err)
	}
}

func TestStreamFrameSequence(t *testing.T) {
	// A request is its ID, its method and the rest; a reply its ID, a
	// status and the rest. What does not decode is dropped (a request)
	// or read as a failure (a reply).
	e := xdr.NewEncoder(0)
	e.PutUint64(7)
	e.PutString("echo")
	e.PutRaw([]byte("payload"))
	whole := e.Bytes()
	for _, c := range []struct {
		name    string
		payload []byte
		body    string
		ok      bool
	}{
		{"whole request", whole, "payload", true},
		{"empty body", whole[:16], "", true},
		{"cut inside the method", whole[:14], "", false},
		{"cut inside the ID", whole[:5], "", false},
		{"method longer than a URN", append(binary.BigEndian.AppendUint64(nil, 7), 0xff, 0xff, 0xff, 0xff), "", false},
	} {
		id, method, body, err := decodeRequest(c.payload)
		if (err == nil) != c.ok || (c.ok && (id != 7 || method != "echo" || string(body) != c.body)) {
			t.Errorf("%s: id %d method %q body %q err %v", c.name, id, method, body, err)
		}
	}
	for _, c := range []struct {
		name    string
		payload []byte
		status  uint8
		body    string
	}{
		{"answer", callReply(7, callOK, "pong"), callOK, "pong"},
		{"failure", callReply(7, callFailed, "boom"), callFailed, "boom"},
		{"draining", callReply(7, callDraining, ""), callDraining, ""},
		{"no status", binary.BigEndian.AppendUint64(nil, 7), callFailed, "malformed reply"},
		{"unknown status", callReply(7, 9, "?"), callFailed, "reply status 9"},
	} {
		status, body := decodeReply(c.payload)
		if status != c.status || string(body) != c.body {
			t.Errorf("%s: status %d body %q, want %d %q", c.name, status, body, c.status, c.body)
		}
	}
}

func TestStreamChunkCannotReachNextFrame(t *testing.T) {
	// A body aliases the message it arrived in, capped at its length, so
	// a caller appending to it gets a copy and leaves the message alone.
	e := xdr.NewEncoder(64)
	e.PutUint64(1)
	e.PutString("m")
	e.PutRaw([]byte("aaaa"))
	p := append(e.Bytes(), "tail"...)[:e.Len()]
	_, _, body, err := decodeRequest(p)
	if err != nil {
		t.Fatal(err)
	}
	if cap(body) != len(body) {
		t.Fatalf("body has capacity %d past its length %d", cap(body), len(body))
	}
	_ = append(body, "XXXX"...)
	if got := string(p[:cap(p)][len(p):][:4]); got != "tail" {
		t.Fatalf("appending to the body wrote %q behind it", got)
	}
}

func TestStreamConcurrentCalls(t *testing.T) {
	// Many goroutines, one peer: every call gets its own answer.
	ma, mb := streamPair(t)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	const calls = 64

	var servers sync.WaitGroup
	accepted := make(chan error, 1)
	go func() {
		for i := 0; i < calls; i++ {
			srv, err := mb.Accept(ctx)
			if err != nil {
				accepted <- err
				return
			}
			servers.Add(1)
			go func() {
				defer servers.Done()
				req, err := readAll(ctx, srv)
				if err == nil {
					err = srv.Write(ctx, append([]byte("re:"), req...))
				}
				if err != nil {
					srv.Reset(err.Error())
					return
				}
				srv.CloseWrite()
			}()
		}
		accepted <- nil
	}()

	errs := make(chan error, calls)
	for i := 0; i < calls; i++ {
		go func(i int) {
			req := bytes.Repeat([]byte{byte(i)}, 1+i*97)
			s, err := ma.Open(ctx, "urn:stream:b", "echo")
			if err == nil {
				err = s.Write(ctx, req)
			}
			var resp []byte
			if err == nil {
				resp, err = readAll(ctx, s)
			}
			if err == nil && !bytes.Equal(resp, append([]byte("re:"), req...)) {
				err = errors.New("answer does not match the request")
			}
			errs <- err
		}(i)
	}
	for i := 0; i < calls; i++ {
		if err := <-errs; err != nil {
			t.Errorf("call: %v", err)
		}
	}
	if err := <-accepted; err != nil {
		t.Fatal(err)
	}
	servers.Wait()
	if n := registered(ma.Endpoint()); n != 0 {
		t.Errorf("%d requests still registered after the calls", n)
	}
}

func TestStreamWindowExhaustion(t *testing.T) {
	// No byte window holds a writer back: Writes of many times what a
	// reader could take at once return at once with nobody accepting,
	// and the request arrives whole. What bounds a writer is the
	// endpoint's send buffer, counted in messages at CloseWrite.
	ma, mb := streamPair(t)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	payload := patternPayload(5, 8*(64<<10))
	s, err := ma.Open(ctx, "urn:stream:b", "slow")
	if err != nil {
		t.Fatal(err)
	}
	for rest := payload; len(rest) > 0; rest = rest[16<<10:] {
		shortCtx, shortCancel := context.WithTimeout(ctx, 150*time.Millisecond)
		err := s.Write(shortCtx, rest[:16<<10])
		shortCancel()
		if err != nil {
			t.Fatalf("write with %d bytes left and no reader: %v", len(rest), err)
		}
	}
	if err := s.CloseWrite(); err != nil {
		t.Fatal(err)
	}
	srv, err := mb.Accept(ctx)
	if err != nil {
		t.Fatal(err)
	}
	got, err := readAll(ctx, srv)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("request: %d of %d bytes, %v", len(got), len(payload), err)
	}
}

func TestStreamSmallWindowTransfer(t *testing.T) {
	// Eight 64 KiB windows of data each way cost one message each way
	// and no control message: nothing is granted back as the reader
	// consumes.
	const size = 8 * (64 << 10)
	ma, mb := streamPair(t)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	payload := patternPayload(7, size)
	served := make(chan error, 1)
	go func() { served <- echoOnce(ctx, mb, payload) }()
	got, err := unaryEcho(ctx, ma, "urn:stream:b", payload)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-served; err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("reply corrupted: got %d bytes, want %d", len(got), len(payload))
	}
	for _, m := range []*StreamMux{ma, mb} {
		if n := m.Endpoint().mSent.Value(); n != 1 {
			t.Errorf("%s sent %d messages for %d bytes, want 1", m.Endpoint().URN(), n, size)
		}
	}
}

func TestStreamFlusherCloseDrains(t *testing.T) {
	// Every request sent before the opener's mux closes is with the
	// endpoint, so Close cuts none short: each peer receives its request
	// whole. The calls themselves fail, and leave no registration.
	const peers = 8
	res := newTestResolver()
	ma := NewStreamMux(newTestEndpoint(t, "urn:flush:src", res))
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	payload := patternPayload(3, 3<<10)
	var sinks []*Endpoint
	var calls []*Stream
	for i := 0; i < peers; i++ {
		urn := fmt.Sprintf("urn:flush:sink%d", i)
		sinks = append(sinks, newTestEndpoint(t, urn, res))
		calls = append(calls, sent(t, ctx, ma, urn, "last", string(payload)))
	}
	ma.Close()
	for i, s := range calls {
		if _, err := s.Read(ctx); !errors.Is(err, ErrClosed) {
			t.Errorf("call %d after Close: %v, want ErrClosed", i, err)
		}
	}
	if n := registered(ma.Endpoint()); n != 0 {
		t.Fatalf("%d requests registered after Close, want none", n)
	}
	for i, sink := range sinks {
		m, err := sink.RecvMatch(ctx, "urn:flush:src", StreamTag)
		if err != nil {
			t.Fatalf("peer %d: %v", i, err)
		}
		id, method, body, err := decodeRequest(m.Payload)
		if err != nil || id != calls[i].id || method != "last" || !bytes.Equal(body, payload) {
			t.Errorf("peer %d: id %d method %q, %d of %d bytes, %v", i, id, method, len(body), len(payload), err)
		}
	}
}

func TestStreamFlusherOutlivesRefusal(t *testing.T) {
	// A request the endpoint refuses for a full send buffer fails its
	// call with ErrBufferFull, and the calls after it, once the buffer
	// drains, go through.
	const slots = 4
	res := newTestResolver()
	a := newTestEndpoint(t, "urn:flush:a", res, WithBufferLimit(slots))
	b := newTestEndpoint(t, "urn:flush:b", res)
	ma := NewStreamMux(a)
	mb := NewStreamMux(b)
	t.Cleanup(ma.Close)
	t.Cleanup(mb.Close)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	defer serveEchoes(ctx, mb, []byte("pong"), nil)()
	defer cancel()

	// Messages to a peer that is not listening yet hold every slot of
	// the system buffer, so the endpoint refuses the call's request.
	for i := 0; i < slots; i++ {
		if err := a.Send("urn:flush:late", 0, []byte("held")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := unaryEcho(ctx, ma, "urn:flush:b", []byte("ping")); !errors.Is(err, ErrBufferFull) {
		t.Fatalf("the refused call: %v, want ErrBufferFull", err)
	}
	newTestEndpoint(t, "urn:flush:late", res)
	waitFor(t, 5*time.Second, func() bool { return a.Pending() == 0 }, "held messages never delivered")
	for i := 0; i < 10; i++ {
		if got, err := unaryEcho(ctx, ma, "urn:flush:b", []byte("ping")); err != nil || string(got) != "pong" {
			t.Fatalf("call %d after the refusal: %q, %v", i, got, err)
		}
	}
	if n := ma.mSendFailures.Value(); n != 1 {
		t.Fatalf("stream_send_failures = %d, want the one refusal", n)
	}
}

func TestStreamBatchesKeepOrderAndSize(t *testing.T) {
	// Seen from a bare endpoint: a call is one StreamTag message however
	// many Writes built it, its body is those Writes in order, and calls
	// to one peer arrive in the order their requests were sent.
	const calls, size = 4, 64 << 10
	res := newTestResolver()
	a := newTestEndpoint(t, "urn:stream:a", res)
	b := newTestEndpoint(t, "urn:stream:b", res)
	ma := NewStreamMux(a)
	t.Cleanup(ma.Close)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	var payloads [][]byte
	var ids []uint64
	for c := 0; c < calls; c++ {
		payload := patternPayload(byte(c), size)
		s, err := ma.Open(ctx, "urn:stream:b", "raw")
		if err != nil {
			t.Fatal(err)
		}
		// Writes of mixed sizes.
		for rest := payload; len(rest) > 0; {
			n := min(len(rest), 100+len(rest)%(3<<10))
			if err := s.Write(ctx, rest[:n]); err != nil {
				t.Fatal(err)
			}
			rest = rest[n:]
		}
		if err := s.CloseWrite(); err != nil {
			t.Fatal(err)
		}
		payloads = append(payloads, payload)
		ids = append(ids, s.id)
	}
	for c := 0; c < calls; c++ {
		m, err := b.RecvMatch(ctx, "urn:stream:a", StreamTag)
		if err != nil {
			t.Fatalf("request %d: %v", c, err)
		}
		id, _, body, err := decodeRequest(m.Payload)
		if err != nil || id != ids[c] || !bytes.Equal(body, payloads[c]) {
			t.Fatalf("request %d: id %d (want %d), %d of %d bytes in order, %v", c, id, ids[c], len(body), size, err)
		}
	}
	if n := a.mSent.Value(); n != calls {
		t.Fatalf("%d calls took %d messages, want one each", calls, n)
	}
}

func TestStreamRefusedMiddleBatchNeverEndsCleanly(t *testing.T) {
	// Of three calls built from several Writes each, the endpoint refuses
	// the middle request. The peer is handed none of it — no part of its
	// body passes for a request — and, since the refusal spent no
	// sequence number, the third request arrives behind the first with
	// nothing held back.
	const chunk = 1 << 10
	res := newTestResolver()
	a := newRefusingEndpoint(t, "urn:stream:a", res, 2)
	b := newTestEndpoint(t, "urn:stream:b", res)
	ma := NewStreamMux(a)
	t.Cleanup(ma.Close)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	var calls []*Stream
	var sendErrs []error
	for i := 0; i < 3; i++ {
		s, err := ma.Open(ctx, "urn:stream:b", fmt.Sprintf("call%d", i))
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 3; j++ {
			if err := s.Write(ctx, patternPayload(byte(i), chunk)); err != nil {
				t.Fatal(err)
			}
		}
		calls = append(calls, s)
		sendErrs = append(sendErrs, s.CloseWrite())
	}
	if sendErrs[0] != nil || sendErrs[2] != nil || !errors.Is(sendErrs[1], errRefused) {
		t.Fatalf("sends: %v, want only the middle one refused", sendErrs)
	}
	if _, err := calls[1].Read(ctx); !errors.Is(err, errRefused) || !errors.Is(err, ErrStreamReset) {
		t.Fatalf("refused call's read: %v, want ErrStreamReset wrapping the refusal", err)
	}
	for _, want := range []int{0, 2} {
		m, err := b.RecvMatch(ctx, "urn:stream:a", StreamTag)
		if err != nil {
			t.Fatal(err)
		}
		id, method, body, err := decodeRequest(m.Payload)
		if err != nil || id != calls[want].id || method != calls[want].Method() || len(body) != 3*chunk {
			t.Fatalf("got id %d method %q with %d bytes, %v; want call %d whole", id, method, len(body), err, want)
		}
	}
	b.mu.Lock()
	held, waiting := len(b.reorder["urn:stream:a"]), len(b.mailbox)
	b.mu.Unlock()
	if held != 0 || waiting != 0 {
		t.Errorf("peer holds %d messages behind the refused one and %d in its mailbox, want none", held, waiting)
	}
	if n := registered(a); n != 2 {
		t.Errorf("%d requests registered, want the two sent", n)
	}
}

// errRefused is the resolver failure a refusing endpoint's nth send meets.
var errRefused = errors.New("test: resolve refused")

// refuseNth is a resolver that fails exactly one Resolve, the nth, and
// otherwise answers as res does.
type refuseNth struct {
	res *testResolver
	mu  sync.Mutex
	n   int
}

func (r *refuseNth) Resolve(urn string) ([]Route, error) {
	r.mu.Lock()
	r.n--
	refuse := r.n == 0
	r.mu.Unlock()
	if refuse {
		return nil, errRefused
	}
	return r.res.Resolve(urn)
}

// newRefusingEndpoint is a test endpoint whose nth send is refused:
// refuseNth has no route stamp, so every transmission resolves its
// destination, and without buffering a failed transmission fails its
// Send.
func newRefusingEndpoint(t testing.TB, urn string, res *testResolver, n int) *Endpoint {
	return newTestEndpoint(t, urn, res, WithResolver(&refuseNth{res: res, n: n}),
		WithoutBuffering())
}

// BenchmarkStreamBulk moves 16 MiB per iteration as one call's request,
// striped over the test endpoints' route, and reports throughput.
func BenchmarkStreamBulk(b *testing.B) {
	res := newTestResolver()
	ma := NewStreamMux(newTestEndpoint(b, "urn:stream:a", res))
	mb := NewStreamMux(newTestEndpoint(b, "urn:stream:b", res))
	b.Cleanup(ma.Close)
	b.Cleanup(mb.Close)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	payload := make([]byte, 16<<20)
	go func() {
		for i := 0; i < b.N; i++ {
			srv, err := mb.Accept(ctx)
			if err != nil {
				return
			}
			srv.CloseWrite()
		}
	}()
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := ma.Open(ctx, "urn:stream:b", "bulk")
		if err != nil {
			b.Fatal(err)
		}
		if err := s.Write(ctx, payload); err != nil {
			b.Fatal(err)
		}
		if _, err := s.Read(ctx); err != io.EOF {
			b.Fatalf("reply of a sink: %v", err)
		}
	}
}
