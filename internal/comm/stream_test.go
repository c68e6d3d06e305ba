package comm

import (
	"bytes"
	"context"
	"errors"
	"io"
	"sync"
	"testing"
	"time"

	"snipe/internal/xdr"
)

// streamPair wires two endpoints with default muxes over loopback TCP.
func streamPair(t *testing.T) (*StreamMux, *StreamMux) {
	return streamPairSized(t, defaultStreamWindow, defaultStreamChunk)
}

// streamPairSized is streamPair with the flow-control window and chunk
// (at most half the window) set.
func streamPairSized(t *testing.T, window, chunk int) (*StreamMux, *StreamMux) {
	t.Helper()
	res := newTestResolver()
	a := newTestEndpoint(t, "urn:stream:a", res)
	b := newTestEndpoint(t, "urn:stream:b", res)
	ma := newStreamMux(a, window, chunk, streamFlushIdle)
	mb := newStreamMux(b, window, chunk, streamFlushIdle)
	t.Cleanup(ma.Close)
	t.Cleanup(mb.Close)
	return ma, mb
}

func TestStreamRoundTrip(t *testing.T) {
	ma, mb := streamPair(t)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	s, err := ma.Open(ctx, "urn:stream:b", "echo")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Write(ctx, []byte("ping")); err != nil {
		t.Fatal(err)
	}
	if err := s.CloseWrite(); err != nil {
		t.Fatal(err)
	}

	srv, err := mb.Accept(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if srv.Method() != "echo" {
		t.Fatalf("method = %q", srv.Method())
	}
	if srv.Peer() != "urn:stream:a" {
		t.Fatalf("peer = %q", srv.Peer())
	}
	var req []byte
	for {
		chunk, err := srv.Read(ctx)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		req = append(req, chunk...)
	}
	if string(req) != "ping" {
		t.Fatalf("request = %q", req)
	}
	if err := srv.Write(ctx, []byte("pong")); err != nil {
		t.Fatal(err)
	}
	if err := srv.CloseWrite(); err != nil {
		t.Fatal(err)
	}
	resp, err := s.Read(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "pong" {
		t.Fatalf("response = %q", resp)
	}
	if _, err := s.Read(ctx); err != io.EOF {
		t.Fatalf("after close: %v", err)
	}
	// Both directions closed on both sides: the muxes reap the streams.
	waitFor(t, 3*time.Second, func() bool {
		return ma.ActiveStreams() == 0 && mb.ActiveStreams() == 0
	}, "streams not reaped after close")
}

func TestStreamLargePayloadChunks(t *testing.T) {
	// A payload much larger than the chunk size arrives intact and in
	// order, as multiple DATA messages.
	ma, mb := streamPairSized(t, 64<<10, 8<<10)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	payload := make([]byte, 100<<10)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	s, err := ma.Open(ctx, "urn:stream:b", "bulk")
	if err != nil {
		t.Fatal(err)
	}
	writeDone := make(chan error, 1)
	go func() {
		if err := s.Write(ctx, payload); err != nil {
			writeDone <- err
			return
		}
		writeDone <- s.CloseWrite()
	}()

	srv, err := mb.Accept(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	for {
		chunk, err := srv.Read(ctx)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, chunk...)
	}
	if err := <-writeDone; err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload corrupted: got %d bytes, want %d", len(got), len(payload))
	}
}

func TestStreamWindowExhaustion(t *testing.T) {
	// With a window of two chunks (the mux allows no fewer), the writer
	// cannot run ahead of the reader: the third chunk blocks until the
	// first is consumed.
	ma, mb := streamPairSized(t, 2<<10, 1<<10)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	s, err := ma.Open(ctx, "urn:stream:b", "slow")
	if err != nil {
		t.Fatal(err)
	}
	chunk := make([]byte, 1<<10)
	if err := s.Write(ctx, make([]byte, 2<<10)); err != nil {
		t.Fatal(err)
	}

	// The window is now exhausted; a bounded write must time out.
	shortCtx, shortCancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	err = s.Write(shortCtx, chunk)
	shortCancel()
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("write beyond window: %v, want ErrTimeout", err)
	}

	// Consuming on the reader side grants credit and unblocks.
	srv, err := mb.Accept(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Read(ctx); err != nil {
		t.Fatal(err)
	}
	if err := s.Write(ctx, chunk); err != nil {
		t.Fatalf("write after credit grant: %v", err)
	}
}

func TestStreamHalfClose(t *testing.T) {
	// After CloseWrite the closer can still read: the classic
	// request/response shape with a streamed response.
	ma, mb := streamPair(t)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	s, err := ma.Open(ctx, "urn:stream:b", "half")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Write(ctx, []byte("req")); err != nil {
		t.Fatal(err)
	}
	if err := s.CloseWrite(); err != nil {
		t.Fatal(err)
	}
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
		t.Fatalf("read after peer half-close: %v", err)
	}
	// The server side still writes freely.
	for i := 0; i < 3; i++ {
		if err := srv.Write(ctx, []byte("part")); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.CloseWrite(); err != nil {
		t.Fatal(err)
	}
	var n int
	for {
		chunk, err := s.Read(ctx)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		n += len(chunk)
	}
	if n != 12 {
		t.Fatalf("streamed response bytes = %d, want 12", n)
	}
}

func TestStreamCancelMidStream(t *testing.T) {
	// A canceled reader context aborts the pending Read without killing
	// the stream; an explicit Reset then kills it for both sides.
	ma, mb := streamPair(t)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	s, err := ma.Open(ctx, "urn:stream:b", "cancel")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Write(ctx, []byte("x")); err != nil {
		t.Fatal(err)
	}
	srv, err := mb.Accept(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Read(ctx); err != nil {
		t.Fatal(err)
	}

	readCtx, readCancel := context.WithCancel(context.Background())
	readErr := make(chan error, 1)
	go func() {
		_, err := srv.Read(readCtx)
		readErr <- err
	}()
	readCancel()
	if err := <-readErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled read: %v", err)
	}

	// The stream survives the canceled call...
	if err := s.Write(ctx, []byte("y")); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Read(ctx); err != nil {
		t.Fatalf("stream dead after canceled read: %v", err)
	}

	// ...until the client resets it; the server's next read fails.
	s.Reset("client gave up")
	if _, err := srv.Read(ctx); !errors.Is(err, ErrStreamReset) {
		t.Fatalf("read after reset: %v", err)
	}
	if _, err := s.Read(ctx); !errors.Is(err, ErrStreamReset) {
		t.Fatalf("local read after reset: %v", err)
	}
}

func TestStreamDrainRejectsNewStreams(t *testing.T) {
	ma, mb := streamPair(t)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	// An established stream keeps flowing through a drain.
	s, err := ma.Open(ctx, "urn:stream:b", "old")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Write(ctx, []byte("before")); err != nil {
		t.Fatal(err)
	}
	srv, err := mb.Accept(ctx)
	if err != nil {
		t.Fatal(err)
	}

	mb.Drain()
	if !mb.Draining() {
		t.Fatal("Draining() = false after Drain")
	}

	// New opens are reset with the drain marker.
	s2, err := ma.Open(ctx, "urn:stream:b", "new")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Read(ctx); !errors.Is(err, ErrDraining) {
		t.Fatalf("open against draining mux: %v", err)
	}

	// The pre-drain stream still works both ways.
	if _, err := srv.Read(ctx); err != nil {
		t.Fatal(err)
	}
	if err := srv.Write(ctx, []byte("after")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Read(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestStreamMuxCloseFailsStreams(t *testing.T) {
	ma, mb := streamPair(t)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	s, err := ma.Open(ctx, "urn:stream:b", "m")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Write(ctx, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := mb.Accept(ctx); err != nil {
		t.Fatal(err)
	}
	ma.Close()
	if _, err := s.Read(ctx); !errors.Is(err, ErrClosed) {
		t.Fatalf("read after mux close: %v", err)
	}
	if err := s.Write(ctx, []byte("y")); !errors.Is(err, ErrClosed) {
		t.Fatalf("write after mux close: %v", err)
	}
}

// echoOnce accepts one stream on m, reads the request to EOF and answers
// resp, half-closing after it.
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

// sameStreamFrame compares two frames field by field.
func sameStreamFrame(a, b streamFrame) bool {
	return a.kind == b.kind && a.id == b.id && a.orig == b.orig && a.method == b.method &&
		a.delta == b.delta && bytes.Equal(a.data, b.data) && a.reason == b.reason
}

// readAll drains s to EOF.
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
	// An acceptor that no longer holds the stream (it restarted, or the
	// task migrated) answers DATA with a RESET the opener can match: the
	// opener's Read fails with ErrStreamReset instead of waiting out ctx.
	ma, mb := streamPair(t)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	s, err := ma.Open(ctx, "urn:stream:b", "lost")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Write(ctx, []byte("x")); err != nil {
		t.Fatal(err)
	}
	srv, err := mb.Accept(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Read(ctx); err != nil {
		t.Fatal(err)
	}
	mb.mu.Lock()
	delete(mb.streams, streamKey{srv.peer, srv.id, false})
	mb.mu.Unlock()

	if err := s.Write(ctx, []byte("y")); err != nil {
		t.Fatal(err)
	}
	readCtx, readCancel := context.WithTimeout(ctx, 2*time.Second)
	defer readCancel()
	if _, err := s.Read(readCtx); !errors.Is(err, ErrStreamReset) {
		t.Fatalf("read after the acceptor dropped the stream: %v, want ErrStreamReset", err)
	}
	if n := mb.mResetsOut.Value(); n != 1 {
		t.Fatalf("acceptor sent %d RESET frames, want 1", n)
	}
}

func TestStreamUnaryEchoCounters(t *testing.T) {
	// A unary exchange far below a quarter window costs no WINDOW frame,
	// and its frames share messages: never more messages than frames.
	ma, mb := streamPair(t)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	served := make(chan error, 1)
	go func() { served <- echoOnce(ctx, mb, make([]byte, 4<<10)) }()
	s, err := ma.Open(ctx, "urn:stream:b", "echo")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Write(ctx, make([]byte, 256)); err != nil {
		t.Fatal(err)
	}
	if err := s.CloseWrite(); err != nil {
		t.Fatal(err)
	}
	resp, err := readAll(ctx, s)
	if err != nil || len(resp) != 4<<10 {
		t.Fatalf("response: %d bytes, %v", len(resp), err)
	}
	if err := <-served; err != nil {
		t.Fatal(err)
	}
	// A stream leaves the table once its last frame is with the endpoint,
	// after which the counters are final.
	waitFor(t, 3*time.Second, func() bool {
		return ma.ActiveStreams() == 0 && mb.ActiveStreams() == 0
	}, "streams not reaped after the exchange")
	for _, c := range []struct {
		name   string
		m      *StreamMux
		frames uint64
	}{{"opener", ma, 3}, {"acceptor", mb, 2}} {
		frames, msgs := c.m.mFramesOut.Value(), c.m.mMsgsOut.Value()
		if frames != c.frames || msgs == 0 || msgs > frames {
			t.Errorf("%s: %d frames in %d messages, want %d frames in 1..%d", c.name, frames, msgs, c.frames, c.frames)
		}
		if w, r, f := c.m.mWindowsOut.Value(), c.m.mResetsOut.Value(), c.m.mSendFailures.Value(); w+r+f != 0 {
			t.Errorf("%s: %d window updates, %d resets, %d send failures, want none", c.name, w, r, f)
		}
	}
	if got := ma.ep.Metrics().Snapshot().Counters["stream_frames_out"]; got != 3 {
		t.Errorf("stream_frames_out in the endpoint's registry = %d, want 3", got)
	}
}

func TestStreamSendFailureSurfacesOnRead(t *testing.T) {
	// Open and Write return once their frames are queued. When the
	// endpoint then refuses the message, the stream fails with the cause.
	res := newTestResolver()
	fl := newFakeLiveness()
	a := newTestEndpoint(t, "urn:stream:a", res, WithLiveness(fl), WithFailFastDead())
	newTestEndpoint(t, "urn:stream:b", res)
	ma := NewStreamMux(a)
	t.Cleanup(ma.Close)
	fl.setDead("urn:stream:b", true)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	s, err := ma.Open(ctx, "urn:stream:b", "dead")
	if err != nil {
		t.Fatalf("open toward a dead peer: %v, want it queued", err)
	}
	_, err = s.Read(ctx)
	if !errors.Is(err, ErrPeerDead) || !errors.Is(err, ErrStreamReset) {
		t.Fatalf("read after a refused send: %v, want ErrStreamReset wrapping ErrPeerDead", err)
	}
	if err := s.Write(ctx, []byte("x")); !errors.Is(err, ErrPeerDead) {
		t.Fatalf("write after a refused send: %v, want ErrPeerDead", err)
	}
	// The refused OPEN, and perhaps already the RESET queued after it.
	if n := ma.mSendFailures.Value(); n < 1 || n > 2 {
		t.Fatalf("stream_send_failures = %d, want 1 or 2", n)
	}
	if n := ma.ActiveStreams(); n != 0 {
		t.Fatalf("%d streams active after the failure, want 0", n)
	}
}

func TestStreamWriteIsSentWithoutAnotherCall(t *testing.T) {
	// A handler that writes a chunk and then waits on something that is
	// not the stream still has the chunk delivered: the flusher does not
	// need a later Write, Read or CloseWrite to push it out.
	ma, mb := streamPair(t)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	s, err := ma.Open(ctx, "urn:stream:b", "ticker")
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	served := make(chan error, 1)
	go func() {
		srv, err := mb.Accept(ctx)
		if err == nil {
			err = srv.Write(ctx, []byte("tick"))
		}
		<-release
		served <- err
	}()
	readCtx, readCancel := context.WithTimeout(ctx, 2*time.Second)
	defer readCancel()
	chunk, err := s.Read(readCtx)
	close(release)
	if err != nil || string(chunk) != "tick" {
		t.Fatalf("read while the writer is parked: %q, %v", chunk, err)
	}
	if err := <-served; err != nil {
		t.Fatal(err)
	}
}

func TestStreamSmallWindowTransfer(t *testing.T) {
	// Eight windows of data through a 64 KiB window, in chunks of half
	// of it — the largest the mux admits, so the quarter window of credit
	// a reader may withhold never starves the writer; and credit comes
	// back in quarter windows, not chunk by chunk.
	const window = 64 << 10
	ma, mb := streamPairSized(t, window, window/2)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	payload := make([]byte, 8*window)
	for i := range payload {
		payload[i] = byte(i * 131)
	}
	s, err := ma.Open(ctx, "urn:stream:b", "bulk")
	if err != nil {
		t.Fatal(err)
	}
	writeDone := make(chan error, 1)
	go func() {
		err := s.Write(ctx, payload)
		if err == nil {
			err = s.CloseWrite()
		}
		writeDone <- err
	}()
	srv, err := mb.Accept(ctx)
	if err != nil {
		t.Fatal(err)
	}
	got, err := readAll(ctx, srv)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-writeDone; err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload corrupted: got %d bytes, want %d", len(got), len(payload))
	}
	if n := mb.mWindowsOut.Value(); n == 0 || n > 40 {
		t.Fatalf("reader sent %d WINDOW frames for 8 windows of data, want 1..40", n)
	}
}

func TestStreamMuxCloseSendsQueuedFrames(t *testing.T) {
	// Close hands what is queued to the endpoint before it stops the mux:
	// a response written just before Close still reaches the peer whole.
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
	s, err := ma.Open(ctx, "urn:stream:b", "last")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CloseWrite(); err != nil {
		t.Fatal(err)
	}
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

func TestStreamFrameSequence(t *testing.T) {
	// The payload of a message is a frame sequence. Damage ends it: the
	// frames before it are applied, nothing after.
	frames := []streamFrame{
		{kind: streamOpen, id: 7, orig: true, method: "echo", delta: 1 << 20},
		{kind: streamData, id: 7, orig: true, data: []byte("payload")},
		{kind: streamClose, id: 7, orig: true},
		{kind: streamWindow, id: 9, delta: 4096},
		{kind: streamReset, id: 9, reason: "gone"},
	}
	e := xdr.NewEncoder(0)
	var ends []int // encoded length after each frame
	for i := range frames {
		frames[i].encode(e)
		ends = append(ends, e.Len())
	}
	whole := e.Bytes()
	for _, c := range []struct {
		name    string
		payload []byte
		want    int // frames applied
		damaged bool
	}{
		{"whole sequence", whole, 5, false},
		{"empty payload", nil, 0, false},
		{"tail cut inside the DATA frame", whole[:ends[1]-3], 1, true},
		{"tail cut inside a header", whole[:ends[2]+4], 3, true},
		{"garbage after a valid frame", append(append([]byte{}, whole[:ends[0]]...), 0xff, 0xff, 0xff), 1, true},
		{"unknown kind between frames", append(append(append([]byte{}, whole[:ends[0]]...), make([]byte, streamHeaderSize)...), whole[ends[0]:]...), 1, true},
	} {
		var got []streamFrame
		err := forEachStreamFrame(c.payload, func(f streamFrame) { got = append(got, f) })
		if (err != nil) != c.damaged || len(got) != c.want {
			t.Errorf("%s: %d frames applied, err %v; want %d frames, damaged=%v", c.name, len(got), err, c.want, c.damaged)
			continue
		}
		for i, f := range got {
			if !sameStreamFrame(f, frames[i]) {
				t.Errorf("%s: frame %d = %+v, want %+v", c.name, i, f, frames[i])
			}
		}
	}
}

func TestStreamBatchesKeepOrderAndSize(t *testing.T) {
	// Seen from a bare endpoint: every StreamTag message is a frame
	// sequence no longer than a chunk and a few small frames, and the
	// frames of a stream arrive in the order they were queued however they
	// were batched.
	const chunk, window = 1 << 10, 64 << 10
	res := newTestResolver()
	a := newTestEndpoint(t, "urn:stream:a", res)
	b := newTestEndpoint(t, "urn:stream:b", res)
	ma := newStreamMux(a, window, chunk, streamFlushIdle)
	t.Cleanup(ma.Close)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	payload := make([]byte, window)
	for i := range payload {
		payload[i] = byte(i * 17)
	}
	s, err := ma.Open(ctx, "urn:stream:b", "raw")
	if err != nil {
		t.Fatal(err)
	}
	// Writes of mixed sizes, so batches fill unevenly.
	for rest := payload; len(rest) > 0; {
		n := min(len(rest), 100+len(rest)%(3*chunk))
		if err := s.Write(ctx, rest[:n]); err != nil {
			t.Fatal(err)
		}
		rest = rest[n:]
	}
	if err := s.CloseWrite(); err != nil {
		t.Fatal(err)
	}

	var kinds []uint8
	var got []byte
	for len(kinds) == 0 || kinds[len(kinds)-1] != streamClose {
		msg, err := b.RecvMatch(ctx, "urn:stream:a", StreamTag)
		if err != nil {
			t.Fatalf("after %d frames: %v", len(kinds), err)
		}
		if len(msg.Payload) > chunk+streamBatchSlack {
			t.Fatalf("message of %d bytes, want at most %d", len(msg.Payload), chunk+streamBatchSlack)
		}
		if err := forEachStreamFrame(msg.Payload, func(f streamFrame) {
			kinds = append(kinds, f.kind)
			got = append(got, f.data...)
		}); err != nil {
			t.Fatal(err)
		}
	}
	if kinds[0] != streamOpen || !bytes.Equal(got, payload) {
		t.Fatalf("first frame kind %d, %d data bytes in order; want OPEN first and %d bytes", kinds[0], len(got), len(payload))
	}
	if msgs := ma.mMsgsOut.Value(); msgs >= uint64(len(kinds)) {
		t.Fatalf("%d frames took %d messages: nothing was batched", len(kinds), msgs)
	}
}

func TestStreamConcurrentCallsShareBatches(t *testing.T) {
	// Many goroutines, one peer: their frames interleave in shared
	// batches, and every call still gets its own answer.
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
			if err == nil {
				err = s.CloseWrite()
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
	waitFor(t, 3*time.Second, func() bool {
		return ma.ActiveStreams() == 0 && mb.ActiveStreams() == 0
	}, "streams not reaped after the calls")
}

// refuseNth is a PeerLiveness that declares every peer dead for exactly
// one PeerDead query, the nth: the endpoint consults it once per Send.
type refuseNth struct {
	mu sync.Mutex
	n  int
}

func (r *refuseNth) PeerDead(string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.n--
	return r.n == 0
}
func (*refuseNth) ReportFailure(string) {}
func (*refuseNth) ReportSuccess(string) {}

func TestStreamRefusedMiddleBatchNeverEndsCleanly(t *testing.T) {
	// A three-chunk Write plus CloseWrite is three batches. The endpoint
	// refuses the middle one and would take the last: the peer must not
	// be handed chunks 1 and 3 and a CLOSE as if that were the stream.
	const chunk = 1 << 10
	res := newTestResolver()
	a := newTestEndpoint(t, "urn:stream:a", res, WithLiveness(&refuseNth{n: 2}), WithFailFastDead())
	b := newTestEndpoint(t, "urn:stream:b", res)
	ma := newStreamMux(a, defaultStreamWindow, chunk, streamFlushIdle)
	mb := newStreamMux(b, defaultStreamWindow, chunk, streamFlushIdle)
	t.Cleanup(ma.Close)
	t.Cleanup(mb.Close)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	s, err := ma.Open(ctx, "urn:stream:b", "holed")
	if err != nil {
		t.Fatal(err)
	}
	// Write and CloseWrite may or may not see the failure, depending on
	// how far the flusher got; the Read after them must.
	if err := s.Write(ctx, make([]byte, 3*chunk)); err == nil {
		_ = s.CloseWrite()
	}
	if _, err := s.Read(ctx); !errors.Is(err, ErrPeerDead) || !errors.Is(err, ErrStreamReset) {
		t.Fatalf("opener's read: %v, want ErrStreamReset wrapping ErrPeerDead", err)
	}
	if err := s.Write(ctx, []byte("more")); !errors.Is(err, ErrPeerDead) {
		t.Fatalf("write after the refusal: %v, want ErrPeerDead", err)
	}

	srv, err := mb.Accept(ctx)
	if err != nil {
		t.Fatal(err)
	}
	got, err := readAll(ctx, srv)
	if !errors.Is(err, ErrStreamReset) {
		t.Fatalf("peer read %d bytes, err %v; want the stream reset, never a clean end", len(got), err)
	}
	// The first batch is the OPEN with or without the first chunk.
	if len(got) > chunk {
		t.Errorf("peer read %d bytes, want at most the %d sent before the refused batch", len(got), chunk)
	}
	if n := ma.ActiveStreams(); n != 0 {
		t.Errorf("%d streams active on the sender after the failure, want 0", n)
	}
}

func TestStreamChunkCannotReachNextFrame(t *testing.T) {
	// Chunks alias the payload their message arrived in. Each is capped at
	// its length, so a caller appending to one cannot write over the
	// frames behind it, which another stream may not have read yet.
	e := xdr.NewEncoder(64)
	first := streamFrame{kind: streamData, id: 1, orig: true, data: []byte("aaaa")}
	second := streamFrame{kind: streamData, id: 2, orig: true, data: []byte("bbbb")}
	first.encode(e)
	second.encode(e)
	var got []streamFrame
	if err := forEachStreamFrame(e.Bytes(), func(f streamFrame) { got = append(got, f) }); err != nil || len(got) != 2 {
		t.Fatalf("decoded %d frames, err %v", len(got), err)
	}
	if c := cap(got[0].data); c != len(got[0].data) {
		t.Fatalf("chunk has capacity %d past its length %d", c, len(got[0].data))
	}
	_ = append(got[0].data, "XXXXXXXXXXXXXXXX"...)
	if !sameStreamFrame(got[1], second) {
		t.Fatalf("appending to the first chunk changed the second frame: %+v", got[1])
	}
}

func TestStreamOpenToClosingMuxIsReset(t *testing.T) {
	// An OPEN that the receive loop of a closing mux still handles is
	// answered with a RESET, so the opener fails over at once instead of
	// waiting out its timeout.
	ma, mb := streamPair(t)
	mb.mu.Lock()
	mb.closed = true // Close has begun and has not yet stopped the receive loop
	mb.mu.Unlock()
	t.Cleanup(func() {
		mb.mu.Lock()
		mb.closed = false // let the registered Close run in full
		mb.mu.Unlock()
	})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	s, err := ma.Open(ctx, "urn:stream:b", "late")
	if err != nil {
		t.Fatal(err)
	}
	readCtx, readCancel := context.WithTimeout(ctx, 2*time.Second)
	defer readCancel()
	if _, err := s.Read(readCtx); !errors.Is(err, ErrStreamReset) {
		t.Fatalf("read from a closing mux: %v, want ErrStreamReset", err)
	}
}

// BenchmarkStreamBulk moves 16 MiB per iteration through one stream at
// the default window and chunk (a multi-chunk transfer: credit waits,
// WINDOW grants, one DATA chunk per message) and reports throughput.
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
			for err == nil {
				_, err = srv.Read(ctx)
			}
			if err == io.EOF {
				srv.CloseWrite()
			}
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
		if err := s.CloseWrite(); err != nil {
			b.Fatal(err)
		}
		if _, err := s.Read(ctx); err == nil {
			b.Fatal("data from a sink")
		}
	}
}
