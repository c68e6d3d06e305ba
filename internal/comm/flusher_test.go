package comm

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"
)

// A peer's flusher is started by the first frame for a peer with no
// queue, parks on its wake channel when the queue runs dry, and exits
// after the mux's idle period with nothing queued, taking the queue with
// it. These tests shrink the idle period where they need it to pass.

// queued reports whether the mux holds a queue, and so runs a flusher, for
// peer.
func queued(m *StreamMux, peer string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.out[peer] != nil
}

func TestStreamFlusherIdleExit(t *testing.T) {
	const idle = 20 * time.Millisecond
	res := newTestResolver()
	a := newTestEndpoint(t, "urn:flush:a", res)
	b := newTestEndpoint(t, "urn:flush:b", res)
	ma, mb := newStreamMux(a, defaultStreamWindow, defaultStreamChunk, idle), newStreamMux(b, defaultStreamWindow, defaultStreamChunk, idle)
	t.Cleanup(ma.Close)
	t.Cleanup(mb.Close)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	defer serveEchoes(ctx, mb, []byte("pong"), nil)()
	defer cancel()
	call := func() {
		t.Helper()
		if got, err := unaryEcho(ctx, ma, "urn:flush:b", []byte("ping")); err != nil || string(got) != "pong" {
			t.Fatalf("call: %q, %v", got, err)
		}
	}

	call()
	waitFor(t, 5*time.Second, func() bool { return !queued(ma, "urn:flush:b") }, "the idle flusher kept its peer's queue")
	before := ma.mFlusherStarts.Value()
	if before == 0 {
		t.Fatal("no flusher start counted")
	}
	call()
	if after := ma.mFlusherStarts.Value(); after <= before {
		t.Fatalf("%d flusher starts after the first flusher exited, want more than %d", after, before)
	}
}

// TestStreamFlusherIdleRace: a frame queued as its peer's flusher gives up
// either finds the queue still there, and the flusher sends it, or finds it
// gone and starts a flusher of its own. Never is it left in a queue nobody
// drains: each round's frame must arrive.
func TestStreamFlusherIdleRace(t *testing.T) {
	const rounds, idle = 10_000, 50 * time.Microsecond
	res := newTestResolver()
	a := newTestEndpoint(t, "urn:flush:a", res)
	b := newTestEndpoint(t, "urn:flush:b", res)
	ma := newStreamMux(a, defaultStreamWindow, defaultStreamChunk, idle)
	t.Cleanup(ma.Close)
	for i := 0; i < rounds; i++ {
		ma.reset("urn:flush:b", uint64(i), true, "r") // a frame of no stream
		msg, err := recvMatchT(b, "urn:flush:a", StreamTag, 5*time.Second)
		if err != nil {
			t.Fatalf("round %d: the frame never left: %v", i, err)
		}
		var ids []uint64
		if err := forEachStreamFrame(msg.Payload, func(f streamFrame) { ids = append(ids, f.id) }); err != nil || len(ids) != 1 || ids[0] != uint64(i) {
			t.Fatalf("round %d: frames %v, %v", i, ids, err)
		}
		// Queue the next one anywhere from at once to twice the idle period
		// after the flusher parked.
		for start := time.Now(); time.Since(start) < time.Duration(i%101)*idle/50; {
			runtime.Gosched()
		}
	}
	starts := ma.mFlusherStarts.Value()
	t.Logf("%d flusher starts in %d rounds", starts, rounds)
	if starts < 2 {
		t.Fatalf("%d flusher starts: no flusher expired, the race was not run", starts)
	}
}

// TestStreamFlusherCloseDrains: Close hands every frame already queued, to
// every peer, to the endpoint before it fails the streams, and returns with
// no flusher left.
func TestStreamFlusherCloseDrains(t *testing.T) {
	const peers, chunk = 8, 1 << 10
	res := newTestResolver()
	a := newTestEndpoint(t, "urn:flush:src", res)
	ma := newStreamMux(a, defaultStreamWindow, chunk, streamFlushIdle)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	payload := patternPayload(3, 3*chunk) // three batches per peer
	var sinks []*Endpoint
	for i := 0; i < peers; i++ {
		urn := fmt.Sprintf("urn:flush:sink%d", i)
		sinks = append(sinks, newTestEndpoint(t, urn, res))
		s, err := ma.Open(ctx, urn, "last")
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Write(ctx, payload); err != nil {
			t.Fatal(err)
		}
		if err := s.CloseWrite(); err != nil {
			t.Fatal(err)
		}
	}
	ma.Close()
	ma.mu.Lock()
	left := len(ma.out)
	ma.mu.Unlock()
	if left != 0 {
		t.Fatalf("%d peer queues left after Close, want none: a flusher outlived it", left)
	}
	for i, sink := range sinks {
		var kinds []uint8
		var got []byte
		for len(kinds) == 0 || kinds[len(kinds)-1] != streamClose {
			msg, err := sink.RecvMatch(ctx, "urn:flush:src", StreamTag)
			if err != nil {
				t.Fatalf("peer %d, after %d frames: %v", i, len(kinds), err)
			}
			if err := forEachStreamFrame(msg.Payload, func(f streamFrame) {
				kinds = append(kinds, f.kind)
				got = append(got, f.data...)
			}); err != nil {
				t.Fatal(err)
			}
		}
		if kinds[0] != streamOpen || !bytes.Equal(got, payload) {
			t.Errorf("peer %d: first frame %d, %d of %d bytes", i, kinds[0], len(got), len(payload))
		}
	}
}

// TestStreamFlusherOutlivesRefusal: a batch the endpoint refuses fails the
// streams in it, and the same flusher goes on to serve the calls after.
func TestStreamFlusherOutlivesRefusal(t *testing.T) {
	const slots = 4
	res := newTestResolver()
	a := newTestEndpoint(t, "urn:flush:a", res, WithBufferLimit(slots))
	b := newTestEndpoint(t, "urn:flush:b", res)
	// An idle flusher outlives the wait for the buffer to drain below.
	ma := newStreamMux(a, defaultStreamWindow, defaultStreamChunk, time.Minute)
	mb := NewStreamMux(b)
	t.Cleanup(ma.Close)
	t.Cleanup(mb.Close)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	defer serveEchoes(ctx, mb, []byte("pong"), nil)()
	defer cancel()

	// Messages to a peer that is not listening yet hold every slot of
	// the system buffer, so the endpoint refuses the call's batch.
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
	if n := ma.mFlusherStarts.Value(); n != 1 {
		t.Fatalf("%d flusher starts, want the one that met the refusal to serve every call", n)
	}
}

// TestStreamQueueBoundRefusesOneStream: a stream frame that would take its
// peer's queue past the byte bound is refused with ErrBufferFull; that
// stream fails and is RESET at the peer, and another stream queued to the
// same peer goes through whole.
func TestStreamQueueBoundRefusesOneStream(t *testing.T) {
	ma, mb := streamPairSized(t, 2*maxStreamQueueBytes, maxStreamQueueBytes) // a chunk as large as the bound
	const peer = "urn:stream:b"
	q := &sendQueue{wake: make(chan struct{}, 1)}
	ma.mu.Lock()
	ma.out[peer] = q // no flusher yet: what is queued stays queued
	ma.mu.Unlock()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	over, err := ma.Open(ctx, peer, "over")
	if err != nil {
		t.Fatal(err)
	}
	kept, err := ma.Open(ctx, peer, "kept")
	if err != nil {
		t.Fatal(err)
	}
	if err := kept.Write(ctx, []byte("whole")); err != nil {
		t.Fatal(err)
	}
	if err := over.Write(ctx, make([]byte, maxStreamQueueBytes)); !errors.Is(err, ErrBufferFull) {
		t.Fatalf("write past the bound: %v, want ErrBufferFull", err)
	}
	if _, err := over.Read(ctx); !errors.Is(err, ErrBufferFull) {
		t.Fatalf("read on the refused stream: %v, want ErrBufferFull", err)
	}
	if err := kept.CloseWrite(); err != nil {
		t.Fatalf("the other stream: %v", err)
	}
	ma.mu.Lock()
	ma.flushers.Add(1)
	go ma.flush(peer, q)
	ma.mu.Unlock()

	for i := 0; i < 2; i++ {
		srv, err := mb.Accept(ctx)
		if err != nil {
			t.Fatal(err)
		}
		got, err := readAll(ctx, srv)
		switch srv.Method() {
		case "over":
			if !errors.Is(err, ErrStreamReset) {
				t.Errorf("peer read the refused stream to %d bytes, %v; want it reset", len(got), err)
			}
		case "kept":
			if err != nil || string(got) != "whole" {
				t.Errorf("peer read the other stream: %q, %v", got, err)
			}
		}
	}
	if n := ma.mSendFailures.Value(); n != 0 {
		t.Errorf("%d batches refused by the endpoint, want 0: the bound refuses frames, not batches", n)
	}
}
