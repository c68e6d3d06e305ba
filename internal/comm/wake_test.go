package comm

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"
)

// RecvMatch, Stream.Read and Stream.Write register the watcher that wakes
// them when their context ends only once they are about to wait, and with
// their lock released. These tests wake a blocked call — by ending its
// context, and by handing it what it waits for — at every point of that
// sequence: before it starts, around the registration, once it is parked.
// A wake-up lost at any of them shows as a call still blocked.

// wakeRace runs blocked under a fresh context a few hundred times, calling
// wake a little later into the call each time round, and requires blocked
// to return want within 100 ms of it.
func wakeRace(t *testing.T, want error, blocked func(ctx context.Context) error, wake func(cancel context.CancelFunc)) {
	t.Helper()
	for round := 0; round < 400; round++ {
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() { done <- blocked(ctx) }()
		for i := 0; i < round%16; i++ {
			runtime.Gosched()
		}
		if round%16 == 15 {
			time.Sleep(time.Millisecond) // certainly parked
		}
		wake(cancel)
		select {
		case err := <-done:
			if !errors.Is(err, want) {
				t.Fatalf("round %d: %v, want %v", round, err, want)
			}
		case <-time.After(100 * time.Millisecond):
			t.Fatalf("round %d: still blocked 100 ms after it was woken", round)
		}
		cancel()
	}
}

func endContext(cancel context.CancelFunc) { cancel() }

func TestRecvMatchWakeUps(t *testing.T) {
	e := newTestEndpoint(t, "urn:cancel:recv", newTestResolver())
	recv := func(ctx context.Context) error {
		_, err := e.RecvMatch(ctx, "", 7)
		return err
	}
	t.Run("cancel", func(t *testing.T) { wakeRace(t, context.Canceled, recv, endContext) })
	t.Run("message", func(t *testing.T) {
		wakeRace(t, nil, recv, func(context.CancelFunc) {
			e.mu.Lock()
			e.deliverLocked(&Message{Src: "urn:x", Tag: 7}, nil)
			e.mu.Unlock()
		})
	})
}

func TestStreamReadWakeUps(t *testing.T) {
	ma, mb := streamPair(t)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := ma.Open(ctx, "urn:stream:b", "idle"); err != nil {
		t.Fatal(err)
	}
	srv, err := mb.Accept(ctx)
	if err != nil {
		t.Fatal(err)
	}
	read := func(ctx context.Context) error {
		_, err := srv.Read(ctx)
		return err
	}
	t.Run("cancel", func(t *testing.T) { wakeRace(t, context.Canceled, read, endContext) })
	t.Run("data", func(t *testing.T) {
		wakeRace(t, nil, read, func(context.CancelFunc) { srv.deliver([]byte("x")) })
	})
}

func TestStreamWriteBlockedOnCreditWakeUps(t *testing.T) {
	ma, _ := streamPairSized(t, 2<<10, 1<<10)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	s, err := ma.Open(ctx, "urn:stream:b", "full")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Write(ctx, make([]byte, 2<<10)); err != nil { // the whole window; nobody reads
		t.Fatal(err)
	}
	chunk := make([]byte, 1<<10)
	write := func(ctx context.Context) error { return s.Write(ctx, chunk) }
	t.Run("cancel", func(t *testing.T) { wakeRace(t, context.Canceled, write, endContext) })
	t.Run("credit", func(t *testing.T) {
		wakeRace(t, nil, write, func(context.CancelFunc) { s.grant(len(chunk)) })
	})
}

// TestStreamQueuedDataBeatsEndedContext: what has already arrived is handed
// out ahead of the context's error, by Read and by RecvMatch alike, and a
// context that has ended costs them no watcher to find that out.
func TestStreamQueuedDataBeatsEndedContext(t *testing.T) {
	ma, mb := streamPair(t)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	s, err := ma.Open(ctx, "urn:stream:b", "queued")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Write(ctx, []byte("already here")); err != nil {
		t.Fatal(err)
	}
	srv, err := mb.Accept(ctx)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return len(srv.recvQ) > 0
	}, "the chunk never arrived")

	ended, end := context.WithCancel(context.Background())
	end()
	if got, err := srv.Read(ended); err != nil || string(got) != "already here" {
		t.Fatalf("Read with data queued and an ended context: %q, %v", got, err)
	}
	if _, err := srv.Read(ended); !errors.Is(err, context.Canceled) {
		t.Fatalf("Read with nothing queued and an ended context: %v", err)
	}

	if err := ma.Endpoint().Send("urn:stream:b", 9, []byte("in the mailbox")); err != nil {
		t.Fatal(err)
	}
	eb := mb.Endpoint()
	waitFor(t, 5*time.Second, func() bool {
		eb.mu.Lock()
		defer eb.mu.Unlock()
		return len(eb.mailbox) > 0
	}, "the message never arrived")
	if m, err := eb.RecvMatch(ended, "", 9); err != nil || string(m.Payload) != "in the mailbox" {
		t.Fatalf("RecvMatch with its message queued and an ended context: %v, %v", m, err)
	}
	if _, err := eb.RecvMatch(ended, "", 9); !errors.Is(err, context.Canceled) {
		t.Fatalf("RecvMatch with nothing queued and an ended context: %v", err)
	}
}

// TestStreamBatchRecycledAfterFailQueueOwnsNothing: failQueue fails every
// stream of the refused batch and of the batches behind it, and the batches
// it hands to the pool keep none of them — not in the slice's length and
// not in its spare capacity — nor their place in the queue.
func TestStreamBatchRecycledAfterFailQueueOwnsNothing(t *testing.T) {
	ma, _ := streamPair(t)
	const peer = "urn:stream:b"
	var streams []*Stream
	var batches []*streamBatch
	ma.mu.Lock()
	for i := 0; i < 3; i++ { // three batches, two frames of one stream each
		s := ma.newStream(peer, uint64(100+i), true, "m")
		ma.streams[streamKey{peer, s.id, true}] = s
		b := getStreamBatch()
		for _, kind := range []uint8{streamOpen, streamClose} {
			f := streamFrame{kind: kind, id: s.id, orig: true}
			f.encode(b.enc)
			b.streams = append(b.streams, s)
			s.queued++
		}
		if i > 0 {
			batches[i-1].next = b
		}
		streams, batches = append(streams, s), append(batches, b)
	}
	// The refused batch is off the queue, the rest still on it, and the
	// entry stands for the flusher that found the refusal.
	q := &sendQueue{head: batches[1], tail: batches[2], wake: make(chan struct{}, 1)}
	ma.out[peer] = q
	batches[0].next = nil
	ma.mu.Unlock()

	cause := errors.New("refused")
	ma.failQueue(peer, q, batches[0], cause)

	for i, s := range streams {
		if _, err := s.Read(context.Background()); !errors.Is(err, cause) {
			t.Errorf("stream %d: read %v, want the refusal", i, err)
		}
	}
	if n := ma.ActiveStreams(); n != 0 {
		t.Errorf("%d streams still routed after the failure, want 0", n)
	}
	ma.mu.Lock()
	defer ma.mu.Unlock()
	for i, b := range batches {
		// failQueue's own RESETs may already ride a recycled batch: they
		// are frames of no stream, so its slice stays empty all the same.
		if len(b.streams) != 0 {
			t.Errorf("batch %d went back with %d streams", i, len(b.streams))
		}
		for j, s := range b.streams[:cap(b.streams)] {
			if s != nil {
				t.Errorf("batch %d went back holding a stream in slot %d", i, j)
			}
		}
	}
	delete(ma.out, peer) // no flusher runs for the entry the test made
}
