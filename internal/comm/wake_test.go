package comm

import (
	"context"
	"errors"
	"io"
	"runtime"
	"testing"
	"time"
)

// RecvMatch and AwaitReply (under Stream.Read) register the watcher that
// wakes them when their context ends only once they are about to wait, and
// with their lock released. These tests wake a blocked call — by ending its
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
	// The opener's Read waits for the reply in AwaitReply: a bare peer
	// answers nothing, and the test delivers the reply itself.
	res := newTestResolver()
	ma := NewStreamMux(newTestEndpoint(t, "urn:stream:a", res))
	t.Cleanup(ma.Close)
	newTestEndpoint(t, "urn:stream:b", res)
	a := ma.Endpoint()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	calls := make(chan *Stream, 1)
	read := func(rctx context.Context) error {
		s, err := ma.Open(ctx, "urn:stream:b", "idle")
		if err == nil {
			err = s.CloseWrite()
		}
		if err != nil {
			return err
		}
		calls <- s
		_, err = s.Read(rctx)
		if errors.Is(err, io.EOF) {
			err = nil // an empty reply
		}
		s.Reset("round over")
		return err
	}
	t.Run("cancel", func(t *testing.T) {
		wakeRace(t, context.Canceled, read, func(cancel context.CancelFunc) {
			<-calls
			cancel()
		})
	})
	t.Run("data", func(t *testing.T) {
		wakeRace(t, nil, read, func(context.CancelFunc) {
			s := <-calls
			a.mu.Lock()
			a.deliverLocked(&Message{Src: "urn:stream:b", Tag: ReplyTag, Payload: callReply(s.id, callOK, "")}, nil)
			a.mu.Unlock()
		})
	})
}

// TestStreamQueuedDataBeatsEndedContext: what has already arrived is handed
// out ahead of the context's error, by Read and by RecvMatch alike, and a
// context that has ended costs them no watcher to find that out.
func TestStreamQueuedDataBeatsEndedContext(t *testing.T) {
	ma, mb := streamPair(t)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	served := make(chan error, 1)
	go func() { served <- echoOnce(ctx, mb, []byte("already here")) }()
	s := sent(t, ctx, ma, "urn:stream:b", "queued", "")
	if err := <-served; err != nil {
		t.Fatal(err)
	}
	a := ma.Endpoint()
	waitFor(t, 5*time.Second, func() bool {
		a.mu.Lock()
		defer a.mu.Unlock()
		return len(a.requests[s.id].replies) > 0
	}, "the reply never arrived")

	ended, end := context.WithCancel(context.Background())
	end()
	if got, err := s.Read(ended); err != nil || string(got) != "already here" {
		t.Fatalf("Read with its reply queued and an ended context: %q, %v", got, err)
	}
	if _, err := sent(t, ctx, ma, "urn:stream:b", "queued", "").Read(ended); !errors.Is(err, context.Canceled) {
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
