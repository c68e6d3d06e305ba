package rcds

import (
	"context"
	"runtime"
	"testing"
	"time"
)

// TestWatchGoroutineShutdown proves the read-cache watch goroutine (and
// the connection read loop under it) terminates when the client closes:
// Close must return promptly even while a watch long-poll is in flight,
// and the process goroutine count must return to its pre-client level.
// goleak is not vendored, so this bounds runtime.NumGoroutine manually
// with a settle loop to absorb scheduler noise.
func TestWatchGoroutineShutdown(t *testing.T) {
	s := startTestServer(t, "leak")

	baseline := runtime.NumGoroutine()

	const nClients = 8
	clients := make([]*Client, nClients)
	for i := range clients {
		c := NewClient([]string{s.Addr()}, nil, WithReadCache())
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		// Force a real connection + watch establishment before closing.
		if err := c.Set(ctx, "urn:leak", "k", "v"); err != nil {
			cancel()
			t.Fatal(err)
		}
		if _, _, err := c.FirstValue(ctx, "urn:leak", "k"); err != nil {
			cancel()
			t.Fatal(err)
		}
		cancel()
		clients[i] = c
	}

	// Each cached client runs a watch goroutine riding a long-poll up to
	// watchPoll long; Close cancels it and waits, so it must return well
	// before a full poll window elapses.
	for _, c := range clients {
		done := make(chan struct{})
		go func(c *Client) { c.Close(); close(done) }(c)
		select {
		case <-done:
		case <-time.After(watchPoll + 2*time.Second):
			t.Fatal("Close did not return before the watch poll window elapsed")
		}
	}

	// The server still holds its accept loop plus per-connection readers
	// that unwind asynchronously after the client side drops; poll until
	// the count settles back to the baseline (small slack for runtime
	// helper goroutines).
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines did not settle: baseline %d, now %d\n%s",
				baseline, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestWatchLoopExitsOnClientClosed proves the watch loop takes its
// early-return path when the in-flight poll fails with ErrClientClosed
// (the connection torn down by Close racing the cancel): Close's
// wg.Wait must not dangle on a watch goroutine backing off to redial.
func TestWatchLoopExitsOnClientClosed(t *testing.T) {
	s := startTestServer(t, "leak2")
	for i := 0; i < 20; i++ {
		c := NewClient([]string{s.Addr()}, nil, WithReadCache())
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if _, err := c.Ping(ctx); err != nil {
			cancel()
			t.Fatal(err)
		}
		cancel()
		done := make(chan struct{})
		go func() { c.Close(); close(done) }()
		select {
		case <-done:
		case <-time.After(watchPoll + 2*time.Second):
			t.Fatal("Close hung waiting for the watch goroutine")
		}
	}
}
