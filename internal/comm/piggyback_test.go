package comm

import (
	"bytes"
	"context"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"snipe/internal/netsim"
)

// withAckFlush replaces the 200 µs an endpoint holds acks for.
func withAckFlush(d time.Duration) EndpointOption {
	return func(e *Endpoint) { e.ackFlush = d }
}

// counters reads the named counters of an endpoint.
func counters(e *Endpoint, names ...string) []uint64 {
	snap := e.Metrics().Snapshot().Counters
	out := make([]uint64, len(names))
	for i, n := range names {
		out[i] = snap[n]
	}
	return out
}

// unaryEcho is one call as service.Client makes it: Open, Write,
// CloseWrite, Read to EOF.
func unaryEcho(ctx context.Context, m *StreamMux, dst string, req []byte) ([]byte, error) {
	s, err := m.Open(ctx, dst, "echo")
	if err != nil {
		return nil, err
	}
	if err := s.Write(ctx, req); err != nil {
		return nil, err
	}
	if err := s.CloseWrite(); err != nil {
		return nil, err
	}
	return readAll(ctx, s)
}

// serveEchoes answers every stream m accepts with resp until ctx ends,
// calling think (if not nil) between reading the request and writing
// the response; the returned function waits for it.
func serveEchoes(ctx context.Context, m *StreamMux, resp []byte, think func()) (wait func()) {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for ctx.Err() == nil {
			srv, err := m.Accept(ctx)
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := readAll(ctx, srv); err != nil {
					return
				}
				if think != nil {
					think()
				}
				if srv.Write(ctx, resp) == nil {
					srv.CloseWrite()
				}
			}()
		}
	}()
	return wg.Wait
}

// TestUnaryEchoFrameCounts is the tier-1 guard on what a unary call
// puts on the wire, over TCP loopback: two message frames and one
// stand-alone ack frame — the request's ack rides in the response, the
// response's ack travels alone because nothing follows it. The benchmark
// ledger gates the read/write calls those frames cost (service_call,
// io_syscalls_per_op); this fails in `go test` first.
func TestUnaryEchoFrameCounts(t *testing.T) {
	if raceEnabled {
		t.Skip("which frame an ack leaves in depends on the scheduling the detector changes")
	}
	// One P, as the ledger runs: a request's three frames are queued
	// before the flusher the first of them woke (or started) gets to run,
	// so a call is one message each way and the counts below are exact.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const calls = 200
	names := []string{"fragments", "ack_frames", "ack_batches", "acks_deferred", "acks_piggybacked", "retried", "duplicates"}
	req, resp := make([]byte, 256), patternPayload(5, 4<<10)

	echoes := func(t *testing.T, n int, think func(client *Endpoint), opts ...EndpointOption) (client, server []uint64) {
		res := newTestResolver()
		opts = append([]EndpointOption{WithRetryInterval(5 * time.Second)}, opts...)
		a := newTestEndpoint(t, "urn:count:a", res, opts...)
		b := newTestEndpoint(t, "urn:count:b", res, opts...)
		ma, mb := NewStreamMux(a), NewStreamMux(b)
		defer ma.Close()
		defer mb.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		defer serveEchoes(ctx, mb, resp, func() {
			if think != nil {
				think(a)
			}
		})()
		defer cancel()
		for i := 0; i < n; i++ {
			got, err := unaryEcho(ctx, ma, "urn:count:b", req)
			if err != nil || !bytes.Equal(got, resp) {
				t.Fatalf("call %d: %d bytes, %v", i, len(got), err)
			}
		}
		waitFor(t, 3*time.Second, func() bool {
			// A carried ack is counted once its frame is sent, which
			// can be after the peer has read it.
			c := counters(b, "received", "ack_frames", "acks_piggybacked")
			return a.Pending() == 0 && b.Pending() == 0 && c[1]+c[2] == c[0]
		}, "acks outstanding after the last call")
		return counters(a, names...), counters(b, names...)
	}

	t.Run("the ack rides the response", func(t *testing.T) {
		// The window is widened so that a descheduled handler cannot
		// turn a count into a timing: an ack that misses its response
		// would still show, a second late.
		client, server := echoes(t, calls, nil, withAckFlush(time.Second))
		if want := []uint64{calls, calls, 0, 0, 0, 0, 0}; !slices.Equal(client, want) {
			t.Errorf("client %v = %v, want %v", names, client, want)
		}
		if want := []uint64{calls, 0, 0, calls, calls, 0, 0}; !slices.Equal(server, want) {
			t.Errorf("server %v = %v, want %v", names, server, want)
		}
	})

	t.Run("a slow handler's ack leaves alone", func(t *testing.T) {
		// The handler holds its response back until the caller has the
		// request's ack: only the flush timer can have sent it (a
		// retransmission is 5 s away), and it went in a frame of its own.
		const slow = 25
		client, server := echoes(t, slow, func(client *Endpoint) {
			for deadline := time.Now().Add(3 * time.Second); client.Pending() != 0; time.Sleep(50 * time.Microsecond) {
				if time.Now().After(deadline) {
					t.Error("the request's ack did not leave without a response")
					return
				}
			}
		})
		if want := []uint64{slow, slow, 0, 0, 0, 0, 0}; !slices.Equal(client, want) {
			t.Errorf("client %v = %v, want %v", names, client, want)
		}
		if want := []uint64{slow, slow, 0, slow, 0, 0, 0}; !slices.Equal(server, want) {
			t.Errorf("server %v = %v, want %v", names, server, want)
		}
	})

	t.Run("SendWait defers nothing", func(t *testing.T) {
		res := newTestResolver()
		a := newTestEndpoint(t, "urn:count:a", res, WithRetryInterval(5*time.Second))
		b := newTestEndpoint(t, "urn:count:b", res, WithRetryInterval(5*time.Second))
		for i := 0; i < calls; i++ {
			if err := sendWaitT(a, "urn:count:b", 3, req, 5*time.Second); err != nil {
				t.Fatal(err)
			}
		}
		if got, want := counters(b, names...), []uint64{0, calls, 0, 0, 0, 0, 0}; !slices.Equal(got, want) {
			t.Errorf("sink %v = %v, want %v", names, got, want)
		}
		if got, want := counters(a, names...), []uint64{calls, 0, 0, 0, 0, 0, 0}; !slices.Equal(got, want) {
			t.Errorf("sender %v = %v, want %v", names, got, want)
		}
	})
}

// owedAckPair is two TCP endpoints whose only way to get a parked ack
// out is the one under test: the flush window and the retry interval are
// an hour, so neither the timer nor a retransmission can cover for it.
func owedAckPair(t *testing.T) (a, b *Endpoint, bRoute Route) {
	t.Helper()
	res := newTestResolver()
	a = newTestEndpoint(t, "urn:owed:a", res, WithRetryInterval(time.Hour), withAckFlush(time.Hour))
	b = newTestEndpoint(t, "urn:owed:b", res, WithRetryInterval(time.Hour), withAckFlush(time.Hour))
	return a, b, b.Routes()[0]
}

// sendExpectingReply sends as the stream layer sends a request.
func sendExpectingReply(t *testing.T, e *Endpoint, dst string, payload []byte) {
	t.Helper()
	if _, err := e.send(dst, 9, payload, flagReplyExpected); err != nil {
		t.Fatal(err)
	}
}

// wantQuietDelivery checks that a's message was acknowledged without a
// retransmission having had to ask for it.
func wantQuietDelivery(t *testing.T, a, b *Endpoint) {
	t.Helper()
	waitFor(t, 3*time.Second, func() bool { return a.Pending() == 0 }, "the parked ack never reached the sender")
	for _, e := range []*Endpoint{a, b} {
		if c := counters(e, "retried", "duplicates"); c[0]+c[1] != 0 {
			t.Errorf("%s: %d retried, %d duplicates, want none", e.URN(), c[0], c[1])
		}
	}
}

// TestOwedAckFlushedBeforeTheEndpointStops: an ack parked for a reply
// that will not be written — the task checkpoints, the endpoint closes,
// the listener goes — leaves at once, on the connection its message
// arrived on.
func TestOwedAckFlushedBeforeTheEndpointStops(t *testing.T) {
	for name, stop := range map[string]func(b *Endpoint, r Route){
		"Quiesce":       func(b *Endpoint, _ Route) { b.Quiesce() },
		"Close":         func(b *Endpoint, _ Route) { b.Close() },
		"CloseListener": func(b *Endpoint, r Route) { b.CloseListener(r) },
	} {
		t.Run(name, func(t *testing.T) {
			a, b, bRoute := owedAckPair(t)
			sendExpectingReply(t, a, "urn:owed:b", []byte("request"))
			if _, err := recvT(b, 3*time.Second); err != nil {
				t.Fatal(err)
			}
			waitFor(t, 3*time.Second, func() bool { return counters(b, "acks_deferred")[0] == 1 }, "the ack was not parked")
			if a.Pending() != 1 {
				t.Fatalf("sender has %d pending before the stop, want 1", a.Pending())
			}
			stop(b, bRoute)
			wantQuietDelivery(t, a, b)
			if c := counters(b, "ack_frames", "acks_piggybacked"); c[0] != 1 || c[1] != 0 {
				t.Errorf("ack_frames %d, acks_piggybacked %d, want 1 and 0", c[0], c[1])
			}
		})
	}
}

// TestOwedAckGivenBackWhenCarryingSendFails: the frame that took the
// parked acks along is refused by its route, so they go out on their own
// instead of waiting for the message's retry to find another.
func TestOwedAckGivenBackWhenCarryingSendFails(t *testing.T) {
	const urnA, urnB = "urn:owed:a", "urn:owed:b"
	// One simulated link per direction: a reaches b over "there", b
	// reaches a over "back".
	there := Route{Transport: "attached", Addr: "there"}
	back := Route{Transport: "attached", Addr: "back"}
	res := newTestResolver()
	res.set(urnB, there)
	res.set(urnA, back)
	opts := []EndpointOption{WithResolver(res), WithRetryInterval(time.Hour), withAckFlush(time.Hour)}
	a, b := NewEndpoint(urnA, opts...), NewEndpoint(urnB, opts...)
	defer a.Close()
	defer b.Close()
	var links [2]*netsim.Link
	for i, r := range []Route{there, back} {
		ca, cb, link := netsim.StreamPipe(netsim.Ethernet100, uint64(41+i))
		defer link.Close()
		links[i] = link
		a.AttachConn(r.String(), NewStreamFrameConn(ca))
		b.AttachConn(r.String(), NewStreamFrameConn(cb))
	}

	sendExpectingReply(t, a, urnB, []byte("request"))
	if _, err := recvT(b, 3*time.Second); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 3*time.Second, func() bool { return counters(b, "acks_deferred")[0] == 1 }, "the ack was not parked")
	links[1].SetDown(true)
	if err := b.Send(urnA, 9, []byte("response")); err != nil {
		t.Fatal(err) // buffered: the route refused it, the endpoint did not
	}
	wantQuietDelivery(t, a, b)
	if c := counters(b, "send_errors", "ack_frames", "acks_piggybacked"); c[0] != 1 || c[1] != 1 || c[2] != 0 {
		t.Errorf("send_errors %d, ack_frames %d, acks_piggybacked %d, want 1, 1 and 0", c[0], c[1], c[2])
	}
}

// TestPiggybackUnderConcurrentCalls drives calls both ways between two
// muxes from many goroutines at once, so acks are parked, taken, timed
// out and flushed concurrently on both endpoints; every call completes,
// nothing is retransmitted, and every ack is accounted for in exactly
// one of the three ways it can leave.
func TestPiggybackUnderConcurrentCalls(t *testing.T) {
	res := newTestResolver()
	a := newTestEndpoint(t, "urn:pb:a", res, WithRetryInterval(10*time.Second))
	b := newTestEndpoint(t, "urn:pb:b", res, WithRetryInterval(10*time.Second))
	ma, mb := NewStreamMux(a), NewStreamMux(b)
	defer ma.Close()
	defer mb.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	resp := patternPayload(9, 4<<10)
	defer serveEchoes(ctx, ma, resp, nil)()
	defer serveEchoes(ctx, mb, resp, nil)()
	defer cancel()

	const callers, each = 8, 40
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		m, dst := ma, "urn:pb:b"
		if i%2 == 1 {
			m, dst = mb, "urn:pb:a"
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < each; j++ {
				got, err := unaryEcho(ctx, m, dst, make([]byte, 256))
				if err != nil || !bytes.Equal(got, resp) {
					t.Errorf("call to %s: %d bytes, %v", dst, len(got), err)
					return
				}
			}
		}()
	}
	wg.Wait()
	waitFor(t, 5*time.Second, func() bool { return a.Pending() == 0 && b.Pending() == 0 }, "acks outstanding after the last call")
	for _, e := range []*Endpoint{a, b} {
		names := []string{"received", "ack_frames", "acks_batched", "acks_piggybacked", "retried", "duplicates"}
		// A carried ack is counted once its frame is sent, which can be
		// after the peer has read it.
		waitFor(t, 3*time.Second, func() bool {
			c := counters(e, names...)
			return c[1]+c[2]+c[3] == c[0]
		}, "acks sent do not add up to messages accepted")
		c := counters(e, names...)
		if c[4]+c[5] != 0 {
			t.Errorf("%s: %d retried, %d duplicates, want none", e.URN(), c[4], c[5])
		}
	}
}
