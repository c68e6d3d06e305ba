package comm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// testResolver is a mutable resolver shared by test endpoints. Its
// route stamp counts the changes, as a catalog's change signal would.
type testResolver struct {
	mu  sync.Mutex
	m   map[string][]Route
	ver atomic.Uint64
}

func newTestResolver() *testResolver {
	return &testResolver{m: make(map[string][]Route)}
}

func (r *testResolver) Resolve(urn string) ([]Route, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Route(nil), r.m[urn]...), nil
}

func (r *testResolver) set(urn string, routes ...Route) {
	r.mu.Lock()
	r.m[urn] = routes
	r.ver.Add(1)
	r.mu.Unlock()
}

func (r *testResolver) RouteStamp(string) (uint64, bool) { return r.ver.Load(), true }

// newTestEndpoint creates an endpoint listening on loopback TCP and
// registers it with the resolver.
func newTestEndpoint(t testing.TB, urn string, res *testResolver, opts ...EndpointOption) *Endpoint {
	t.Helper()
	opts = append([]EndpointOption{
		WithResolver(res),
		WithRetryInterval(50 * time.Millisecond),
	}, opts...)
	e := NewEndpoint(urn, opts...)
	route, err := e.Listen(ListenSpec{Transport: "tcp", Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	res.set(urn, route)
	t.Cleanup(e.Close)
	return e
}

func TestEndpointSendRecv(t *testing.T) {
	res := newTestResolver()
	a := newTestEndpoint(t, "urn:snipe:a", res)
	b := newTestEndpoint(t, "urn:snipe:b", res)

	if err := a.Send("urn:snipe:b", 5, []byte("hello b")); err != nil {
		t.Fatal(err)
	}
	m, err := recvT(b, 3*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if m.Src != "urn:snipe:a" || m.Dst != "urn:snipe:b" || m.Tag != 5 || string(m.Payload) != "hello b" {
		t.Fatalf("message: %+v", m)
	}
	// Reply over the reverse path.
	if err := b.Send("urn:snipe:a", 6, []byte("hello a")); err != nil {
		t.Fatal(err)
	}
	m, err = recvT(a, 3*time.Second)
	if err != nil || string(m.Payload) != "hello a" {
		t.Fatalf("reply: %v %v", m, err)
	}
}

func TestEndpointOrderedDelivery(t *testing.T) {
	res := newTestResolver()
	a := newTestEndpoint(t, "urn:a", res)
	b := newTestEndpoint(t, "urn:b", res)
	const n = 100
	for i := 0; i < n; i++ {
		if err := a.Send("urn:b", 0, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		m, err := recvT(b, 3*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if m.Payload[0] != byte(i) {
			t.Fatalf("order violated at %d: got %d", i, m.Payload[0])
		}
		if m.Seq != uint64(i+1) {
			t.Fatalf("seq at %d: %d", i, m.Seq)
		}
	}
}

func TestEndpointRecvMatch(t *testing.T) {
	res := newTestResolver()
	a := newTestEndpoint(t, "urn:a", res)
	b := newTestEndpoint(t, "urn:b", res)
	c := newTestEndpoint(t, "urn:c", res)

	a.Send("urn:c", 1, []byte("from-a"))
	b.Send("urn:c", 2, []byte("from-b"))

	// Selective receive by tag.
	m, err := recvMatchT(c, "", 2, 3*time.Second)
	if err != nil || string(m.Payload) != "from-b" {
		t.Fatalf("tag match: %v %v", m, err)
	}
	// Selective receive by source.
	m, err = recvMatchT(c, "urn:a", AnyTag, 3*time.Second)
	if err != nil || string(m.Payload) != "from-a" {
		t.Fatalf("src match: %v %v", m, err)
	}
	// Nothing left.
	if _, err := recvT(c, 50*time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("want timeout, got %v", err)
	}
}

func TestEndpointLargeMessageFragmentation(t *testing.T) {
	res := newTestResolver()
	a := newTestEndpoint(t, "urn:a", res)
	b := newTestEndpoint(t, "urn:b", res)
	payload := make([]byte, 1<<20) // 1 MiB: many fragments on TCP
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	if err := sendWaitT(a, "urn:b", 9, payload, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	m, err := recvT(b, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(m.Payload, payload) {
		t.Fatal("large payload corrupted")
	}
}

func TestEndpointSendWaitAck(t *testing.T) {
	res := newTestResolver()
	a := newTestEndpoint(t, "urn:a", res)
	newTestEndpoint(t, "urn:b", res)
	if err := sendWaitT(a, "urn:b", 0, []byte("x"), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if n := a.Pending(); n != 0 {
		t.Fatalf("outstanding after ack: %d", n)
	}
}

func TestEndpointBuffersForUnknownPeer(t *testing.T) {
	// The destination does not exist yet: the message must be buffered
	// and delivered once the peer appears — the paper's system
	// buffering for "temporarily unavailable tasks".
	res := newTestResolver()
	a := newTestEndpoint(t, "urn:a", res)
	if err := a.Send("urn:late", 3, []byte("early bird")); err != nil {
		t.Fatal(err)
	}
	if n := a.Pending(); n != 1 {
		t.Fatalf("pending = %d", n)
	}
	time.Sleep(100 * time.Millisecond)
	late := newTestEndpoint(t, "urn:late", res)
	m, err := recvT(late, 5*time.Second)
	if err != nil || string(m.Payload) != "early bird" {
		t.Fatalf("buffered delivery: %v %v", m, err)
	}
	// The buffer drains after the ack.
	waitFor(t, 3*time.Second, func() bool { return a.Pending() == 0 }, "buffer not drained")
}

func TestEndpointWithoutBufferingFailsFast(t *testing.T) {
	res := newTestResolver()
	a := newTestEndpoint(t, "urn:a", res, WithoutBuffering())
	err := a.Send("urn:nobody", 0, []byte("x"))
	if !errors.Is(err, ErrNoRoute) {
		t.Fatalf("want ErrNoRoute, got %v", err)
	}
	if a.Pending() != 0 {
		t.Fatal("message buffered despite WithoutBuffering")
	}
}

// gateResolver resolves every URN to routes, except that its first
// call waits for release and then finds none. Each call reports its
// number on calls.
type gateResolver struct {
	routes  []Route
	n       atomic.Int32
	calls   chan int32
	release chan struct{}
}

func (r *gateResolver) Resolve(string) ([]Route, error) {
	n := r.n.Add(1)
	r.calls <- n
	if n == 1 {
		<-r.release
		return nil, nil
	}
	return r.routes, nil
}

// TestRefusedSendSpendsNoSequence: a send an unbuffered endpoint refuses
// leaves no hole in its numbering, so the peer delivers the next message
// rather than holding it for one that never comes. That holds too when
// the next send began while the refused one was still resolving.
func TestRefusedSendSpendsNoSequence(t *testing.T) {
	res := newTestResolver()
	b := newTestEndpoint(t, "urn:b", res)
	bRoute := b.Routes()[0]
	expect := func(t *testing.T, want string) {
		t.Helper()
		m, err := recvT(b, 3*time.Second)
		if err != nil || string(m.Payload) != want {
			t.Fatalf("peer got %v, %v; want %q", m, err, want)
		}
	}

	t.Run("sequential", func(t *testing.T) {
		a := newTestEndpoint(t, "urn:a:seq", res, WithoutBuffering())
		res.set("urn:b")
		if err := a.Send("urn:b", 0, []byte("refused")); !errors.Is(err, ErrNoRoute) {
			t.Fatalf("want ErrNoRoute, got %v", err)
		}
		res.set("urn:b", bRoute)
		if err := a.Send("urn:b", 0, []byte("next")); err != nil {
			t.Fatal(err)
		}
		expect(t, "next")
	})

	t.Run("concurrent", func(t *testing.T) {
		gate := &gateResolver{routes: []Route{bRoute}, calls: make(chan int32, 4), release: make(chan struct{})}
		a := NewEndpoint("urn:a:conc", WithResolver(gate), WithoutBuffering())
		defer a.Close()
		first, second := make(chan error, 1), make(chan error, 1)
		go func() { first <- a.Send("urn:b", 0, []byte("refused")) }()
		<-gate.calls // the first send is resolving
		go func() { second <- a.Send("urn:b", 0, []byte("next")) }()
		// A second send that numbers itself while the first is in flight
		// resolves at once; give it the chance before the first fails.
		select {
		case <-gate.calls:
		case <-time.After(100 * time.Millisecond):
		}
		close(gate.release)
		if err := <-first; !errors.Is(err, ErrNoRoute) {
			t.Fatalf("want ErrNoRoute, got %v", err)
		}
		if err := <-second; err != nil {
			t.Fatal(err)
		}
		expect(t, "next")
	})
}

func TestEndpointRouteFailover(t *testing.T) {
	// Peer advertises two routes; the first is dead. Send must succeed
	// via the second — "the ability to switch routes/interfaces as
	// links failed without user applications intervention" (§6).
	res := newTestResolver()
	a := newTestEndpoint(t, "urn:a", res)
	b := NewEndpoint("urn:b", WithResolver(res))
	defer b.Close()
	good, err := b.Listen(ListenSpec{Transport: "tcp", Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	dead := Route{Transport: "tcp", Addr: "127.0.0.1:1", RateBps: 1e9} // preferred but dead
	res.set("urn:b", dead, good)

	if err := sendWaitT(a, "urn:b", 0, []byte("via backup"), 10*time.Second); err != nil {
		t.Fatal(err)
	}
	m, err := recvT(b, 3*time.Second)
	if err != nil || string(m.Payload) != "via backup" {
		t.Fatalf("failover: %v %v", m, err)
	}
}

func TestEndpointMidStreamFailover(t *testing.T) {
	// The peer's primary listener dies mid-stream; buffered retry must
	// redeliver over the surviving route with no loss and no
	// duplication.
	res := newTestResolver()
	a := newTestEndpoint(t, "urn:a", res)
	b := NewEndpoint("urn:b", WithResolver(res))
	defer b.Close()
	r1, err := b.Listen(ListenSpec{Transport: "tcp", Addr: "127.0.0.1:0", RateBps: 2e9}) // preferred
	if err != nil {
		t.Fatal(err)
	}
	r2, err := b.Listen(ListenSpec{Transport: "tcp", Addr: "127.0.0.1:0", RateBps: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	res.set("urn:b", r1, r2)

	const n = 50
	go func() {
		for i := 0; i < n; i++ {
			if err := a.Send("urn:b", 0, []byte{byte(i)}); err != nil {
				t.Errorf("send %d: %v", i, err)
			}
			if i == 20 {
				// Kill the preferred listener mid-stream.
				b.connMu.Lock()
				ln := b.listeners[0].ln
				b.connMu.Unlock()
				ln.Close()
			}
		}
	}()
	got := make([]bool, n)
	for i := 0; i < n; i++ {
		m, err := recvT(b, 10*time.Second)
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if got[m.Payload[0]] {
			t.Fatalf("duplicate delivery of %d", m.Payload[0])
		}
		got[m.Payload[0]] = true
	}
}

func TestEndpointDuplicateSuppression(t *testing.T) {
	res := newTestResolver()
	a := newTestEndpoint(t, "urn:a", res, WithRetryInterval(30*time.Millisecond))
	b := newTestEndpoint(t, "urn:b", res)
	if err := sendWaitT(a, "urn:b", 0, []byte("once"), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	// Force a manual re-transmit of an already-acked message by
	// simulating a stale retry: the receiver must re-ack but not
	// re-deliver.
	om := &outMsg{msg: Message{Src: "urn:a", Dst: "urn:b", Tag: 0, Seq: 1, Payload: []byte("once")}, acked: make(chan struct{})}
	if err := a.transmit(om); err != nil {
		t.Fatal(err)
	}
	if m, err := recvT(b, 3*time.Second); err != nil || string(m.Payload) != "once" {
		t.Fatalf("first delivery: %v %v", m, err)
	}
	if _, err := recvT(b, 200*time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("duplicate delivered: %v", err)
	}
	if dups := b.MetricsSnapshot().Counters["duplicates"]; dups == 0 {
		t.Fatal("duplicate not counted")
	}
}

// TestEndpointHandlerMode: a message with a handled tag reaches the
// handler, which reads its payload before returning (the payload is
// lent until then); one with another tag waits in the mailbox for Recv.
func TestEndpointHandlerMode(t *testing.T) {
	res := newTestResolver()
	got := make(chan string, 1)
	a := newTestEndpoint(t, "urn:a", res)
	h := newTestEndpoint(t, "urn:h", res, WithHandler(func(m *Message) {
		got <- fmt.Sprintf("%d:%s", m.Tag, m.Payload)
	}, 4))
	if err := a.Send("urn:h", 5, []byte("kept")); err != nil {
		t.Fatal(err)
	}
	if err := a.Send("urn:h", 4, []byte("handled")); err != nil {
		t.Fatal(err)
	}
	select {
	case s := <-got:
		if s != "4:handled" {
			t.Fatalf("handler saw %q, want 4:handled", s)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("handler never called")
	}
	m, err := recvT(h, 3*time.Second)
	if err != nil || m.Tag != 5 || string(m.Payload) != "kept" {
		t.Fatalf("mailbox message: %+v, %v", m, err)
	}
}

// TestMisdirectedFrameIsNotAccepted: a message for urn:x that reaches
// urn:y (a stale or wrong route) is neither delivered nor acknowledged
// by y, so the sender keeps it buffered and SendWait does not report it
// delivered.
func TestMisdirectedFrameIsNotAccepted(t *testing.T) {
	res := newTestResolver()
	a := newTestEndpoint(t, "urn:a", res)
	y := newTestEndpoint(t, "urn:y", res)
	yRoutes, _ := res.Resolve("urn:y")
	res.set("urn:x", yRoutes...)
	if err := sendWaitT(a, "urn:x", 3, []byte("for x"), 500*time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("SendWait to urn:x over urn:y's route: %v, want ErrTimeout", err)
	}
	if m, err := recvT(y, 100*time.Millisecond); err == nil {
		t.Fatalf("urn:y delivered %+v", m)
	}
	if n := y.MetricsSnapshot().Counters["misdirected"]; n == 0 {
		t.Fatal("misdirected frames not counted")
	}
}

// TestMisdirectedFrameIsNotAckedAsDuplicate: receive sequencing is kept
// per source, so a misdirected frame whose number is below what y
// expects next from that source looked like a duplicate of y's own and
// was re-acked, and the sender forgot a message nobody had. It must not
// be acked at all.
func TestMisdirectedFrameIsNotAckedAsDuplicate(t *testing.T) {
	res := newTestResolver()
	a := newTestEndpoint(t, "urn:a", res)
	y := newTestEndpoint(t, "urn:y", res)
	for i := 0; i < 3; i++ {
		if err := sendWaitT(a, "urn:y", 1, []byte{byte(i)}, 3*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	yRoutes, _ := res.Resolve("urn:y")
	res.set("urn:x", yRoutes...)
	if err := sendWaitT(a, "urn:x", 1, []byte("for x"), 500*time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("SendWait to urn:x (seq 1, below urn:y's 4): %v, want ErrTimeout", err)
	}
	if n := y.MetricsSnapshot().Counters["duplicates"]; n != 0 {
		t.Fatalf("urn:y counted %d duplicates", n)
	}
}

// inboxConn is a route whose peer takes every frame, answers none of
// its own accord, and delivers whatever the test puts in in.
type inboxConn struct {
	in   chan []byte
	once sync.Once
	done chan struct{}
}

func newInboxConn() *inboxConn {
	return &inboxConn{in: make(chan []byte, 4), done: make(chan struct{})}
}

func (c *inboxConn) Send([]byte) error { return nil }

func (c *inboxConn) Recv() ([]byte, error) {
	select {
	case f := <-c.in:
		return f, nil
	case <-c.done:
		return nil, ErrClosed
	}
}

func (c *inboxConn) Close() error {
	c.once.Do(func() { close(c.done) })
	return nil
}

func (c *inboxConn) MTU() int           { return 1400 }
func (c *inboxConn) RemoteAddr() string { return "inboxConn" }

// TestAckForAnotherSourceRetiresNothing: an ack names the source of the
// message it acknowledges. One that names another source, with the dst
// and seq of a message this endpoint has outstanding, must leave that
// message unacked, whether it comes as an ack frame or in the trailer
// of a message frame. Each case ends with a misdirected message frame,
// counted once everything before it (its own trailer too) is handled.
func TestAckForAnotherSourceRetiresNothing(t *testing.T) {
	var trailer [carriedAckSize]byte
	binary.BigEndian.PutUint64(trailer[:], 1)
	for name, frames := range map[string][][]byte{
		"ack frame": {
			ackFrame("urn:other", "urn:b", 1),
			encodeMsgFrame(&msgFrame{Src: "urn:b", Dst: "urn:other", Seq: 7, FragCount: 1}, nil),
		},
		"trailer": {
			encodeMsgFrame(&msgFrame{Src: "urn:b", Dst: "urn:other", Seq: 7, FragCount: 1}, trailer[:]),
		},
	} {
		t.Run(name, func(t *testing.T) {
			route := Route{Transport: "attached", Addr: "b"}
			res := newTestResolver()
			res.set("urn:b", route)
			a := NewEndpoint("urn:a", WithResolver(res), WithRetryInterval(time.Hour))
			defer a.Close()
			conn := newInboxConn()
			a.AttachConn(route.String(), conn)
			if err := a.Send("urn:b", 1, []byte("x")); err != nil {
				t.Fatal(err)
			}
			for _, f := range frames {
				conn.in <- f
			}
			waitFor(t, 5*time.Second, func() bool { return a.MetricsSnapshot().Counters["misdirected"] == 1 },
				"the message frame was not handled")
			if n := a.Pending(); n != 1 {
				t.Fatalf("%d messages outstanding after an ack naming urn:other, want 1", n)
			}
			conn.in <- ackFrame("urn:a", "urn:b", 1)
			waitFor(t, 5*time.Second, func() bool { return a.Pending() == 0 }, "urn:a's own ack did not retire its message")
		})
	}
}

func TestEndpointBufferLimit(t *testing.T) {
	res := newTestResolver()
	a := newTestEndpoint(t, "urn:a", res, WithBufferLimit(3))
	for i := 0; i < 3; i++ {
		if err := a.Send("urn:void", 0, []byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Send("urn:void", 0, []byte{1}); !errors.Is(err, ErrBufferFull) {
		t.Fatalf("want ErrBufferFull, got %v", err)
	}
}

func TestEndpointCloseSemantics(t *testing.T) {
	res := newTestResolver()
	a := newTestEndpoint(t, "urn:a", res)
	done := make(chan error, 1)
	go func() {
		_, err := recvT(a, 10*time.Second)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	a.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("want ErrClosed, got %v", err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("Recv not unblocked by Close")
	}
	if err := a.Send("urn:x", 0, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("send after close: %v", err)
	}
	a.Close() // idempotent
}

func TestEndpointOverRUDPTransport(t *testing.T) {
	res := newTestResolver()
	a := NewEndpoint("urn:a", WithResolver(res))
	defer a.Close()
	b := NewEndpoint("urn:b", WithResolver(res))
	defer b.Close()
	ra, err := a.Listen(ListenSpec{Transport: "rudp", Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.Listen(ListenSpec{Transport: "rudp", Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	res.set("urn:a", ra)
	res.set("urn:b", rb)

	payload := make([]byte, 100_000) // forces RUDP fragmentation
	for i := range payload {
		payload[i] = byte(i)
	}
	if err := sendWaitT(a, "urn:b", 1, payload, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	m, err := recvT(b, 5*time.Second)
	if err != nil || !bytes.Equal(m.Payload, payload) {
		t.Fatalf("rudp transport: len=%d err=%v", len(m.Payload), err)
	}
}

func TestEndpointSequenceSnapshotRestore(t *testing.T) {
	res := newTestResolver()
	a := newTestEndpoint(t, "urn:a", res)
	b1 := newTestEndpoint(t, "urn:b", res)
	for i := 0; i < 5; i++ {
		if err := sendWaitT(a, "urn:b", 0, []byte{byte(i)}, 5*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		if _, err := recvT(b1, 3*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	// "Migrate" b: capture sequences, close, restart elsewhere.
	snap := b1.SnapshotSequences()
	if snap.Expected["urn:a"] != 6 {
		t.Fatalf("snapshot expected = %d", snap.Expected["urn:a"])
	}
	b1.Close()
	b2 := NewEndpoint("urn:b", WithResolver(res))
	defer b2.Close()
	b2.RestoreSequences(snap)
	route, err := b2.Listen(ListenSpec{Transport: "tcp", Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	res.set("urn:b", route)

	// Continue the stream: next message is seq 6 and must deliver.
	if err := sendWaitT(a, "urn:b", 0, []byte{99}, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	m, err := recvT(b2, 5*time.Second)
	if err != nil || m.Payload[0] != 99 || m.Seq != 6 {
		t.Fatalf("post-migration: %+v %v", m, err)
	}
}

func TestEndpointStats(t *testing.T) {
	res := newTestResolver()
	a := newTestEndpoint(t, "urn:a", res)
	b := newTestEndpoint(t, "urn:b", res)
	sendWaitT(a, "urn:b", 0, []byte("x"), 5*time.Second)
	recvT(b, time.Second)
	sent := a.MetricsSnapshot().Counters["sent"]
	recv := b.MetricsSnapshot().Counters["received"]
	if sent != 1 || recv != 1 {
		t.Fatalf("stats: sent=%d recv=%d", sent, recv)
	}
}

func BenchmarkEndpointPingPongTCP(b *testing.B) {
	res := newTestResolver()
	a := NewEndpoint("urn:a", WithResolver(res))
	defer a.Close()
	bb := NewEndpoint("urn:b", WithResolver(res))
	defer bb.Close()
	ra, _ := a.Listen(ListenSpec{Transport: "tcp", Addr: "127.0.0.1:0"})
	rb, _ := bb.Listen(ListenSpec{Transport: "tcp", Addr: "127.0.0.1:0"})
	res.set("urn:a", ra)
	res.set("urn:b", rb)
	//lint:allow goroutinelife echo responder exits when recvT errors after the deferred Close
	go func() {
		for {
			m, err := recvT(bb, 10*time.Second)
			if err != nil {
				return
			}
			bb.Send("urn:a", m.Tag, m.Payload)
		}
	}()
	payload := []byte("ping")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.Send("urn:b", 0, payload); err != nil {
			b.Fatal(err)
		}
		if _, err := recvT(a, 10*time.Second); err != nil {
			b.Fatal(err)
		}
	}
}

func TestEndpointConcurrentSenders(t *testing.T) {
	res := newTestResolver()
	sink := newTestEndpoint(t, "urn:sink", res)
	const nSenders, nMsgs = 4, 25
	for s := 0; s < nSenders; s++ {
		src := newTestEndpoint(t, fmt.Sprintf("urn:s%d", s), res)
		go func(e *Endpoint, id int) {
			for i := 0; i < nMsgs; i++ {
				e.Send("urn:sink", uint32(id), []byte{byte(i)})
			}
		}(src, s)
	}
	perSender := make(map[uint32]int)
	for i := 0; i < nSenders*nMsgs; i++ {
		m, err := recvT(sink, 10*time.Second)
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		// Per-sender FIFO: payload must equal that sender's count.
		if int(m.Payload[0]) != perSender[m.Tag] {
			t.Fatalf("sender %d order: want %d got %d", m.Tag, perSender[m.Tag], m.Payload[0])
		}
		perSender[m.Tag]++
	}
}
