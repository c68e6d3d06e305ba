package comm

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"snipe/internal/netsim"
)

// withStripeStall replaces the stall ceiling an endpoint derives from
// its retry interval.
func withStripeStall(d time.Duration) EndpointOption {
	return func(e *Endpoint) { e.stripeStall = d }
}

// stripePair joins two endpoints over two independent netsim links
// (Ethernet100 stream + ATM155 stream by default) so that urnB is
// dual-homed from urnA's point of view, and vice versa. It returns the
// links for failure injection and the mutable resolver for route
// withdrawal.
func stripePair(t *testing.T, opts ...EndpointOption) (a, b *Endpoint, links [2]*netsim.Link, res *testResolver) {
	t.Helper()
	const urnA, urnB = "urn:stripe:a", "urn:stripe:b"
	routes := [2][2]Route{
		{{Transport: "attached", Addr: "a-eth", NetName: "eth", RateBps: 100e6, LatencyUs: 120},
			{Transport: "attached", Addr: "b-eth", NetName: "eth", RateBps: 100e6, LatencyUs: 120}},
		{{Transport: "attached", Addr: "a-atm", NetName: "atm", RateBps: 140e6, LatencyUs: 90},
			{Transport: "attached", Addr: "b-atm", NetName: "atm", RateBps: 140e6, LatencyUs: 90}},
	}
	res = newTestResolver()
	res.set(urnA, routes[0][0], routes[1][0])
	res.set(urnB, routes[0][1], routes[1][1])
	base := []EndpointOption{WithResolver(res), WithBufferLimit(1 << 14),
		WithRetryInterval(150 * time.Millisecond), withStripeStall(700 * time.Millisecond)}
	a = NewEndpoint(urnA, append(base, opts...)...)
	b = NewEndpoint(urnB, append(base, opts...)...)
	t.Cleanup(a.Close)
	t.Cleanup(b.Close)

	media := [2]netsim.Profile{netsim.Ethernet100, netsim.ATM155}
	for i := range media {
		ca, cb, link := netsim.StreamPipe(media[i], uint64(17+i))
		links[i] = link
		t.Cleanup(link.Close)
		a.AttachConn(routes[i][1].String(), NewStreamFrameConn(ca))
		b.AttachConn(routes[i][0].String(), NewStreamFrameConn(cb))
	}
	return a, b, links, res
}

// stripeRoutes is a stripe's route list for keys, with no conns.
func stripeRoutes(keys ...string) []stripeRoute {
	routes := make([]stripeRoute, len(keys))
	for i, key := range keys {
		routes[i].key = key
	}
	return routes
}

// newTestStripe is the stripe of an n-byte message cut at mtu over
// conn-less routes with the given keys, for driving its state machine by
// hand.
func newTestStripe(n, mtu int, keys ...string) *stripeState {
	return newStripe(&Message{Src: "s", Dst: "d", Seq: 1, Payload: patternPayload(1, n)}, mtu, stripeRoutes(keys...))
}

// patternPayload builds a payload whose content encodes its identity,
// so reassembly errors (lost, duplicated or misordered fragments)
// corrupt a checkable pattern.
func patternPayload(id byte, n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = id ^ byte(i*7+i>>8)
	}
	return p
}

func TestStripeAcrossTwoRoutes(t *testing.T) {
	a, b, _, _ := stripePair(t)
	payload := patternPayload(3, 2<<20)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := a.SendWait(ctx, "urn:stripe:b", 9, payload); err != nil {
		t.Fatalf("striped send: %v", err)
	}
	m, err := recvT(b, 10*time.Second)
	if err != nil {
		t.Fatalf("recv: %v", err)
	}
	if !bytes.Equal(m.Payload, payload) {
		t.Fatalf("payload corrupted across stripe: got %d bytes", len(m.Payload))
	}
	snap := a.MetricsSnapshot()
	if snap.Counters["striped"] == 0 {
		t.Fatalf("message above threshold was not striped: %+v", snap.Counters)
	}
	if snap.Counters["frag_acks"] == 0 {
		t.Fatalf("no per-fragment acknowledgements observed")
	}
	// Both routes must have carried acknowledged fragments: the scorer
	// saw samples on each.
	carried := 0
	for _, rs := range a.RouteScores() {
		if rs.Samples > 0 {
			carried++
		}
	}
	if carried < 2 {
		t.Fatalf("expected fragments acknowledged on both routes, scorer saw %d: %+v",
			carried, a.RouteScores())
	}
}

// TestStripeOneLiveRouteFallsBackToSingleRoute: a payload over the
// stripe threshold to a peer with fewer than two usable routes takes the
// single-route failover path.
func TestStripeOneLiveRouteFallsBackToSingleRoute(t *testing.T) {
	a, b, _, res := stripePair(t)
	res.set("urn:stripe:b", Route{Transport: "attached", Addr: "b-atm", NetName: "atm", RateBps: 140e6, LatencyUs: 90})
	payload := patternPayload(5, 1<<20)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := a.SendWait(ctx, "urn:stripe:b", 2, payload); err != nil {
		t.Fatalf("send: %v", err)
	}
	m, err := recvT(b, 10*time.Second)
	if err != nil || !bytes.Equal(m.Payload, payload) {
		t.Fatalf("recv: %v", err)
	}
	if got := a.MetricsSnapshot().Counters["striped"]; got != 0 {
		t.Fatalf("one advertised route but %d messages striped", got)
	}
}

func TestStripeSmallMessageNotStriped(t *testing.T) {
	a, b, _, _ := stripePair(t)
	payload := patternPayload(6, 4<<10) // well below the threshold
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := a.SendWait(ctx, "urn:stripe:b", 2, payload); err != nil {
		t.Fatalf("send: %v", err)
	}
	if m, err := recvT(b, 10*time.Second); err != nil || !bytes.Equal(m.Payload, payload) {
		t.Fatalf("recv: %v", err)
	}
	if got := a.MetricsSnapshot().Counters["striped"]; got != 0 {
		t.Fatalf("small message was striped (%d)", got)
	}
}

// TestStripeRouteChurnExactlyOnce is the route-churn failover test: a
// route is taken down and withdrawn mid-stripe, and every message must
// still arrive exactly once, intact, with the sender's buffers fully
// drained afterwards.
func TestStripeRouteChurnExactlyOnce(t *testing.T) {
	a, b, links, res := stripePair(t)
	const n = 6
	const size = 4 << 20
	done := make(chan error, 1)
	go func() {
		seen := make(map[uint64]bool)
		for i := 0; i < n; i++ {
			m, err := recvT(b, 60*time.Second)
			if err != nil {
				done <- fmt.Errorf("recv %d: %w", i, err)
				return
			}
			if seen[m.Seq] {
				done <- fmt.Errorf("duplicate delivery of seq %d", m.Seq)
				return
			}
			seen[m.Seq] = true
			want := patternPayload(byte(m.Seq), size)
			if !bytes.Equal(m.Payload, want) {
				done <- fmt.Errorf("seq %d corrupted (%d bytes)", m.Seq, len(m.Payload))
				return
			}
		}
		// Exactly once: nothing further may arrive.
		if m, err := recvT(b, 300*time.Millisecond); err == nil {
			done <- fmt.Errorf("extra message seq %d after all %d delivered", m.Seq, n)
			return
		}
		done <- nil
	}()

	// Cut the Ethernet link (and withdraw its routes) while the
	// stripes are in flight.
	cut := make(chan struct{})
	go func() {
		time.Sleep(60 * time.Millisecond)
		links[0].SetDown(true)
		res.set("urn:stripe:a", Route{Transport: "attached", Addr: "a-atm", NetName: "atm", RateBps: 140e6, LatencyUs: 90})
		res.set("urn:stripe:b", Route{Transport: "attached", Addr: "b-atm", NetName: "atm", RateBps: 140e6, LatencyUs: 90})
		close(cut)
	}()

	for i := 1; i <= n; i++ {
		if err := a.Send("urn:stripe:b", 4, patternPayload(byte(i), size)); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	<-cut
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// Drained: every message acknowledged, no stripe still open.
	deadline := time.Now().Add(30 * time.Second)
	for a.Pending() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("sender buffers not drained: %d pending", a.Pending())
		}
		time.Sleep(20 * time.Millisecond)
	}
	snap := a.MetricsSnapshot()
	if got := snap.Gauges["stripes_active"]; got != 0 {
		t.Fatalf("stripes still open after drain: %v", got)
	}
}

// TestStripeRouteChurnUnderLoss repeats the churn scenario with the
// surviving route running RUDP over a lossy packet link, so fragment
// requeue rides on top of ARQ loss recovery.
func TestStripeRouteChurnUnderLoss(t *testing.T) {
	const urnA, urnB = "urn:stripe:a", "urn:stripe:b"
	routeAEth := Route{Transport: "attached", Addr: "a-eth", NetName: "eth", RateBps: 100e6, LatencyUs: 120}
	routeBEth := Route{Transport: "attached", Addr: "b-eth", NetName: "eth", RateBps: 100e6, LatencyUs: 120}
	routeAAtm := Route{Transport: "attached", Addr: "a-atm", NetName: "atm", RateBps: 140e6, LatencyUs: 90}
	routeBAtm := Route{Transport: "attached", Addr: "b-atm", NetName: "atm", RateBps: 140e6, LatencyUs: 90}
	res := newTestResolver()
	res.set(urnA, routeAEth, routeAAtm)
	res.set(urnB, routeBEth, routeBAtm)
	opts := []EndpointOption{WithResolver(res), WithBufferLimit(1 << 14),
		WithRetryInterval(150 * time.Millisecond), withStripeStall(700 * time.Millisecond)}
	a := NewEndpoint(urnA, opts...)
	b := NewEndpoint(urnB, opts...)
	defer a.Close()
	defer b.Close()

	ca, cb, ethLink := netsim.StreamPipe(netsim.Ethernet100, 23)
	defer ethLink.Close()
	a.AttachConn(routeBEth.String(), NewStreamFrameConn(ca))
	b.AttachConn(routeAEth.String(), NewStreamFrameConn(cb))
	pa, pb, atmLink := netsim.PacketPipe(netsim.ATM155.WithLoss(0.02), 29)
	defer atmLink.Close()
	a.AttachConn(routeBAtm.String(), NewRUDPConn(pa))
	b.AttachConn(routeAAtm.String(), NewRUDPConn(pb))

	payload := patternPayload(11, 4<<20)
	errc := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		errc <- a.SendWait(ctx, urnB, 8, payload)
	}()
	time.Sleep(30 * time.Millisecond)
	ethLink.SetDown(true) // mid-stripe: fragments must requeue onto lossy ATM

	m, err := recvT(b, 60*time.Second)
	if err != nil {
		t.Fatalf("recv after churn under loss: %v", err)
	}
	if !bytes.Equal(m.Payload, payload) {
		t.Fatalf("payload corrupted after churn under loss")
	}
	if err := <-errc; err != nil {
		t.Fatalf("send: %v", err)
	}
	if m, err := recvT(b, 300*time.Millisecond); err == nil {
		t.Fatalf("duplicate delivery seq %d", m.Seq)
	}
}

func TestOrderRoutesAdaptive(t *testing.T) {
	e := NewEndpoint("urn:scored")
	defer e.Close()
	fast := Route{Transport: "tcp", Addr: "fast:1", RateBps: 10e6}
	slow := Route{Transport: "tcp", Addr: "slow:1", RateBps: 100e6}
	// Advertised profiles say "slow:1" is the 100 Mbit route; observed
	// behaviour says otherwise.
	for i := 0; i < 8; i++ {
		e.observeRouteAck(fast.String(), 1<<20, 10*time.Millisecond)  // ~100 MB/s
		e.observeRouteAck(slow.String(), 1<<20, 500*time.Millisecond) // ~2 MB/s
	}
	got := e.orderRoutesAdaptive(nil, []Route{slow, fast})
	if got[0] != fast {
		t.Fatalf("adaptive order ignored observed goodput: %+v", got)
	}
	// A burst of errors must demote a route below a clean one.
	for i := 0; i < 20; i++ {
		e.observeRouteError(fast.String())
	}
	got = e.orderRoutesAdaptive(nil, []Route{fast, slow})
	if got[0] != slow {
		t.Fatalf("adaptive order ignored error rate: %+v", got)
	}
	// With no observations the advertised profile decides, exactly as
	// the static policy would.
	e2 := NewEndpoint("urn:unscored")
	defer e2.Close()
	got = e2.orderRoutesAdaptive(nil, []Route{fast, slow})
	if got[0] != slow {
		t.Fatalf("prior should follow advertised rate: %+v", got)
	}
	scores := e.RouteScores()
	if len(scores) != 2 {
		t.Fatalf("RouteScores: want 2 entries, got %+v", scores)
	}
	for _, rs := range scores {
		if rs.Samples == 0 {
			t.Fatalf("route %s has no samples folded in", rs.Route)
		}
	}
}

// TestStripePayloadPoolSurvivesRetryRace hammers send/ack/retry with
// pooled payloads to let the race detector catch any recycle-too-early
// defect.
func TestStripePayloadPoolSurvivesRetryRace(t *testing.T) {
	a, b, _, _ := stripePair(t, WithRetryInterval(10*time.Millisecond))
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for i := 0; i < 40; i++ {
		payload := patternPayload(byte(i), 300<<10)
		if err := a.Send("urn:stripe:b", 1, payload); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	for i := 0; i < 40; i++ {
		m, err := b.Recv(ctx)
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		want := patternPayload(byte(m.Seq-1), 300<<10)
		if !bytes.Equal(m.Payload, want) {
			t.Fatalf("message %d corrupted", i)
		}
	}
}

// TestStripeCancelReleasesWorkers is the lost-wakeup regression test:
// workers blocked in next() with nothing to pull (queue drained by
// another route, stall window far away) must be released promptly when
// cancel() races in — not strand until the stall deadline.
func TestStripeCancelReleasesWorkers(t *testing.T) {
	s := newTestStripe(400, 100, "r1", "r2")
	// One route claims every fragment so the others find the queue
	// empty and wait.
	for range s.slots {
		if _, ok := s.next(0, len(s.slots), time.Hour); !ok {
			t.Fatal("initial claim failed")
		}
	}
	const nWaiters = 4
	done := make(chan time.Duration, nWaiters)
	for i := 0; i < nWaiters; i++ {
		go func() {
			start := time.Now()
			if _, ok := s.next(1, 4, time.Hour); ok {
				t.Error("blocked worker got a fragment after cancel")
			}
			done <- time.Since(start)
		}()
	}
	time.Sleep(20 * time.Millisecond) // let the waiters reach the timed wait
	s.cancel()
	for i := 0; i < nWaiters; i++ {
		select {
		case d := <-done:
			if d > 2*time.Second {
				t.Fatalf("worker released only after %v; cancel wakeup lost", d)
			}
		case <-time.After(3 * time.Second):
			t.Fatal("worker never released after cancel: lost wakeup")
		}
	}
}

// TestStripeStallFailsSilentRoute: a route with fragments sent but no
// acknowledgements for a full stall window is failed and its fragments
// requeued; the stalled worker is released rather than spinning.
func TestStripeStallFailsSilentRoute(t *testing.T) {
	s := newTestStripe(400, 100, "r1", "r2")
	idx, ok := s.next(0, 1, 60*time.Millisecond)
	if !ok {
		t.Fatal("no fragment claimed")
	}
	s.sent(0, idx)
	// Window full, no acks arriving: the next pull must wait out the
	// stall window, fail "r1" and exit.
	start := time.Now()
	if _, ok := s.next(0, 1, 60*time.Millisecond); ok {
		t.Fatal("stalled route still pulling fragments")
	}
	if e := time.Since(start); e > 2*time.Second {
		t.Fatalf("stall verdict took %v; want ~the 60ms window", e)
	}
	s.mu.Lock()
	requeues, failed := s.requeues, s.routes[0].failed
	s.mu.Unlock()
	if !failed || requeues == 0 {
		t.Fatalf("stall did not fail the silent route: failed=%v requeues=%d", failed, requeues)
	}
}

// TestStripeStallAdaptive exercises stripeStallFor: no history keeps
// the configured ceiling; measured RTTs scale it to 8× the slowest
// route, clamped to [stripeStallMin, ceiling].
func TestStripeStallAdaptive(t *testing.T) {
	e := NewEndpoint("urn:stall", withStripeStall(5*time.Second))
	defer e.Close()
	keys := []string{"k-eth", "k-atm"}
	routes := stripeRoutes(keys...)
	if got := e.stripeStallFor(routes); got != 5*time.Second {
		t.Fatalf("no history: stall = %v, want the 5s ceiling", got)
	}
	// One sample short of the threshold still keeps the ceiling.
	for i := 0; i < scoreMinSamples-1; i++ {
		e.observeRouteAck(keys[0], 1<<10, 10*time.Millisecond)
	}
	if got := e.stripeStallFor(routes); got != 5*time.Second {
		t.Fatalf("below sample threshold: stall = %v, want the 5s ceiling", got)
	}
	// Enough history: 8× the slowest participating route's RTT.
	e.observeRouteAck(keys[0], 1<<10, 10*time.Millisecond)
	for i := 0; i < scoreMinSamples; i++ {
		e.observeRouteAck(keys[1], 1<<10, 2*time.Millisecond)
	}
	got := e.stripeStallFor(routes)
	if got < 75*time.Millisecond || got > 85*time.Millisecond {
		t.Fatalf("adaptive stall = %v, want ~80ms (8 × 10ms)", got)
	}
	// Microsecond-RTT media clamp to the floor, not below it.
	for i := 0; i < scoreMinSamples; i++ {
		e.observeRouteAck("k-inproc", 1<<10, 100*time.Microsecond)
	}
	if got := e.stripeStallFor(stripeRoutes("k-inproc")); got != stripeStallMin {
		t.Fatalf("floor clamp: stall = %v, want %v", got, stripeStallMin)
	}
	// Very slow media clamp to the configured ceiling.
	e2 := NewEndpoint("urn:stall-slow", withStripeStall(200*time.Millisecond))
	defer e2.Close()
	for i := 0; i < scoreMinSamples; i++ {
		e2.observeRouteAck("k-slow", 1<<10, time.Second)
	}
	if got := e2.stripeStallFor(stripeRoutes("k-slow")); got != 200*time.Millisecond {
		t.Fatalf("ceiling clamp: stall = %v, want 200ms", got)
	}
}

// sinkConn is a route into a peer that takes every frame and answers
// none. Recv blocks until Close.
type sinkConn struct {
	mtu    int
	frags  atomic.Int32 // message frames taken
	onFrag func()       // called on each message frame, if set
	once   sync.Once
	done   chan struct{}
}

func (c *sinkConn) Send(frame []byte) error {
	if len(frame) > 0 && frame[0] == frameMsg {
		c.frags.Add(1)
		if c.onFrag != nil {
			c.onFrag()
		}
	}
	return nil
}

func (c *sinkConn) Recv() ([]byte, error) {
	<-c.done
	return nil, ErrClosed
}

func (c *sinkConn) Close() error {
	c.once.Do(func() { close(c.done) })
	return nil
}

func (c *sinkConn) MTU() int           { return c.mtu }
func (c *sinkConn) RemoteAddr() string { return "sinkConn" }

// holeDst is the peer of sinkStripe's endpoint.
const holeDst = "urn:hole:b"

// sinkStripe is an endpoint whose peer holeDst is reachable over two
// sinkConn routes of the given MTU. Retries and the stall window are
// hours away, so only an acknowledgement, a cancel or Close moves a
// stripe it starts.
func sinkStripe(t *testing.T, mtu int) (*Endpoint, [2]*sinkConn) {
	t.Helper()
	routes := []Route{{Transport: "attached", Addr: "hole-1"}, {Transport: "attached", Addr: "hole-2"}}
	res := newTestResolver()
	res.set(holeDst, routes...)
	e := NewEndpoint("urn:hole:a", WithResolver(res), WithRetryInterval(time.Hour))
	t.Cleanup(e.Close)
	var conns [2]*sinkConn
	for i, r := range routes {
		conns[i] = &sinkConn{mtu: mtu, done: make(chan struct{})}
		e.AttachConn(r.String(), conns[i])
	}
	return e, conns
}

// transmitStripedT stripes om from e to holeDst, failing if it does not
// stripe.
func transmitStripedT(t *testing.T, e *Endpoint, om *outMsg) {
	t.Helper()
	routes, err := e.resolveRoutes(holeDst)
	if err != nil {
		t.Fatal(err)
	}
	handled, err := e.transmitStriped(om, e.sharedLocalRoutes(), routes)
	if !handled || err != nil {
		t.Fatalf("transmitStriped: handled=%v err=%v", handled, err)
	}
}

// holeMsg is a 256 KiB message to holeDst that is in no send buffer.
func holeMsg(e *Endpoint) *outMsg {
	return &outMsg{msg: Message{Src: e.URN(), Dst: holeDst, Tag: 1, Seq: 1, Payload: patternPayload(4, stripeThreshold)},
		acked: make(chan struct{})}
}

// TestStripeCloseReleasesParkedWorkers: Close cancels a stripe whose
// workers are parked on full windows with the stall verdict an hour
// away, and the transmission returns at once.
func TestStripeCloseReleasesParkedWorkers(t *testing.T) {
	e, conns := sinkStripe(t, 1400)
	sent := make(chan error, 1)
	go func() { sent <- e.Send(holeDst, 1, patternPayload(5, stripeThreshold)) }()
	waitFor(t, 5*time.Second, func() bool {
		return conns[0].frags.Load()+conns[1].frags.Load() == 2*stripeWindow
	}, "both windows full")
	time.Sleep(20 * time.Millisecond) // let both workers park
	start := time.Now()
	e.Close()
	select {
	case <-sent:
		if d := time.Since(start); d > time.Second {
			t.Fatalf("transmission released %v after Close", d)
		}
	case <-time.After(time.Second):
		t.Fatal("transmission still parked 1 s after Close")
	}
}

// TestStripeAckBeforeRegistrationMoots: a message acknowledged before
// its stripe registers (so handleAck found nothing to cancel) sends no
// fragment.
func TestStripeAckBeforeRegistrationMoots(t *testing.T) {
	e, conns := sinkStripe(t, 64<<10)
	om := holeMsg(e)
	close(om.acked)
	transmitStripedT(t, e, om)
	if n := conns[0].frags.Load() + conns[1].frags.Load(); n != 0 {
		t.Fatalf("%d fragments sent for an acknowledged message", n)
	}
	if n := e.MetricsSnapshot().Gauges["stripes_active"]; n != 0 {
		t.Fatalf("%v stripes still registered", n)
	}
}

// TestStripeLateAcksChangeNothing: once a stripe has deregistered,
// per-fragment acks and the message's ack reach neither its record nor
// the frag_acks count.
func TestStripeLateAcksChangeNothing(t *testing.T) {
	e, conns := sinkStripe(t, 64<<10)
	om := holeMsg(e)
	key := reasmKey{om.msg.Src, om.msg.Dst, om.msg.Seq}
	var s *stripeState
	for _, c := range conns {
		c.onFrag = func() {
			e.stripeMu.Lock()
			s = e.stripes[key]
			e.stripeMu.Unlock()
		}
	}
	transmitStripedT(t, e, om)
	if s == nil {
		t.Fatal("no fragment sent")
	}
	s.mu.Lock()
	before := append([]fragSlot(nil), s.slots...)
	lastAck := s.lastAck
	s.mu.Unlock()
	for i := range before {
		e.handleFragAck(key.src, key.dst, key.seq, uint32(i))
	}
	e.handleAck(key.src, key.dst, key.seq)
	if n := e.mFragAcks.Value(); n != 0 {
		t.Fatalf("frag_acks = %d after acks for a deregistered stripe", n)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range before {
		if s.slots[i] != before[i] {
			t.Fatalf("fragment %d changed: %+v → %+v", i, before[i], s.slots[i])
		}
	}
	if s.canceled || !s.lastAck.Equal(lastAck) {
		t.Fatalf("record changed: canceled=%v, stall clock moved %v", s.canceled, s.lastAck.Sub(lastAck))
	}
}
