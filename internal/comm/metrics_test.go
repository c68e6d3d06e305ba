package comm

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// countingResolver counts Resolve calls and records their times.
type countingResolver struct {
	mu     sync.Mutex
	m      map[string][]Route
	calls  int
	atTime []time.Time
}

func newCountingResolver() *countingResolver {
	return &countingResolver{m: make(map[string][]Route)}
}

func (r *countingResolver) Resolve(urn string) ([]Route, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.calls++
	r.atTime = append(r.atTime, time.Now())
	return append([]Route(nil), r.m[urn]...), nil
}

func (r *countingResolver) set(urn string, routes ...Route) {
	r.mu.Lock()
	r.m[urn] = routes
	r.mu.Unlock()
}

func (r *countingResolver) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.calls
}

func (r *countingResolver) times() []time.Time {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]time.Time(nil), r.atTime...)
}

// failingConn is a FrameConn whose sends always fail; Recv blocks
// until Close.
type failingConn struct {
	once sync.Once
	done chan struct{}
}

func newFailingConn() *failingConn { return &failingConn{done: make(chan struct{})} }

func (c *failingConn) Send([]byte) error { return errors.New("failingConn: send refused") }

func (c *failingConn) Recv() ([]byte, error) {
	<-c.done
	return nil, ErrClosed
}

func (c *failingConn) Close() error {
	c.once.Do(func() { close(c.done) })
	return nil
}

func (c *failingConn) MTU() int { return 1400 }

func (c *failingConn) RemoteAddr() string { return "failingConn" }

// withRouteCacheTTL replaces the endpoint's route-cache lifetime; zero
// makes every transmission ask the resolver.
func withRouteCacheTTL(d time.Duration) EndpointOption {
	return func(e *Endpoint) { e.routeCacheTTL = d }
}

// TestRetryBackoffGrowth checks the schedule itself: doubling per
// attempt from the base interval, positive-only jitter, capped at
// maxRetryBackoff.
func TestRetryBackoffGrowth(t *testing.T) {
	e := NewEndpoint("urn:bo", WithRetryInterval(40*time.Millisecond))
	defer e.Close()
	for attempts, want := range map[int]time.Duration{
		1:  40 * time.Millisecond,
		2:  80 * time.Millisecond,
		3:  160 * time.Millisecond,
		8:  maxRetryBackoff, // capped (would be 5.12s)
		13: maxRetryBackoff,
	} {
		for i := 0; i < 20; i++ {
			got := e.retryBackoff(attempts)
			if got < want {
				t.Fatalf("attempts=%d: backoff %v below lower bound %v", attempts, got, want)
			}
			if max := want + want/4; got > max {
				t.Fatalf("attempts=%d: backoff %v above jitter ceiling %v", attempts, got, max)
			}
		}
	}
}

// TestRetryBackoffSchedule asserts a message with attempts=k is not
// retried before its backoff window: the gap between transmission k
// and k+1 is at least interval<<(k-1). Resolve is called on every
// transmission (cache disabled), so the resolver's call times are the
// attempt times.
func TestRetryBackoffSchedule(t *testing.T) {
	const interval = 40 * time.Millisecond
	res := newCountingResolver() // no routes for the peer: every attempt fails
	e := NewEndpoint("urn:bo-sched", WithResolver(res),
		WithRetryInterval(interval), withRouteCacheTTL(0))
	defer e.Close()

	if err := e.Send("urn:unreachable", 1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for res.count() < 4 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	at := res.times()
	if len(at) < 4 {
		t.Fatalf("only %d attempts in 2s", len(at))
	}
	for k := 1; k < 4; k++ {
		minGap := interval << (k - 1)
		if gap := at[k].Sub(at[k-1]); gap < minGap {
			t.Fatalf("attempt %d → %d gap %v, want ≥ %v", k, k+1, gap, minGap)
		}
	}
}

// TestRetryBackoffReducesRetries is the regression bound for the
// retry-storm bugfix: against an unreachable peer, the retry counter
// stays far below the one-retry-per-tick rate of the fixed-interval
// schedule.
func TestRetryBackoffReducesRetries(t *testing.T) {
	const interval = 40 * time.Millisecond
	res := newCountingResolver()
	// A resolvable route to a dead address: dials fail, the message
	// stays buffered and is retried on the backoff schedule.
	res.set("urn:dead", Route{Transport: "tcp", Addr: "127.0.0.1:1"})
	e := NewEndpoint("urn:bo-count", WithResolver(res), WithRetryInterval(interval))
	defer e.Close()

	start := time.Now()
	if err := e.Send("urn:dead", 1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	const window = time.Second
	time.Sleep(window)
	// On a loaded machine the retry loop itself may be starved: wait
	// (bounded) for it to demonstrably run rather than asserting a
	// wall-clock count too early.
	retried := func() uint64 { return e.MetricsSnapshot().Counters["retried"] }
	waitFor(t, 5*time.Second, func() bool { return retried() >= 2 }, "retry loop not running")
	elapsed := time.Since(start)

	// Fixed-interval behavior retries every tick: ~elapsed/interval.
	// Exponential backoff fits only attempts at cumulative 40+80+160+
	// 320+640... ms, so well under half the fixed count even with tick
	// quantisation in the retries' favour. Measuring elapsed (instead of
	// assuming the sleep took exactly `window`) keeps the bound valid
	// when the sleep overruns.
	fixed := uint64(elapsed / interval)
	if got := retried(); got >= fixed/2 {
		t.Fatalf("retried %d times in %v; backoff should stay below %d (fixed ≈ %d)",
			got, elapsed, fixed/2, fixed)
	}
}

// TestRouteCacheSingleResolve asserts a burst of buffered messages to
// one unknown destination costs one resolver call per TTL, not one per
// message per tick.
func TestRouteCacheSingleResolve(t *testing.T) {
	res := newCountingResolver() // resolves to no routes
	e := NewEndpoint("urn:rc", WithResolver(res),
		WithRetryInterval(30*time.Millisecond), withRouteCacheTTL(10*time.Second))
	defer e.Close()

	for i := 0; i < 6; i++ {
		if err := e.Send("urn:nowhere", 1, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	// Wait for enough cache hits to prove several transmissions consulted
	// the cache (bounded; replaces a fixed several-retry-ticks sleep).
	waitFor(t, 5*time.Second, func() bool {
		return e.Metrics().Counter("route_cache_hits").Value() >= 5
	}, "route cache never hit")
	if got := res.count(); got != 1 {
		t.Fatalf("resolver called %d times for 6 buffered messages; want 1", got)
	}
}

// TestRouteCacheInvalidatedOnSendFailure asserts a conn-level send
// failure drops the cached routes so the next attempt re-resolves
// immediately instead of waiting out the TTL.
func TestRouteCacheInvalidatedOnSendFailure(t *testing.T) {
	res := newCountingResolver()
	route := Route{Transport: "brokenwire", Addr: "peer"}
	res.set("urn:flaky", route)
	e := NewEndpoint("urn:rc-inv", WithResolver(res),
		WithRetryInterval(30*time.Millisecond), withRouteCacheTTL(10*time.Second))
	defer e.Close()
	// Pre-seed the connection for the advertised route with one whose
	// sends fail, so the first transmit fails at the conn level.
	e.AttachConn(route.String(), newFailingConn())

	if err := e.Send("urn:flaky", 1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	// First transmit: resolve #1, send failure, cache invalidated.
	// Next retry: cache miss → resolve #2 (then re-cached; later
	// retries fail at dial and do not invalidate).
	waitFor(t, 5*time.Second, func() bool { return res.count() >= 2 },
		"no re-resolution after send failure")
	// Let several more retries run (bounded, counted via the retried
	// metric rather than wall clock), then check none of them re-resolved.
	retriedNow := e.MetricsSnapshot().Counters["retried"]
	waitFor(t, 5*time.Second, func() bool {
		return e.MetricsSnapshot().Counters["retried"] >= retriedNow+2
	}, "retry loop stalled")
	if got := res.count(); got != 2 {
		t.Fatalf("resolver called %d times; want exactly 2 (re-cached after failure)", got)
	}
	if errs := e.Metrics().Counter("send_errors").Value(); errs == 0 {
		t.Fatal("send_errors counter not incremented")
	}
}

// TestMetricsRaceWithTraffic hammers snapshots while traffic flows;
// run under -race this proves the metrics layer is lock-free-safe.
func TestMetricsRaceWithTraffic(t *testing.T) {
	res := newTestResolver()
	a := newTestEndpoint(t, "urn:mr-a", res)
	b := newTestEndpoint(t, "urn:mr-b", res)

	const n = 200
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			a.Send("urn:mr-b", 1, []byte("payload"))
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			if _, err := recvT(b, 5*time.Second); err != nil {
				return
			}
		}
	}()
	stop := make(chan struct{})
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			a.MetricsSnapshot()
			b.MetricsSnapshot().Render()
		}
	}()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	// Let traffic and snapshots overlap, then stop the snapshot loop.
	time.Sleep(200 * time.Millisecond)
	close(stop)
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("traffic stalled")
	}
	sent := a.MetricsSnapshot().Counters["sent"]
	if sent != n {
		t.Fatalf("sent = %d, want %d", sent, n)
	}
	if rcvd := b.MetricsSnapshot().Counters["received"]; rcvd != n {
		t.Fatalf("b received = %d, want %d", rcvd, n)
	}
}

// TestRUDPRemoteAddr asserts RUDP conns report the real peer address
// instead of the transport-name placeholder.
func TestRUDPRemoteAddr(t *testing.T) {
	tr := RUDPTransport{}
	ln, err := tr.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	acceptCh := make(chan FrameConn, 1)
	go func() {
		c, err := ln.Accept()
		if err == nil {
			acceptCh <- c
		}
	}()
	dialer, err := tr.Dial(ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer dialer.Close()
	if got := dialer.RemoteAddr(); got != ln.Addr() {
		t.Fatalf("dialer RemoteAddr = %q, want %q", got, ln.Addr())
	}
	if err := dialer.Send([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	var server FrameConn
	select {
	case server = <-acceptCh:
	case <-time.After(3 * time.Second):
		t.Fatal("accept timeout")
	}
	defer server.Close()
	if got := server.RemoteAddr(); got == "rudp" || got == "" {
		t.Fatalf("server RemoteAddr = %q, want the peer's address", got)
	}
}
