package rcds

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"snipe/internal/testutil"
	"snipe/internal/xdr"
)

// startTestServer starts a server over a fresh store and registers
// cleanup.
func startTestServer(t testing.TB, origin string) *Server {
	t.Helper()
	s := NewServer(NewStore(origin))
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// ctxTimeout returns a context bounded by the given duration string,
// canceled at test cleanup — the idiom for long-poll calls that used to
// take an explicit timeout argument.
func ctxTimeout(t testing.TB, d string) context.Context {
	t.Helper()
	dur, err := time.ParseDuration(d)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), dur)
	t.Cleanup(cancel)
	return ctx
}

// TestRequestOverlap proves out-of-order responses on one connection:
// a Wait long-poll (the delayed response) is outstanding while a Get
// issued after it on the same connection completes first.
func TestRequestOverlap(t *testing.T) {
	s := startTestServer(t, "overlap")
	c := NewClient([]string{s.Addr()}, nil)
	defer c.Close()

	if err := c.Set(context.Background(), "urn:x", "k", "v"); err != nil {
		t.Fatal(err)
	}
	ver, err := c.waitOn(context.Background(), c.seed, 0, 0)
	if err != nil {
		t.Fatal(err)
	}

	waitDone := make(chan error, 1)
	go func() {
		// Long-poll that cannot complete until its server-side timeout:
		// nothing writes while it is pending.
		_, err := c.waitOn(context.Background(), c.seed, ver, 1500*time.Millisecond)
		waitDone <- err
	}()
	time.Sleep(100 * time.Millisecond) // let the long-poll reach the server

	start := time.Now()
	if _, err := c.Get(context.Background(), "urn:x"); err != nil {
		t.Fatalf("get during long-poll: %v", err)
	}
	elapsed := time.Since(start)

	select {
	case err := <-waitDone:
		t.Fatalf("long-poll finished before the later Get (err=%v)", err)
	default:
	}
	if elapsed > 700*time.Millisecond {
		t.Fatalf("get took %v; it was blocked behind the long-poll", elapsed)
	}
	if err := <-waitDone; err != nil {
		t.Fatalf("long-poll: %v", err)
	}
	// Single replica, no failovers: everything rode one connection.
	snap := c.MetricsSnapshot()
	if snap.Counters["failovers"] != 0 {
		t.Fatalf("failovers = %d, want 0", snap.Counters["failovers"])
	}
}

// TestConcurrentLookupsOneConnection overlaps Get and Values from many
// goroutines over the single shared connection.
func TestConcurrentLookupsOneConnection(t *testing.T) {
	s := startTestServer(t, "mux")
	c := NewClient([]string{s.Addr()}, nil)
	defer c.Close()

	for i := 0; i < 4; i++ {
		if err := c.Set(context.Background(), fmt.Sprintf("urn:m%d", i), "k", fmt.Sprintf("v%d", i)); err != nil {
			t.Fatal(err)
		}
	}

	const goroutines = 16
	const iters = 10
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			uri := fmt.Sprintf("urn:m%d", g%4)
			want := fmt.Sprintf("v%d", g%4)
			for i := 0; i < iters; i++ {
				if g%2 == 0 {
					as, err := c.Get(context.Background(), uri)
					if err != nil || len(as) != 1 || as[0].Value != want {
						errs <- fmt.Errorf("get %s: %v %v", uri, as, err)
						return
					}
				} else {
					vals, err := c.Values(context.Background(), uri, "k")
					if err != nil || len(vals) != 1 || vals[0] != want {
						errs <- fmt.Errorf("values %s: %v %v", uri, vals, err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if f := c.MetricsSnapshot().Counters["failovers"]; f != 0 {
		t.Fatalf("failovers = %d, want 0 (single healthy replica)", f)
	}
}

// TestFailoverMidStream kills the replica serving a batch of in-flight
// requests; the unanswered requests are re-issued against the next
// replica and every caller still gets its answer. The requests are
// long-polls on a version the first replica has not reached, so they
// stay in flight until it dies — as a crash: its sockets close with the
// polls unanswered, where Close would answer them first.
func TestFailoverMidStream(t *testing.T) {
	s0 := startTestServer(t, "f0")
	s1 := startTestServer(t, "f1")

	// The second replica is one write ahead: a poll the first parks is
	// answered at once when re-issued there.
	s0.Store().Set("urn:f", "k", "v")
	s1.Store().Set("urn:f", "k", "v")
	s1.Store().Set("urn:f", "k", "w")
	since, want := s0.Store().Version(), s1.Store().Version()

	c := NewClient([]string{s0.Addr(), s1.Addr()}, nil)
	defer c.Close()

	const callers = 8
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if v, err := c.waitOn(ctx, c.seed, since, 10*time.Second); err != nil || v != want {
				errs <- fmt.Errorf("wait = %d %v, want version %d", v, err, want)
			}
		}()
	}
	testutil.WaitFor(t, 5*time.Second, func() bool { return c.inflight.Load() == callers },
		"the polls never got in flight")
	// Kill the replica mid-stream. Marked stopped in the same hold, it
	// closes a connection accepted after the kill at once, as a dead
	// host's would fail; Close, which now returns at once, is done last.
	s0.mu.Lock()
	s0.stopped = true
	s0.ln.Close()
	for conn := range s0.conns {
		conn.Close()
	}
	s0.mu.Unlock()
	t.Cleanup(func() { s0.stop(); s0.wg.Wait() })
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if f := c.MetricsSnapshot().Counters["failovers"]; f == 0 {
		t.Fatal("no failover recorded despite a killed replica")
	}
}

// TestFailoverCursorMovesOnce: the connection to the first of two
// replicas dies, the replica with it, and a connFailed races three
// callers that find the connection broken and dial. However they
// interleave, the failure moves the group's set once, onto the live
// replica: two dial failures that each moved it would bring it back to
// the dead one.
func TestFailoverCursorMovesOnce(t *testing.T) {
	live := startTestServer(t, "live")
	ctx := ctxTimeout(t, "10s")
	for round := 0; round < 50; round++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		c := NewClient([]string{ln.Addr().String(), live.Addr()}, nil)
		g := c.seed
		cc, err := c.getConn(ctx, g)
		if err != nil {
			t.Fatal(err)
		}
		conn, err := ln.Accept()
		if err != nil {
			t.Fatal(err)
		}
		ln.Close() // the replica is gone: a dial to it is refused
		conn.Close()
		<-cc.done

		start := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(4)
		go func() {
			defer wg.Done()
			<-start
			c.connFailed(g, cc)
		}()
		for i := 0; i < 3; i++ {
			go func() {
				defer wg.Done()
				<-start
				c.getConn(ctx, g) // a dial to the dead replica fails, to the live one succeeds
			}()
		}
		close(start)
		wg.Wait()
		at, _ := g.set.Current()
		c.Close()
		if at != live.Addr() {
			t.Fatalf("round %d: the cursor is back on the dead replica", round)
		}
	}
}

// TestReadCacheCoherence checks the coherence rule: after a remote
// write is observed via the Wait sequence, the next FirstValue returns
// the new value; between writes, reads are served from cache.
func TestReadCacheCoherence(t *testing.T) {
	s := startTestServer(t, "coh")
	writer := NewClient([]string{s.Addr()}, nil)
	defer writer.Close()
	reader := NewClient([]string{s.Addr()}, nil, WithReadCache())
	defer reader.Close()

	if err := writer.Set(context.Background(), "urn:c", "k", "v1"); err != nil {
		t.Fatal(err)
	}

	// The cache serves only after the watch loop has established its
	// baseline sequence; poll until a repeated read registers a hit.
	deadline := time.Now().Add(5 * time.Second)
	for {
		v, ok, err := reader.FirstValue(context.Background(), "urn:c", "k")
		if err != nil || !ok || v != "v1" {
			t.Fatalf("read v1: %q %v %v", v, ok, err)
		}
		if reader.MetricsSnapshot().Counters["cache_hits"] > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("cache never started serving hits")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Remote write by a different client: invisible to the reader's
	// local invalidation, only the watch can deliver it.
	if err := writer.Set(context.Background(), "urn:c", "k", "v2"); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(5 * time.Second)
	for {
		v, _, err := reader.FirstValue(context.Background(), "urn:c", "k")
		if err != nil {
			t.Fatal(err)
		}
		if v == "v2" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cached value never converged: still %q", v)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Local writes invalidate immediately (read-your-writes).
	if err := reader.Set(context.Background(), "urn:c", "k", "v3"); err != nil {
		t.Fatal(err)
	}
	if v, _, err := reader.FirstValue(context.Background(), "urn:c", "k"); err != nil || v != "v3" {
		t.Fatalf("read-your-writes: %q %v", v, err)
	}

	snap := reader.MetricsSnapshot()
	for _, key := range []string{"cache_hits", "cache_misses", "requests", "failovers"} {
		if _, ok := snap.Counters[key]; !ok {
			t.Fatalf("metrics snapshot missing %q: %v", key, snap.Counters)
		}
	}
	if snap.Counters["cache_hits"] == 0 || snap.Counters["cache_misses"] == 0 {
		t.Fatalf("cache counters not moving: %v", snap.Counters)
	}
}

// serialClient mimics the seed client's wire behaviour: one request at
// a time per connection, the next request waiting for the previous
// response. It speaks the current mux framing so both sides of the
// throughput comparison share transport and server costs.
type serialClient struct {
	mu     sync.Mutex
	fr     *xdr.FrameReader
	fw     *xdr.FrameWriter
	nextID uint64
}

func dialSerial(t testing.TB, addr string) *serialClient {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &serialClient{fr: xdr.NewFrameReader(conn), fw: xdr.NewFrameWriter(conn)}
}

// roundTrip sends one request and reads its response.
func (sc *serialClient) roundTrip(req []byte) (*xdr.Decoder, error) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	sc.nextID++
	setMuxID(req, sc.nextID)
	if err := writeFrame(sc.fw, req, nil); err != nil {
		return nil, err
	}
	frame, err := nextFrame(sc.fr, nil)
	if err != nil {
		return nil, err
	}
	_, body, err := splitMux(frame)
	if err != nil {
		return nil, err
	}
	return parseBody(body)
}

func (sc *serialClient) firstValue(uri, name string) (string, bool, error) {
	d, err := sc.roundTrip(request(cmdFirst, func(e *xdr.Encoder) {
		e.PutString(uri)
		e.PutString(name)
	}))
	if err != nil {
		return "", false, err
	}
	ok, err := d.Bool()
	if err != nil {
		return "", false, err
	}
	v, err := d.String()
	return v, ok, err
}

func (sc *serialClient) wait(since uint64, timeout time.Duration) error {
	_, err := sc.roundTrip(request(cmdWait, func(e *xdr.Encoder) {
		e.PutUint64(since)
		e.PutUint32(uint32(timeout / time.Millisecond))
	}))
	return err
}

// runLookups fans out callers goroutines, each performing iters lookups
// through fn, and returns the wall-clock time for all to finish.
func runLookups(t testing.TB, callers, iters int, fn func() error) time.Duration {
	t.Helper()
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	start := time.Now()
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < iters; j++ {
				if err := fn(); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	return elapsed
}

// TestMuxThroughputSpeedup is the acceptance benchmark in test form:
// with 8 concurrent callers issuing requests of a fixed service time,
// the multiplexed client must deliver at least 4x the throughput of the
// seed-style serial client. The request is a long-poll on a version
// that does not advance, which the server holds for exactly its
// timeout.
func TestMuxThroughputSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-based comparison")
	}
	const hold = 5 * time.Millisecond
	const callers = 8
	const iters = 20

	s := startTestServer(t, "thr")
	s.Store().Set("urn:t", "k", "v")
	since := s.Store().Version()

	serial := dialSerial(t, s.Addr())
	serialTime := runLookups(t, callers, iters, func() error {
		return serial.wait(since, hold)
	})

	mux := NewClient([]string{s.Addr()}, nil)
	defer mux.Close()
	muxTime := runLookups(t, callers, iters, func() error {
		_, err := mux.waitOn(context.Background(), mux.seed, since, hold)
		return err
	})

	speedup := float64(serialTime) / float64(muxTime)
	t.Logf("serial=%v mux=%v speedup=%.1fx", serialTime, muxTime, speedup)
	if speedup < 4 {
		t.Fatalf("mux speedup %.1fx < 4x (serial=%v mux=%v)", speedup, serialTime, muxTime)
	}
}

// BenchmarkCatalogLookup8 measures 8-way concurrent FirstValue
// throughput through the multiplexed client.
func BenchmarkCatalogLookup8(b *testing.B) {
	s := startTestServer(b, "bench-mux")
	s.Store().Set("urn:b", "k", "v")
	c := NewClient([]string{s.Addr()}, nil)
	defer c.Close()
	b.SetParallelism(8)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, _, err := c.FirstValue(context.Background(), "urn:b", "k"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCatalogLookupSerial8 is the seed-style baseline: 8 callers
// serialised over one connection.
func BenchmarkCatalogLookupSerial8(b *testing.B) {
	s := startTestServer(b, "bench-serial")
	s.Store().Set("urn:b", "k", "v")
	sc := dialSerial(b, s.Addr())
	b.SetParallelism(8)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, _, err := sc.firstValue("urn:b", "k"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestGatheredWriteFailure: 64 callers Set through one client while the
// server kills the connection they share after every 300 frames it reads,
// so that batches of gathered requests are cut off mid-write and
// unanswered. Each caller fails over to a new connection or returns an
// error within the client timeout; none hangs. Two posters' Applies share
// the connection, and each poster's frames arrive in the order it posted
// them.
func TestGatheredWriteFailure(t *testing.T) {
	const killEvery, callers, each, posts = 300, 64, 40, 150
	const timeout = 5 * time.Second
	srv := NewServer(NewStore("rc0")) // never started: it answers what the listener reads
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	arrived := map[string][]uint64{} // poster → the seqs of its Applies, in arrival order
	var kills atomic.Int32
	var handlers sync.WaitGroup
	accepted := make(chan struct{})
	//lint:allow goroutinelife the accept loop exits when the deferred cleanup closes the listener
	go func() {
		defer close(accepted)
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			handlers.Add(1)
			//lint:allow goroutinelife a handler ends with its connection: at a kill, or when the client closes it
			go func() {
				defer handlers.Done()
				defer conn.Close()
				fr, fw := xdr.NewFrameReader(conn), xdr.NewFrameWriter(conn)
				for k := 1; ; k++ {
					if k%killEvery == 0 {
						kills.Add(1)
						return
					}
					frame, err := nextFrame(fr, nil)
					if err != nil {
						return
					}
					if id, body, _ := splitMux(frame); id == 0 && len(body) > 0 {
						d := xdr.NewDecoder(body[1:])
						from, _ := d.StringMax(maxWireURI)
						ops, err := DecodeAssertions(d)
						if err != nil || len(ops) != 1 {
							t.Errorf("a posted Apply that does not decode: %v", err)
							return
						}
						mu.Lock()
						arrived[from] = append(arrived[from], ops[0].Seq)
						mu.Unlock()
						continue
					}
					resp, err := srv.serve(new(served), frame, nil)
					if err != nil {
						t.Errorf("a request that does not serve: %v", err)
						return
					}
					if writeFrame(fw, resp, nil) != nil {
						return
					}
				}
			}()
		}
	}()
	defer func() {
		ln.Close()
		<-accepted
		handlers.Wait()
	}()

	c := NewClient([]string{ln.Addr().String()}, nil, WithTimeout(timeout))
	defer c.Close()
	ctx := context.Background() // nothing but the client bounds a call
	var wg sync.WaitGroup
	var answered, failed atomic.Int64
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				start := time.Now()
				err := c.Set(ctx, fmt.Sprintf("urn:g%02d-%03d", g, i), AttrState, "running")
				if took := time.Since(start); took > timeout {
					t.Errorf("a Set took %v (%v), past the client timeout", took, err)
				}
				if err == nil {
					answered.Add(1)
				} else {
					failed.Add(1)
				}
			}
		}()
	}
	for p := 0; p < 2; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			from := fmt.Sprintf("poster%d", p)
			for seq := uint64(1); seq <= posts; seq++ {
				op := Assertion{URI: "urn:posted", Name: AttrState, Value: "running", Origin: from, Seq: seq, Clock: seq}
				if cc, err := c.getConn(ctx, c.seed); err == nil {
					_ = c.post(cc, from, []Assertion{op}) // a frame on a killed connection is lost, not reordered
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	within(t, time.Minute, done, "callers on a connection killed under them")
	t.Logf("%d kills; %d Sets answered, %d failed", kills.Load(), answered.Load(), failed.Load())
	if kills.Load() == 0 || answered.Load() == 0 {
		t.Errorf("%d kills and %d Sets answered: the run did not cross a kill", kills.Load(), answered.Load())
	}
	mu.Lock()
	defer mu.Unlock()
	for from, seqs := range arrived {
		for i := 1; i < len(seqs); i++ {
			if seqs[i] <= seqs[i-1] {
				t.Errorf("%s's Apply %d arrived after its Apply %d", from, seqs[i], seqs[i-1])
			}
		}
	}
}
