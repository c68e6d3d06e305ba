package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"snipe/internal/comm"
	"snipe/internal/liveness"
	"snipe/internal/naming"
	"snipe/internal/rcds"
	"snipe/internal/testutil"
)

// world is an in-process universe: a store-backed catalog, a resolver
// over it, and endpoints on loopback TCP.
type world struct {
	t   *testing.T
	cat naming.Catalog
}

func newWorld(t *testing.T) *world {
	t.Helper()
	return &world{t: t, cat: naming.StoreCatalog(rcds.NewStore("svc-test"))}
}

func (w *world) endpoint(urn string) *comm.Endpoint {
	w.t.Helper()
	res := naming.NewResolver(w.cat)
	res.SetTTL(20 * time.Millisecond)
	ep := comm.NewEndpoint(urn, comm.WithResolver(res))
	route, err := ep.Listen(comm.ListenSpec{Transport: "tcp", Addr: "127.0.0.1:0"})
	if err != nil {
		w.t.Fatal(err)
	}
	if err := naming.Register(w.cat, urn, []comm.Route{route}); err != nil {
		w.t.Fatal(err)
	}
	w.t.Cleanup(ep.Close)
	return ep
}

// heartbeats publishes a host's liveness every interval until stopped.
func (w *world) heartbeats(host string, load float64, interval time.Duration) (stop func()) {
	done := make(chan struct{})
	var once sync.Once
	hostURL := naming.HostURL(host)
	var seq uint64
	beat := func() {
		seq++
		hb := liveness.Heartbeat{Seq: seq, Time: time.Now().UnixNano(), Load: load}
		w.cat.Set(hostURL, rcds.AttrHeartbeat, hb.String())
	}
	beat()
	go func() {
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				beat()
			}
		}
	}()
	stop = func() { once.Do(func() { close(done) }) }
	w.t.Cleanup(stop)
	return stop
}

func (w *world) monitor() *liveness.Monitor {
	w.t.Helper()
	mon := liveness.NewMonitor(w.cat, liveness.Options{
		CheckInterval: 10 * time.Millisecond,
		MinSuspect:    100 * time.Millisecond,
		MaxSuspect:    400 * time.Millisecond,
	})
	w.t.Cleanup(mon.Close)
	return mon
}

// echoReplica runs one echo replica of svc on host; the handler reads
// the request and answers "<tag>:<request>".
func (w *world) echoReplica(svc, host, tag string, mon *liveness.Monitor) (*Server, *comm.Endpoint) {
	w.t.Helper()
	ep := w.endpoint(naming.ProcessURN(host, svc))
	srv, err := NewServer(ServerConfig{
		Name:     svc,
		Catalog:  w.cat,
		Endpoint: ep,
		Monitor:  mon,
		HostURL:  naming.HostURL(host),
	})
	if err != nil {
		w.t.Fatal(err)
	}
	srv.Handle("echo", func(ctx context.Context, st *comm.Stream) error {
		req, err := readAll(ctx, st)
		if err != nil {
			return err
		}
		return st.Write(ctx, []byte(tag+":"+string(req)))
	})
	w.t.Cleanup(srv.Close)
	return srv, ep
}

func readAll(ctx context.Context, st *comm.Stream) ([]byte, error) {
	var out []byte
	for {
		chunk, err := st.Read(ctx)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, chunk...)
	}
}

func waitFor(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	testutil.WaitFor(t, d, cond, msg)
}

// TestServiceGroupKillReplicaZeroFailedRequests is the tentpole e2e:
// three replicas serve a sustained call stream, one host dies mid-run,
// and — between per-attempt retry and the liveness-fed balancer — not
// a single Call fails.
func TestServiceGroupKillReplicaZeroFailedRequests(t *testing.T) {
	w := newWorld(t)
	mon := w.monitor()

	hosts := []string{"h1", "h2", "h3"}
	stops := make(map[string]func())
	for _, h := range hosts {
		stops[h] = w.heartbeats(h, 0.5, 20*time.Millisecond)
	}
	var eps []*comm.Endpoint
	for _, h := range hosts {
		_, ep := w.echoReplica("lookup", h, h, mon)
		eps = append(eps, ep)
	}

	cli, err := NewClient(ClientConfig{
		Service:        "lookup",
		Catalog:        w.cat,
		Endpoint:       w.endpoint(naming.ProcessURN("cli", "caller")),
		Monitor:        mon,
		Attempts:       3,
		AttemptTimeout: 700 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	var calls, failures atomic.Int64
	stopLoad := make(chan struct{})
	var wg sync.WaitGroup
	for worker := 0; worker < 4; worker++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stopLoad:
					return
				default:
				}
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				req := fmt.Sprintf("w%d-%d", worker, i)
				resp, err := cli.Call(ctx, "echo", []byte(req))
				cancel()
				calls.Add(1)
				if err != nil {
					failures.Add(1)
					t.Errorf("call %s failed: %v", req, err)
				} else if want := ":" + req; len(resp) < 3 || string(resp[2:]) != want {
					failures.Add(1)
					t.Errorf("call %s: bad response %q", req, resp)
				}
			}
		}(worker)
	}

	// Let the group serve for a while, then crash h2: its heartbeats
	// stop and its endpoint dies without any drain.
	time.Sleep(400 * time.Millisecond)
	stops["h2"]()
	eps[1].Close()

	waitFor(t, 5*time.Second, func() bool {
		return mon.State(naming.HostURL("h2")) == liveness.Suspect ||
			mon.State(naming.HostURL("h2")) == liveness.Dead
	}, "monitor never suspected the killed host")

	// Keep the load running well past detection so post-kill traffic
	// exercises the narrowed rotation.
	time.Sleep(600 * time.Millisecond)
	close(stopLoad)
	wg.Wait()

	if calls.Load() == 0 {
		t.Fatal("no calls issued")
	}
	if f := failures.Load(); f != 0 {
		t.Fatalf("%d of %d calls failed; want zero", f, calls.Load())
	}
	// The balancer must have dropped h2's replica from rotation.
	cands, err := cli.Candidates()
	if err != nil {
		t.Fatal(err)
	}
	for _, urn := range cands {
		if liveness.HostOfURN(urn) == naming.HostURL("h2") {
			t.Fatalf("dead host's replica still in rotation: %v", cands)
		}
	}
	t.Logf("served %d calls across kill with zero failures", calls.Load())
}

// TestServerDrainGraceful: a draining replica finishes its in-flight
// stream, withdraws its registration, and refuses new streams while
// the rest of the group keeps serving.
func TestServerDrainGraceful(t *testing.T) {
	w := newWorld(t)

	started := make(chan struct{})
	release := make(chan struct{})
	epA := w.endpoint(naming.ProcessURN("ha", "slow"))
	srvA, err := NewServer(ServerConfig{Name: "slow", Catalog: w.cat, Endpoint: epA})
	if err != nil {
		t.Fatal(err)
	}
	defer srvA.Close()
	srvA.Handle("work", func(ctx context.Context, st *comm.Stream) error {
		req, err := readAll(ctx, st)
		if err != nil {
			return err
		}
		close(started)
		<-release
		return st.Write(ctx, append([]byte("done:"), req...))
	})

	cli, err := NewClient(ClientConfig{
		Service:  "slow",
		Catalog:  w.cat,
		Endpoint: w.endpoint(naming.ProcessURN("cli", "drainer")),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	callDone := make(chan error, 1)
	go func() {
		resp, err := cli.Call(ctx, "work", []byte("x"))
		if err == nil && string(resp) != "done:x" {
			err = fmt.Errorf("bad response %q", resp)
		}
		callDone <- err
	}()
	<-started

	// Drain with the call still in flight. Registration must be gone
	// immediately; Drain itself must block until the call finishes.
	drainDone := make(chan error, 1)
	go func() { drainDone <- srvA.Drain(ctx) }()
	waitFor(t, 2*time.Second, srvA.Draining, "mux never started draining")
	if vals, _ := w.cat.Values(srvA.ServiceURI(), rcds.AttrServiceReplica); len(vals) != 0 {
		t.Fatalf("registration not withdrawn during drain: %v", vals)
	}
	select {
	case err := <-drainDone:
		t.Fatalf("drain returned before in-flight stream finished: %v", err)
	case <-time.After(100 * time.Millisecond):
	}

	// A stream opened against the draining replica is refused.
	st, err := cli.mux.Open(ctx, srvA.URN(), "work")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Read(ctx); !errors.Is(err, comm.ErrDraining) {
		t.Fatalf("open against draining replica: %v, want ErrDraining", err)
	}

	// A second replica registers; new calls land there.
	epB := w.endpoint(naming.ProcessURN("hb", "slow"))
	srvB, err := NewServer(ServerConfig{Name: "slow", Catalog: w.cat, Endpoint: epB})
	if err != nil {
		t.Fatal(err)
	}
	defer srvB.Close()
	srvB.Handle("work", func(ctx context.Context, st *comm.Stream) error {
		if _, err := readAll(ctx, st); err != nil {
			return err
		}
		return st.Write(ctx, []byte("fresh"))
	})
	resp, err := cli.Call(ctx, "work", []byte("y"))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "fresh" {
		t.Fatalf("post-drain call answered by %q", resp)
	}

	// Release the slow handler: the in-flight call completes without
	// error and the drain finishes.
	close(release)
	if err := <-callDone; err != nil {
		t.Fatalf("in-flight call failed across drain: %v", err)
	}
	if err := <-drainDone; err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestBalancerSkipsSuspectHosts: the monitor's failure notification
// takes a replica out of rotation via the subscription, not a poll.
func TestBalancerSkipsSuspectHosts(t *testing.T) {
	w := newWorld(t)
	mon := w.monitor()
	stop1 := w.heartbeats("b1", 0, 20*time.Millisecond)
	stop2 := w.heartbeats("b2", 0, 20*time.Millisecond)

	uri := naming.ServiceURN("bal")
	r1 := naming.ProcessURN("b1", "bal")
	r2 := naming.ProcessURN("b2", "bal")
	w.cat.Add(uri, rcds.AttrServiceReplica, r1)
	w.cat.Add(uri, rcds.AttrServiceReplica, r2)

	cli, err := NewClient(ClientConfig{
		Service:  "bal",
		Catalog:  w.cat,
		Endpoint: w.endpoint(naming.ProcessURN("cli", "bal")),
		Monitor:  mon,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	waitFor(t, 2*time.Second, func() bool {
		c, err := cli.Candidates()
		return err == nil && len(c) == 2
	}, "both replicas should start in rotation")

	// A still-beating host shrugs suspicion off (the next heartbeat
	// recovers it), so silence the host before injecting evidence.
	stop2()
	mon.MarkSuspect(naming.HostURL("b2"), "test evidence")
	waitFor(t, 2*time.Second, func() bool {
		c, err := cli.Candidates()
		return err == nil && len(c) == 1 && c[0] == r1
	}, "suspect host's replica not dropped from rotation")

	// Suspecting every host empties the rotation.
	stop1()
	mon.MarkSuspect(naming.HostURL("b1"), "test evidence")
	waitFor(t, 2*time.Second, func() bool {
		_, err := cli.Candidates()
		return errors.Is(err, ErrNoReplicas)
	}, "candidates should report ErrNoReplicas with all hosts suspect")
}

// TestBalancerWeighsAdvertisedLoad: with no latency history, the
// heartbeat load decides the order — a 10x load gap dwarfs the jitter.
func TestBalancerWeighsAdvertisedLoad(t *testing.T) {
	w := newWorld(t)
	w.heartbeats("idle", 0.1, 20*time.Millisecond)
	w.heartbeats("busy", 9.0, 20*time.Millisecond)

	uri := naming.ServiceURN("weigh")
	idle := naming.ProcessURN("idle", "weigh")
	busy := naming.ProcessURN("busy", "weigh")
	w.cat.Add(uri, rcds.AttrServiceReplica, busy)
	w.cat.Add(uri, rcds.AttrServiceReplica, idle)

	cli, err := NewClient(ClientConfig{
		Service:  "weigh",
		Catalog:  w.cat,
		Endpoint: w.endpoint(naming.ProcessURN("cli", "weigh")),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	for i := 0; i < 10; i++ {
		cands, err := cli.Candidates()
		if err != nil {
			t.Fatal(err)
		}
		if cands[0] != idle {
			t.Fatalf("round %d: busy host preferred: %v", i, cands)
		}
	}

	// A failure observation doubles the idle replica's estimate until
	// it loses its edge... but 2x20ms < (1+9)x20ms, so only repeated
	// failures flip the order.
	for i := 0; i < 5; i++ {
		cli.observe(idle, 0, true)
	}
	cands, err := cli.Candidates()
	if err != nil {
		t.Fatal(err)
	}
	if cands[0] != busy {
		t.Fatalf("failure-penalised replica still preferred: %v", cands)
	}
}

// TestDrainThenCloseKeepsFinishedResponse: a handler that writes its
// response and returns while Drain is waiting has left frames queued in
// the mux. Drain waits for them to reach the endpoint, so a Close right
// behind it cannot cut the response short.
func TestDrainThenCloseKeepsFinishedResponse(t *testing.T) {
	w := newWorld(t)
	want := make([]byte, 96<<10)
	for i := range want {
		want[i] = byte(i * 7)
	}
	started := make(chan struct{})
	release := make(chan struct{})
	srv, err := NewServer(ServerConfig{Name: "last", Catalog: w.cat, Endpoint: w.endpoint(naming.ProcessURN("ha", "last"))})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Handle("work", func(ctx context.Context, st *comm.Stream) error {
		if _, err := readAll(ctx, st); err != nil {
			return err
		}
		close(started)
		<-release
		return st.Write(ctx, want)
	})
	cli, err := NewClient(ClientConfig{
		Service:  "last",
		Catalog:  w.cat,
		Endpoint: w.endpoint(naming.ProcessURN("cli", "last")),
		Attempts: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	type result struct {
		resp []byte
		err  error
	}
	callDone := make(chan result, 1)
	go func() {
		resp, err := cli.Call(ctx, "work", []byte("x"))
		callDone <- result{resp, err}
	}()
	<-started
	drainDone := make(chan error, 1)
	go func() { drainDone <- srv.Drain(ctx) }()
	waitFor(t, 2*time.Second, srv.Draining, "mux never started draining")
	close(release)
	if err := <-drainDone; err != nil {
		t.Fatalf("drain: %v", err)
	}
	srv.Close()
	r := <-callDone
	if r.err != nil {
		t.Fatalf("call finished during drain failed: %v", r.err)
	}
	if !bytes.Equal(r.resp, want) {
		t.Fatalf("response: %d bytes, want %d", len(r.resp), len(want))
	}
}

// deadPeers is a comm.PeerLiveness that holds a fixed set of peers dead.
type deadPeers map[string]bool

func (d deadPeers) PeerDead(dst string) bool { return d[dst] }
func (deadPeers) ReportFailure(string)       {}
func (deadPeers) ReportSuccess(string)       {}

// TestCallFailsOverFromDeadPeerAtOnce: the client's endpoint refuses to
// send to a replica whose host it holds dead. The refusal reaches the
// stream after Open and Write have returned, and the call must still move
// to the next replica at once, not after AttemptTimeout.
func TestCallFailsOverFromDeadPeerAtOnce(t *testing.T) {
	w := newWorld(t)
	dead, _ := w.echoReplica("pair", "hdead", "dead", nil)
	w.echoReplica("pair", "hlive", "live", nil)
	// The live replica's host advertises load, so the balancer tries the
	// dead one first on every call.
	w.heartbeats("hlive", 5, time.Hour)

	urn := naming.ProcessURN("cli", "pair")
	res := naming.NewResolver(w.cat)
	ep := comm.NewEndpoint(urn, comm.WithResolver(res),
		comm.WithLiveness(deadPeers{dead.URN(): true}), comm.WithFailFastDead())
	route, err := ep.Listen(comm.ListenSpec{Transport: "tcp", Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	if err := naming.Register(w.cat, urn, []comm.Route{route}); err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	const attemptTimeout = 5 * time.Second
	cli, err := NewClient(ClientConfig{Service: "pair", Catalog: w.cat, Endpoint: ep, AttemptTimeout: attemptTimeout})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 2*attemptTimeout)
	defer cancel()
	start := time.Now()
	for i := 0; i < 5; i++ {
		resp, err := cli.Call(ctx, "echo", []byte("q"))
		if err != nil || string(resp) != "live:q" {
			t.Fatalf("call %d: %q, %v", i, resp, err)
		}
	}
	if d := time.Since(start); d >= attemptTimeout {
		t.Fatalf("5 calls took %v: failover waited out the attempt timeout", d)
	}
	if n := ep.Metrics().Snapshot().Counters["stream_send_failures"]; n == 0 {
		t.Fatal("no call tried the dead replica: the test did not exercise the failover")
	}
}
