package comm

import (
	"bytes"
	"context"
	"runtime"
	"slices"
	"testing"
	"time"

	"snipe/internal/xdr"
)

// TestSendWaitAllocs is the tier-1 guard on the small-message fast path:
// one warmed 64 B SendWait over TCP loopback to a sink listening on two
// routes (the msg_small topology) — send, deliver to the handler,
// acknowledge, retire — costs at most 20 heap allocations, both ends
// counted. The benchmark ledger gates the same number; this fails in
// `go test` before a run of it would.
func TestSendWaitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow allocations are counted as the program's")
	}
	delivered := make(chan struct{}, 1)
	sink := NewEndpoint("urn:alloc-sink", WithHandler(func(*Message) { delivered <- struct{}{} }))
	defer sink.Close()
	var routes []Route
	for i := 0; i < 2; i++ {
		r, err := sink.Listen(ListenSpec{Transport: "tcp", Addr: "127.0.0.1:0"})
		if err != nil {
			t.Fatal(err)
		}
		routes = append(routes, r)
	}
	src := NewEndpoint("urn:alloc-src", WithResolver(StaticResolver{"urn:alloc-sink": routes}))
	defer src.Close()
	if _, err := src.Listen(ListenSpec{Transport: "tcp", Addr: "127.0.0.1:0"}); err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	payload := make([]byte, 64)
	op := func() {
		if err := src.SendWait(ctx, "urn:alloc-sink", 7, payload); err != nil {
			t.Fatal(err)
		}
		<-delivered
	}
	for i := 0; i < 200; i++ { // dial, hello, pools, route scores past scoreMinSamples
		op()
	}
	if got := testing.AllocsPerRun(2000, op); got > 20 {
		t.Errorf("64 B SendWait costs %.1f allocations, want ≤ 20", got)
	} else {
		t.Logf("64 B SendWait: %.1f allocations", got)
	}
}

// TestStripedSendWaitAllocs is the guard on the striped path: one
// warmed 256 KiB SendWait at one P to a sink listening on two TCP
// loopback routes (the msg_bulk topology), striped across both, costs at
// most 10 allocations and 16 KiB, both ends counted. 8 allocations and
// ~1.6 KB are measured: the buffered message and its ack channel, the
// stripe record and its fragment slots, the second route's worker, the
// receiver's reassembly and its fragment table, and the delivered
// message. The assembled payload is lent to the handler from the
// payload pool and goes back when it returns. The count bound leaves 2
// for GC timing. It was 35 when a stripe kept per-route maps, a fragment
// table, a watcher goroutine and a channel per state change.
func TestStripedSendWaitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow allocations are counted as the program's")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	delivered := make(chan struct{}, 1)
	sink := NewEndpoint("urn:stripe-alloc-sink", WithHandler(func(*Message) { delivered <- struct{}{} }))
	defer sink.Close()
	var routes []Route
	for i := 0; i < 2; i++ {
		r, err := sink.Listen(ListenSpec{Transport: "tcp", Addr: "127.0.0.1:0"})
		if err != nil {
			t.Fatal(err)
		}
		routes = append(routes, r)
	}
	src := NewEndpoint("urn:stripe-alloc-src", WithResolver(StaticResolver{"urn:stripe-alloc-sink": routes}))
	defer src.Close()
	if _, err := src.Listen(ListenSpec{Transport: "tcp", Addr: "127.0.0.1:0"}); err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	payload := patternPayload(9, stripeThreshold)
	op := func() {
		if err := src.SendWait(ctx, "urn:stripe-alloc-sink", 7, payload); err != nil {
			t.Fatal(err)
		}
		<-delivered
	}
	for i := 0; i < 200; i++ { // dial, hello, pools, route scores past scoreMinSamples
		op()
	}
	striped := src.mStriped.Value()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got := testing.AllocsPerRun(1000, op)
	runtime.ReadMemStats(&after)
	if n := src.mStriped.Value() - striped; n < 1000 {
		t.Fatalf("%d of 1,001 messages striped", n)
	}
	perOp := float64(after.TotalAlloc-before.TotalAlloc) / 1001
	if got > 10 {
		t.Errorf("striped 256 KiB SendWait costs %.1f allocations, want ≤ 10", got)
	}
	if perOp > 16<<10 {
		t.Errorf("striped 256 KiB SendWait allocates %.0f B, want ≤ 16 KiB", perOp)
	}
	t.Logf("striped 256 KiB SendWait: %.1f allocations, %.0f B", got, perOp)
}

// TestAckBatchDecodeAllocs: a full batch of per-fragment acks, handled
// where the read loop hands it over, allocates nothing: its entries
// decode into stack scratch and the URNs into the connection's memo.
func TestAckBatchDecodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	e := NewEndpoint("urn:batch-src")
	defer e.Close()
	s := newTestStripe(ackBatchMax*100, 100, "r1", "r2")
	e.stripeMu.Lock()
	e.stripes[reasmKey{"urn:batch-src", "urn:batch-dst", 1}] = s
	e.stripeMu.Unlock()
	refs := make([]ackRef, ackBatchMax)
	for i := range refs {
		refs[i] = ackRef{src: "urn:batch-src", dst: "urn:batch-dst", seq: 1, fragIdx: uint32(i)}
	}
	enc := xdr.NewEncoder(64)
	putAckBatch(enc, frameFragAckBatch, refs)
	frame := enc.Bytes()
	var names peerNames
	e.handleFrame(nil, nil, &names, frame) // the URN memo's first fill
	if got := testing.AllocsPerRun(100, func() { e.handleFrame(nil, nil, &names, frame) }); got != 0 {
		t.Errorf("%d-entry frag-ack batch: %.1f allocations, want 0", ackBatchMax, got)
	}
	if n := e.mFragAcks.Value(); n != 102*ackBatchMax { // the first fill, AllocsPerRun's warm-up and 100 runs
		t.Fatalf("frag_acks = %d, want every entry of 102 batches counted", n)
	}
	if s.nQueued != 0 {
		t.Fatalf("%d fragments still queued after all were acknowledged", s.nQueued)
	}
}

// TestUnaryEchoAllocs is the guard on the stream layer's share of a
// service call: 1,000 warmed unary echoes (256 B → 4 KiB) between two
// muxes over TCP loopback at one P start no flusher beyond the first per
// peer, and each costs at most 22 allocations, both ends counted and the
// test's own handler goroutine with them (21 measured; 29 when every
// burst of frames started a flusher and every receive-loop wait
// registered a context watcher).
func TestUnaryEchoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow allocations are counted as the program's")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	res := newTestResolver()
	a := newTestEndpoint(t, "urn:echo-alloc:a", res, WithRetryInterval(5*time.Second))
	b := newTestEndpoint(t, "urn:echo-alloc:b", res, WithRetryInterval(5*time.Second))
	ma, mb := NewStreamMux(a), NewStreamMux(b)
	defer ma.Close()
	defer mb.Close()
	ctx, cancel := context.WithCancel(context.Background())
	req, resp := make([]byte, 256), patternPayload(7, 4<<10)
	defer serveEchoes(ctx, mb, resp, nil)()
	defer cancel()
	op := func() {
		got, err := unaryEcho(ctx, ma, "urn:echo-alloc:b", req)
		if err != nil || !bytes.Equal(got, resp) {
			t.Fatalf("call: %d bytes, %v", len(got), err)
		}
	}
	for i := 0; i < 200; i++ { // dial, hello, pools, the flushers
		op()
	}
	if got := testing.AllocsPerRun(1000, op); got > 22 {
		t.Errorf("unary echo costs %.1f allocations, want ≤ 22", got)
	} else {
		t.Logf("unary echo: %.1f allocations", got)
	}
	for _, m := range []*StreamMux{ma, mb} {
		if n := m.mFlusherStarts.Value(); n > 1 {
			t.Errorf("%s started %d flushers for its one peer, want 1", m.Endpoint().URN(), n)
		}
	}
}

// TestOrderRoutesAllocs: ranking routes allocates nothing but the slice
// OrderRoutes returns — no map of local networks, no reflection-built
// swapper, no scratch copies — and the send path's ranking, which sorts
// into its caller's stack scratch, allocates nothing at all.
func TestOrderRoutesAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	local := []Route{{Transport: "tcp", Addr: "l:1", NetName: "atm"}, {Transport: "tcp", Addr: "l:2"}}
	var remote []Route
	for i := 0; i < maxStackRoutes; i++ {
		r := Route{Transport: "tcp", Addr: "10.0.0.1:" + string(rune('0'+i)), RateBps: float64(i%3) * 1e7, LatencyUs: float64(i)}
		if i%4 == 0 {
			r.NetName = "atm"
		}
		remote = append(remote, r)
	}
	if got := testing.AllocsPerRun(100, func() { OrderRoutes(local, remote) }); got > 1 {
		t.Errorf("OrderRoutes of %d routes: %.1f allocations, want ≤ 1 (the returned slice)", len(remote), got)
	}
	e := NewEndpoint("urn:rank-allocs")
	defer e.Close()
	rs := newRouteSet(remote)
	for _, key := range rs.keys {
		e.observeRouteAck(key, 1<<10, 50_000) // every route has a scorer entry, as on a warmed sender
	}
	if got := testing.AllocsPerRun(100, func() {
		var scratch [maxStackRoutes]rankedRoute
		if ranked := e.rankRoutes(local, rs, scratch[:0]); len(ranked) != len(remote) {
			t.Fatalf("ranked %d of %d routes", len(ranked), len(remote))
		}
	}); got > 0 {
		t.Errorf("rankRoutes of %d routes: %.1f allocations, want 0", len(remote), got)
	}
}

// TestRankRoutesMatchesStaticThenScore pins the ranking rule the
// in-place sort must keep: shared private network first, then the
// adaptive score, and among routes the score does not separate, the
// static OrderRoutes order (rate, latency, then resolved order).
func TestRankRoutesMatchesStaticThenScore(t *testing.T) {
	e := NewEndpoint("urn:rank-rule")
	defer e.Close()
	local := []Route{{Transport: "tcp", Addr: "me:1", NetName: "myri"}}
	remote := []Route{
		{Transport: "tcp", Addr: "a:1"},                                 // unknown media: scores as 8 Mbit/s
		{Transport: "tcp", Addr: "b:1", RateBps: 8e6},                   // the same score, better advertised rate
		{Transport: "tcp", Addr: "c:1", RateBps: 100e6},                 // best score outside the private net
		{Transport: "tcp", Addr: "d:1", NetName: "myri"},                // shared net beats any score
		{Transport: "tcp", Addr: "e:1"},                                 // ties with a:1, resolved later
		{Transport: "tcp", Addr: "f:1", NetName: "other", RateBps: 1e9}, // a net we are not on is not shared
	}
	var got []string
	for _, r := range e.rankRoutes(local, newRouteSet(remote), nil) {
		got = append(got, r.Addr)
	}
	want := []string{"d:1", "f:1", "c:1", "b:1", "a:1", "e:1"}
	if !slices.Equal(got, want) {
		t.Fatalf("ranking %v, want %v", got, want)
	}
	// With no observations the ranking is the static policy's.
	var static []string
	for _, r := range OrderRoutes(local, remote) {
		static = append(static, r.Addr)
	}
	if !slices.Equal(static, want) {
		t.Fatalf("OrderRoutes %v, want %v", static, want)
	}
}
