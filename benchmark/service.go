package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"snipe/internal/comm"
	"snipe/internal/naming"
	"snipe/internal/rcds"
	"snipe/internal/service"
)

const (
	svcName     = "bench-echo"
	svcMethod   = "echo"
	svcReplicas = 3
	svcReqLen   = 256
	svcRespLen  = 4 << 10
	// svcReqHeader: op number (8 B), span id of the call or 0 (8 B),
	// caller index (1 B); the rest of the request is seeded noise.
	svcReqHeader = 17
)

// serviceWorkload is two service.Clients calling an echo method on three
// service.Server replicas, each on its own endpoint, over a catalog client
// with the read cache on and nothing writing to the catalog: the wiring
// core.New gives every universe.
type serviceWorkload struct {
	st      *stack
	warm    uint64
	servers []*service.Server
	handled [svcReplicas]atomic.Uint64
	callers []*svcCaller
	resp    sync.Pool // *[svcRespLen]byte, so the handler adds no allocation
	tr      atomic.Pointer[tracer]
}

type svcCaller struct {
	w      *serviceWorkload
	idx    int
	cli    *service.Client
	rng    *rand.Rand
	req    []byte
	n      uint64
	digest uint64
}

func newServiceWorkload(seed uint64, warm uint64) (*serviceWorkload, error) {
	st, err := newStack(2, true)
	if err != nil {
		return nil, err
	}
	w := &serviceWorkload{st: st, warm: warm}
	w.resp.New = func() any { return new([svcRespLen]byte) }
	fail := func(err error) (*serviceWorkload, error) {
		w.close()
		return nil, err
	}
	for i := 0; i < svcReplicas; i++ {
		host := fmt.Sprintf("svc%d", i)
		// A static load figure stands in for the host daemon's heartbeat:
		// the balancer reads it on every call, and nothing rewrites it, so
		// the catalog stays quiescent and the read cache stays warm.
		if err := st.catalog.Set(naming.HostURL(host), rcds.AttrLoad, "0.50"); err != nil {
			return fail(err)
		}
		ep, err := st.endpoint(naming.ProcessURN(host, svcName), 1)
		if err != nil {
			return fail(err)
		}
		srv, err := service.NewServer(service.ServerConfig{Name: svcName, Catalog: st.catalog, Endpoint: ep})
		if err != nil {
			return fail(err)
		}
		w.servers = append(w.servers, srv)
		replica := i
		srv.Handle(svcMethod, func(ctx context.Context, s *comm.Stream) error {
			return w.handle(ctx, s, replica)
		})
	}
	for i := 0; i < 2; i++ {
		ep, err := st.endpoint(naming.ProcessURN(fmt.Sprintf("cli%d", i), "caller"), 1)
		if err != nil {
			return fail(err)
		}
		cli, err := service.NewClient(service.ClientConfig{Service: svcName, Catalog: st.catalog, Endpoint: ep})
		if err != nil {
			return fail(err)
		}
		w.callers = append(w.callers, &svcCaller{
			w: w, idx: i, cli: cli, rng: clientRNG(seed, i), req: make([]byte, svcReqLen),
		})
	}
	return w, nil
}

// handle is the echo method: it reads the request to EOF and answers
// svcRespLen bytes that start with the request's checksum, which is what
// the caller verifies.
func (w *serviceWorkload) handle(ctx context.Context, s *comm.Stream, replica int) error {
	start := time.Now()
	w.handled[replica].Add(1)
	var sum uint32
	var hdr [svcReqHeader]byte
	got := 0
	for {
		chunk, err := s.Read(ctx)
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		if got < svcReqHeader {
			got += copy(hdr[got:], chunk)
		}
		sum = crc32.Update(sum, castagnoli, chunk)
	}
	buf := w.resp.Get().(*[svcRespLen]byte)
	defer w.resp.Put(buf)
	binary.BigEndian.PutUint32(buf[0:4], sum)
	if err := s.Write(ctx, buf[:]); err != nil {
		return err
	}
	if parent := binary.BigEndian.Uint64(hdr[8:16]); parent != 0 && got == svcReqHeader {
		if tr := w.tr.Load(); tr != nil {
			tr.record("service.handler", tr.newID(), parent,
				binary.BigEndian.Uint64(hdr[0:8]), int(hdr[16]), start, time.Now())
		}
	}
	return nil
}

func (w *serviceWorkload) clients() []opFunc {
	ops := make([]opFunc, len(w.callers))
	for i, c := range w.callers {
		ops[i] = c.op
	}
	return ops
}

func (c *svcCaller) op(ctx context.Context) error {
	c.n++
	tr := c.w.tr.Load()
	var root uint64
	var t0 time.Time
	if tr.sampled(c.n) {
		root, t0 = tr.newID(), time.Now()
	}
	c.rng.Read(c.req[svcReqHeader:])
	binary.BigEndian.PutUint64(c.req[0:8], c.n)
	binary.BigEndian.PutUint64(c.req[8:16], root)
	c.req[16] = byte(c.idx)
	sum := crc32.Checksum(c.req, castagnoli)
	c.digest = fold(c.digest, uint64(crc32.Checksum(c.req[svcReqHeader:], castagnoli)))

	resp, err := c.cli.Call(ctx, svcMethod, c.req)
	if err != nil {
		return err
	}
	if root != 0 {
		tr.record("service.call", root, 0, c.n, c.idx, t0, time.Now())
	}
	if len(resp) != svcRespLen || binary.BigEndian.Uint32(resp[0:4]) != sum {
		return fmt.Errorf("call %d of caller %d: wrong answer (%d bytes)", c.n, c.idx, len(resp))
	}
	return nil
}

func (w *serviceWorkload) warmupOps() uint64    { return w.warm }
func (w *serviceWorkload) setTracer(tr *tracer) { w.tr.Store(tr) }
func (w *serviceWorkload) settle()              {}

func (w *serviceWorkload) counters() map[string]uint64 {
	out := endpointCounters(w.st.eps)
	cat := w.st.client.MetricsSnapshot().Counters
	out["cat.reads"] = cat["cache_hits"] + cat["cache_misses"]
	for i := range w.handled {
		n := w.handled[i].Load()
		out[fmt.Sprintf("handled.%d", i)] = n
		out["handled"] += n
	}
	return out
}

func (w *serviceWorkload) layerMetrics(out map[string]float64, d func(string) float64, r *region) {
	endpointLayerMetrics(out, d, r, svcReqLen+svcRespLen)
	calls := float64(r.completed)
	out["comm.stream.msgs_per_call"] = ratio(d("ep.sent"), calls)
	out["service.attempts_per_call"] = ratio(d("handled"), calls)
	out["service.catalog_reads_per_call"] = ratio(d("cat.reads"), calls)
	// The busiest replica's calls over an even share: 1 when the balancer
	// spreads calls evenly, svcReplicas when one replica takes them all. (A
	// max/min ratio has no value when a replica sits idle, which the
	// latency-driven balancer allows.)
	var busiest float64
	for i := 0; i < svcReplicas; i++ {
		busiest = max(busiest, d(fmt.Sprintf("handled.%d", i)))
	}
	out["service.replica_spread"] = ratio(busiest*svcReplicas, d("handled"))
}

// verify has nothing to add: every call's answer was checked when it
// returned.
func (w *serviceWorkload) verify(context.Context) (uint64, error) { return 0, nil }

func (w *serviceWorkload) inputDigest() uint64 {
	var d uint64
	for _, c := range w.callers {
		d = fold(d, c.digest)
	}
	return d
}

func (w *serviceWorkload) close() {
	for _, c := range w.callers {
		c.cli.Close()
	}
	for _, srv := range w.servers {
		srv.Close()
	}
	w.st.close()
}
