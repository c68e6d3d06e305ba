package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"syscall"
	"time"

	"snipe/internal/comm"
	"snipe/internal/naming"
	"snipe/internal/rcds"
	"snipe/internal/xdr"
)

// The ladder phase of a traced run times each layer's public API on its
// own, bottom to top, with one caller on a quiet fixture. A rung's self
// time is its median minus the median of the rung below it, so the rungs
// of a ladder add up to the top one by construction.
//
// The rungs are measured in many short interleaved rounds rather than one
// after the other: the host's speed drifts within a second, and a
// difference of two medians is only meaningful when both saw the same
// drift.

const (
	ladderRounds = 16
	ladderKeys   = 2000
	// inversionSlack is how much cheaper than the rung below it a rung may
	// measure before the traced run fails. Rungs a few microseconds apart
	// still invert now and then on a drifting host; a real inversion (the
	// upper layer no longer calls the lower one) is far outside it.
	inversionSlack = 0.2
)

// rung is one timed operation on one fixture.
type rung struct {
	name  string
	n     int // samples over all rounds
	batch int // calls per sample, for operations shorter than the clock's grain
	op    func(i int) error
	begin func() // runs before each round, e.g. to attach a tracer

	h       hist // per-sample wall time in ns (of a whole batch)
	calls   uint64
	mallocs uint64
	bytes   uint64
	syscall uint64
}

func (r *rung) round() error {
	if r.begin != nil {
		r.begin()
	}
	awaitIdle()
	before, err := readCounters()
	if err != nil {
		return err
	}
	for s := 0; s < r.n/ladderRounds; s++ {
		t0 := time.Now()
		for b := 0; b < r.batch; b++ {
			if err := r.op(int(r.calls)); err != nil {
				return fmt.Errorf("ladder rung %s: %w", r.name, err)
			}
			r.calls++
		}
		r.h.record(time.Since(t0))
	}
	after, err := readCounters()
	if err != nil {
		return err
	}
	r.mallocs += after.mallocs - before.mallocs
	r.bytes += after.allocBytes - before.allocBytes
	r.syscall += after.syscalls - before.syscalls
	return nil
}

// awaitIdle returns once the process has stopped burning CPU: work a
// previous rung left behind (replication pushes still draining, handlers
// still running) would otherwise be charged to the next one. It gives up
// after half a second; periodic background work never stops entirely.
func awaitIdle() {
	const slice = time.Millisecond
	var ru syscall.Rusage
	cpu := func() time.Duration {
		_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
		return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	for i := 0; i < 500; i++ {
		before := cpu()
		time.Sleep(slice)
		if cpu()-before < slice/10 {
			return
		}
	}
}

// p50ns is the median time of one call.
func (r *rung) p50ns() float64 { return r.h.quantile(0.5) / float64(r.batch) }
func (r *rung) p50us() float64 { return r.p50ns() / 1e3 }

func (r *rung) perCall(total uint64) float64 { return float64(total) / float64(r.calls) }

// ladder owns the fixtures the rungs run on.
type ladder struct {
	ctx     context.Context
	rungs   []*rung
	closers []func()
	tr      *tracer // every op sampled; spans join the run's trace file
}

func (l *ladder) add(name string, n, batch int, op func(i int) error) *rung {
	r := &rung{name: name, n: n, batch: batch, op: op}
	l.rungs = append(l.rungs, r)
	return r
}

// plain adds a rung that runs a workload client's op with span recording
// off: its median and its counts are the layer's figures.
func (l *ladder) plain(name string, n int, w workload, op opFunc) *rung {
	r := l.add(name, n, 1, func(int) error { return op(l.ctx) })
	r.begin = func() { w.setTracer(nil) }
	return r
}

// traced adds a rung that runs the same op with every op sampled. Only
// the spans it leaves in the trace are used; its own timing includes the
// recording.
func (l *ladder) traced(name string, n int, w workload, op opFunc) {
	r := l.add(name+".traced", n, 1, func(int) error { return op(l.ctx) })
	r.begin = func() { w.setTracer(l.tr) }
}

func (l *ladder) close() {
	for i := len(l.closers) - 1; i >= 0; i-- {
		l.closers[i]()
	}
}

// runLadder measures every rung and adds the layers' time and allocation
// metrics to out. A rung that comes out cheaper than the one it stands on
// is reported as a problem: the ladder no longer adds up.
func runLadder(ctx context.Context, seed uint64, out *outcome) error {
	l := &ladder{ctx: ctx, tr: out.tracer}
	defer l.close()
	l.tr.every = 1

	xdrEnc, xdrDec := l.xdrRungs()
	rtt, rtt256k, dial, err := l.transportRungs()
	if err != nil {
		return err
	}
	small, first, err := l.endpointRungs(seed)
	if err != nil {
		return err
	}
	bulk, err := l.stripeRung(seed)
	if err != nil {
		return err
	}
	echo, err := l.streamRung()
	if err != nil {
		return err
	}
	call, err := l.serviceRungs(seed)
	if err != nil {
		return err
	}
	cold, warm, register, err := l.namingRungs()
	if err != nil {
		return err
	}
	storeSet, storeGet := l.storeRungs()
	rpcSet, rpcGet, cacheHit, err := l.rpcRungs()
	if err != nil {
		return err
	}
	replSet, hitRatio, err := l.replRungs(seed)
	if err != nil {
		return err
	}

	for round := 0; round < ladderRounds; round++ {
		for _, r := range l.rungs {
			if err := r.round(); err != nil {
				return err
			}
		}
	}
	ratioMix, err := hitRatio()
	if err != nil {
		return err
	}

	v := out.values
	v["xdr.encode_ns"] = xdrEnc.p50ns()
	v["xdr.decode_ns"] = xdrDec.p50ns()
	v["xdr.allocs"] = xdrEnc.perCall(xdrEnc.mallocs) + xdrDec.perCall(xdrDec.mallocs)

	v["comm.transport.rtt_us"] = rtt.p50us()
	v["comm.transport.rtt_256k_us"] = rtt256k.p50us()
	v["comm.transport.allocs"] = rtt.perCall(rtt.mallocs)
	v["comm.transport.syscalls"] = rtt.perCall(rtt.syscall)
	v["comm.transport.dial_us"] = dial.p50us()

	v["comm.endpoint.sendwait_us"] = small.p50us()
	v["comm.endpoint.self_us"] = small.p50us() - rtt.p50us()
	v["comm.endpoint.self_allocs"] = small.perCall(small.mallocs) - rtt.perCall(rtt.mallocs)
	v["comm.endpoint.deliver_us"] = l.tr.durations("comm.endpoint.deliver").quantile(0.5) / 1e3
	v["comm.endpoint.ack_return_us"] = l.tr.durations("comm.endpoint.ack_return").quantile(0.5) / 1e3
	v["comm.endpoint.first_send_us"] = first.p50us()
	v["comm.stripe.self_us"] = bulk.p50us() - rtt256k.p50us()

	v["comm.stream.echo_us"] = echo.p50us()
	v["comm.stream.allocs"] = echo.perCall(echo.mallocs)
	v["service.call_us"] = call.p50us()
	v["service.self_us"] = call.p50us() - echo.p50us()
	v["service.handler_us"] = l.tr.durations("service.handler").quantile(0.5) / 1e3

	v["naming.resolve_cold_us"] = cold.p50us()
	v["naming.resolve_warm_ns"] = warm.p50ns()
	v["naming.register_us"] = register.p50us()

	v["rcds.store.set_ns"] = storeSet.p50ns()
	v["rcds.store.get_ns"] = storeGet.p50ns()
	v["rcds.store.set_allocs"] = storeSet.perCall(storeSet.mallocs)
	v["rcds.store.get_alloc_bytes"] = storeGet.perCall(storeGet.bytes)
	v["rcds.rpc.set_us"] = rpcSet.p50us()
	v["rcds.rpc.get_us"] = rpcGet.p50us()
	v["rcds.rpc.self_set_us"] = rpcSet.p50us() - storeSet.p50us()
	v["rcds.rpc.self_get_us"] = rpcGet.p50us() - storeGet.p50us()
	v["rcds.rpc.set_allocs"] = rpcSet.perCall(rpcSet.mallocs)
	v["rcds.rpc.get_allocs"] = rpcGet.perCall(rpcGet.mallocs)
	v["rcds.rpc.syscalls_per_op"] = float64(rpcSet.syscall+rpcGet.syscall) / float64(rpcSet.calls+rpcGet.calls)
	v["rcds.repl.set_us"] = replSet.p50us()
	v["rcds.repl.self_us"] = replSet.p50us() - rpcSet.p50us()
	v["rcds.repl.visible_us"] = l.tr.durations("rcds.repl.visible").quantile(0.5) / 1e3
	v["rcds.watch.wake_us"] = l.tr.durations("rcds.watch.wake").quantile(0.5) / 1e3
	v["rcds.cache.hit_ns"] = cacheHit.p50ns()
	v["rcds.cache.hit_ratio_mix"] = ratioMix

	// Each pair is (rung, the rung it stands on).
	for _, pair := range [][2]*rung{
		{small, rtt}, {bulk, rtt256k}, {echo, small}, {call, echo},
		{rpcSet, storeSet}, {rpcGet, storeGet}, {replSet, rpcSet},
	} {
		up, down := pair[0].p50ns(), pair[1].p50ns()
		if up >= down {
			continue
		}
		msg := fmt.Sprintf("ladder inverted: %s (%.1f us) is cheaper than %s (%.1f us) below it",
			pair[0].name, up/1e3, pair[1].name, down/1e3)
		if up < down*(1-inversionSlack) {
			out.problems = append(out.problems, msg)
		} else {
			fmt.Fprintf(os.Stderr, "benchmark: warning: %s (within drift)\n", msg)
		}
	}
	return nil
}

// --- xdr ------------------------------------------------------------------

// xdrRungs encode and decode a record shaped like a comm message header:
// two URNs, a u32, a u64 and a 64 B opaque.
func (l *ladder) xdrRungs() (enc, dec *rung) {
	src := naming.ProcessURN("bench-src0", "sender")
	dst := naming.ProcessURN("bench-sink", "sink")
	body := make([]byte, smallMsg)
	e := xdr.NewEncoder(256)
	encode := func() {
		e.Reset()
		e.PutString(src)
		e.PutString(dst)
		e.PutUint32(msgTag)
		e.PutUint64(42)
		e.PutBytes(body)
	}
	enc = l.add("xdr.encode", 640, 256, func(int) error { encode(); return nil })
	encode()
	wire := append([]byte(nil), e.Bytes()...)
	dec = l.add("xdr.decode", 640, 256, func(int) error {
		d := xdr.NewDecoder(wire)
		if _, err := d.StringMax(256); err != nil {
			return err
		}
		if _, err := d.StringMax(256); err != nil {
			return err
		}
		if _, err := d.Uint32(); err != nil {
			return err
		}
		if _, err := d.Uint64(); err != nil {
			return err
		}
		_, err := d.BytesMax(256)
		return err
	})
	return enc, dec
}

// --- comm.transport -------------------------------------------------------

// transportRungs time a raw TCPTransport FrameConn against an echo peer: a
// 64 B frame there and back; 256 KiB there as MTU-sized frames, the way
// the endpoint fragments it, and 64 B back; and a dial.
func (l *ladder) transportRungs() (rtt, rtt256k, dial *rung, err error) {
	tr := comm.TCPTransport{}
	ln, err := tr.Listen("127.0.0.1:0")
	if err != nil {
		return nil, nil, nil, err
	}
	// The accept loop and its per-connection echo loops end when the
	// listener and the connections are closed, which l.close does; the
	// WaitGroup makes close wait for them.
	var wg sync.WaitGroup
	var mu sync.Mutex
	var accepted []comm.FrameConn
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			accepted = append(accepted, conn)
			mu.Unlock()
			wg.Add(1)
			go func() {
				defer wg.Done()
				echoFrames(conn)
			}()
		}
	}()
	conn, err := tr.Dial(ln.Addr())
	if err != nil {
		ln.Close()
		wg.Wait()
		return nil, nil, nil, err
	}
	l.closers = append(l.closers, func() {
		ln.Close()
		conn.Close()
		mu.Lock()
		for _, c := range accepted {
			c.Close()
		}
		mu.Unlock()
		wg.Wait()
	})

	small := make([]byte, smallMsg)
	small[0] = 1 // last frame of a message: the peer answers
	exchange := func(frames ...[]byte) error {
		for _, f := range frames {
			if err := conn.Send(f); err != nil {
				return err
			}
		}
		_, err := conn.Recv()
		return err
	}
	rtt = l.add("comm.transport.rtt", 1600, 1, func(int) error { return exchange(small) })

	var frames [][]byte
	for left := bulkMsg; left > 0; left -= conn.MTU() {
		frames = append(frames, make([]byte, min(left, conn.MTU())))
	}
	frames[len(frames)-1][0] = 1
	rtt256k = l.add("comm.transport.rtt_256k", 320, 1, func(int) error { return exchange(frames...) })

	dial = l.add("comm.transport.dial", 208, 1, func(int) error {
		c, err := tr.Dial(ln.Addr())
		if err != nil {
			return err
		}
		return c.Close()
	})
	return rtt, rtt256k, dial, nil
}

// echoFrames answers every frame whose first byte is 1 with a 64 B frame,
// until the connection closes.
func echoFrames(conn comm.FrameConn) {
	reply := make([]byte, smallMsg)
	for {
		frame, err := conn.Recv()
		if err != nil {
			return
		}
		if len(frame) > 0 && frame[0] == 1 {
			if conn.Send(reply) != nil {
				return
			}
		}
	}
}

// --- comm.endpoint, comm.stripe -------------------------------------------

// endpointRungs run one sender of the small-message workload on its own:
// plain, for the median and the allocations of SendWait; traced, for the
// deliver/ack split; and from a fresh endpoint each time, which pays
// resolve, dial and first send.
func (l *ladder) endpointRungs(seed uint64) (sendwait, first *rung, err error) {
	w, err := newMsgWorkload(seed, smallMsg, 0)
	if err != nil {
		return nil, nil, err
	}
	l.closers = append(l.closers, w.close)
	sendwait = l.plain("comm.endpoint.sendwait", 1600, w, w.senders[0].op)
	l.traced("comm.endpoint.sendwait", 800, w, w.senders[0].op)

	payload := make([]byte, smallMsg)
	first = l.add("comm.endpoint.first_send", 208, 1, func(i int) error {
		ep := comm.NewEndpoint(naming.ProcessURN("bench-cold", fmt.Sprint(i)),
			comm.WithResolver(naming.NewResolver(w.st.catalog)))
		defer ep.Close()
		return ep.SendWait(l.ctx, w.sinkURN, msgTag+1, payload)
	})
	first.begin = func() { w.setTracer(nil) }
	return sendwait, first, nil
}

// stripeRung is one sender of the bulk workload: a 256 KiB SendWait striped
// over the sink's two routes.
func (l *ladder) stripeRung(seed uint64) (*rung, error) {
	w, err := newMsgWorkload(seed, bulkMsg, 0)
	if err != nil {
		return nil, err
	}
	l.closers = append(l.closers, w.close)
	return l.plain("comm.stripe.sendwait_256k", 320, w, w.senders[0].op), nil
}

// --- comm.stream ----------------------------------------------------------

// streamRung opens a stream on a bare mux, writes the service workload's
// request, half-closes and reads the response to EOF: what service.Call
// does once it has picked a replica.
func (l *ladder) streamRung() (*rung, error) {
	st, err := newStack(2, true)
	if err != nil {
		return nil, err
	}
	l.closers = append(l.closers, st.close)
	srvURN := naming.ProcessURN("bench-stream", "server")
	srvEP, err := st.endpoint(srvURN, 1)
	if err != nil {
		return nil, err
	}
	cliEP, err := st.endpoint(naming.ProcessURN("bench-stream", "client"), 1)
	if err != nil {
		return nil, err
	}
	srvMux, cliMux := comm.NewStreamMux(srvEP), comm.NewStreamMux(cliEP)
	// The accept loop ends when its mux closes; close waits for it.
	done := make(chan struct{})
	go func() {
		defer close(done)
		resp := make([]byte, svcRespLen)
		for {
			s, err := srvMux.Accept(l.ctx)
			if err != nil {
				return
			}
			if readToEOF(l.ctx, s, nil) != nil || s.Write(l.ctx, resp) != nil {
				s.Reset("echo failed")
				continue
			}
			s.CloseWrite()
		}
	}()
	l.closers = append(l.closers, func() {
		cliMux.Close()
		srvMux.Close()
		<-done
	})
	req := make([]byte, svcReqLen)
	return l.add("comm.stream.echo", 640, 1, func(int) error {
		s, err := cliMux.Open(l.ctx, srvURN, svcMethod)
		if err != nil {
			return err
		}
		if err := s.Write(l.ctx, req); err != nil {
			return err
		}
		if err := s.CloseWrite(); err != nil {
			return err
		}
		var got int
		if err := readToEOF(l.ctx, s, &got); err != nil {
			return err
		}
		if got != svcRespLen {
			return fmt.Errorf("stream echo answered %d bytes", got)
		}
		return nil
	}), nil
}

// readToEOF drains a stream, adding the bytes read to *n when n is set.
func readToEOF(ctx context.Context, s *comm.Stream, n *int) error {
	for {
		chunk, err := s.Read(ctx)
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
		if n != nil {
			*n += len(chunk)
		}
	}
}

// --- service --------------------------------------------------------------

// serviceRungs run one caller of the service workload, plain for the
// call's median and traced for the handler spans.
func (l *ladder) serviceRungs(seed uint64) (*rung, error) {
	w, err := newServiceWorkload(seed, 0)
	if err != nil {
		return nil, err
	}
	l.closers = append(l.closers, w.close)
	l.traced("service.call", 320, w, w.callers[0].op)
	return l.plain("service.call", 640, w, w.callers[0].op), nil
}

// --- naming ---------------------------------------------------------------

// namingRungs resolve one registered URN through a resolver with its TTL
// cache off (every call is a catalog round trip) and on, and register
// fresh URNs. The catalog client is uncached so the cold path is the RPC.
func (l *ladder) namingRungs() (cold, warm, register *rung, err error) {
	st, err := newStack(2, false)
	if err != nil {
		return nil, nil, nil, err
	}
	l.closers = append(l.closers, st.close)
	urn := naming.ProcessURN("bench-naming", "target")
	route := comm.Route{Transport: "tcp", Addr: "127.0.0.1:9"}
	if err := naming.Register(st.catalog, urn, []comm.Route{route}); err != nil {
		return nil, nil, nil, err
	}
	coldRes, warmRes := naming.NewResolver(st.catalog), naming.NewResolver(st.catalog)
	coldRes.SetTTL(0)
	resolve := func(r *naming.Resolver) func(int) error {
		return func(int) error {
			routes, err := r.Resolve(urn)
			if err == nil && len(routes) != 1 {
				err = fmt.Errorf("resolved %d routes", len(routes))
			}
			return err
		}
	}
	cold = l.add("naming.resolve_cold", 640, 1, resolve(coldRes))
	warm = l.add("naming.resolve_warm", 640, 256, resolve(warmRes))
	register = l.add("naming.register", 640, 1, func(i int) error {
		return naming.Register(st.catalog, naming.ProcessURN("bench-naming", fmt.Sprint(i)), []comm.Route{route})
	})
	return cold, warm, register, nil
}

// --- rcds -----------------------------------------------------------------

func ladderKey(i int) (uri string, value string) {
	return keyURN(i % ladderKeys), stateValues[(i/ladderKeys)%2]
}

// storeRungs call the Store directly, no wire.
func (l *ladder) storeRungs() (set, get *rung) {
	store := rcds.NewStore("ladder")
	for i := 0; i < ladderKeys; i++ {
		store.Set(keyURN(i), rcds.AttrState, stateValues[1])
	}
	set = l.add("rcds.store.set", 640, 64, func(i int) error {
		uri, v := ladderKey(i)
		store.Set(uri, rcds.AttrState, v)
		return nil
	})
	get = l.add("rcds.store.get", 640, 64, func(i int) error {
		uri, _ := ladderKey(i)
		if len(store.Get(uri)) != 1 {
			return fmt.Errorf("store lost %s", uri)
		}
		return nil
	})
	return set, get
}

// rpcRungs put one server with no peers and an uncached client around the
// same operations, and time a read-cache hit on a second, cached client
// while nothing writes.
func (l *ladder) rpcRungs() (set, get, cacheHit *rung, err error) {
	st, err := newStack(1, false)
	if err != nil {
		return nil, nil, nil, err
	}
	l.closers = append(l.closers, st.close)
	for i := 0; i < ladderKeys; i++ {
		st.servers[0].Store().Set(keyURN(i), rcds.AttrState, stateValues[1])
	}
	set = l.add("rcds.rpc.set", 960, 1, func(i int) error {
		uri, v := ladderKey(i)
		return st.client.Set(l.ctx, uri, rcds.AttrState, v)
	})
	get = l.add("rcds.rpc.get", 960, 1, func(i int) error {
		uri, _ := ladderKey(i)
		as, err := st.client.Get(l.ctx, uri)
		if err == nil && len(as) != 1 {
			err = fmt.Errorf("rpc get of %s returned %d assertions", uri, len(as))
		}
		return err
	})

	quiet, err := newStack(1, true)
	if err != nil {
		return nil, nil, nil, err
	}
	l.closers = append(l.closers, quiet.close)
	if err := quiet.client.Set(l.ctx, keyURN(0), rcds.AttrState, stateValues[0]); err != nil {
		return nil, nil, nil, err
	}
	cacheHit = l.add("rcds.cache.hit", 640, 256, func(int) error {
		v, ok, err := quiet.client.FirstValue(l.ctx, keyURN(0), rcds.AttrState)
		if err == nil && (!ok || v != stateValues[0]) {
			err = fmt.Errorf("cached read returned %q, %v", v, ok)
		}
		return err
	})
	return set, get, cacheHit, nil
}

// replRungs use a small catalog workload: a Set on its 2-replica group
// (the RPC rung plus replication), and its client 0 fully traced, whose
// watched writes yield the watch-wake and replication-visible spans.
// hitRatio, called after the rounds, runs both clients of the mix beside
// one reader with the read cache on and returns the reader's hit ratio.
func (l *ladder) replRungs(seed uint64) (set *rung, hitRatio func() (float64, error), err error) {
	w, err := newCatalogWorkload(seed, ladderKeys, 0)
	if err != nil {
		return nil, nil, err
	}
	l.closers = append(l.closers, w.close)
	direct := w.st.client // uncached, on replica 0, writing keys of its own
	set = l.add("rcds.repl.set", 960, 1, func(i int) error {
		return direct.Set(l.ctx, naming.ProcessURN("bench-repl", fmt.Sprint(i%ladderKeys)),
			rcds.AttrState, stateValues[(i/ladderKeys)%2])
	})
	set.begin = func() { w.setTracer(nil) }
	// 128 watched Sets: one op in two is a Set, one Set in watchedEvery is
	// watched.
	l.traced("rcds.mix", 2*watchedEvery*128, w, w.clis[0].op)

	hitRatio = func() (float64, error) {
		w.setTracer(nil)
		reader := w.st.newClient(true)
		defer reader.Close()
		var i int
		read := func(ctx context.Context) error {
			i++
			_, err := reader.Get(ctx, keyURN(i%ladderKeys))
			return err
		}
		before := reader.MetricsSnapshot().Counters
		r, err := runLoop(l.ctx, append(w.clients(), read), loopSpec{fixedOps: 3000})
		if err != nil {
			return 0, err
		}
		if r.failed > 0 {
			return 0, fmt.Errorf("cache-beside-mix phase: %d failed ops", r.failed)
		}
		after := reader.MetricsSnapshot().Counters
		hits := float64(after["cache_hits"] - before["cache_hits"])
		return ratio(hits, hits+float64(after["cache_misses"]-before["cache_misses"])), nil
	}
	return set, hitRatio, nil
}
