package main

import (
	"context"
	"fmt"
	"runtime"
	"time"
)

// processStart is taken at package initialisation, before main: the first
// set-up of a run is timed from here, so it includes what the Go runtime
// and the packages under test do before main.
var processStart = time.Now()

const (
	// setups is how many times an untraced run builds the fixture; setup_s
	// is the median of them.
	setups = 3
	// runLimit bounds a whole run; a hung operation fails at this deadline
	// instead of hanging the caller.
	runLimit = 170 * time.Second
)

// runConfig is one benchmark invocation.
type runConfig struct {
	info    workloadInfo
	seed    uint64
	seconds int
	trace   bool
}

// outcome is what a run hands back for printing.
type outcome struct {
	attempted uint64
	failed    uint64
	values    map[string]float64
	digest    uint64
	problems  []string  // verification failures beyond failed ops
	timed     *region   // the untraced timed region, for the printout
	setups    []float64 // seconds each set-up of a gated run took
	tracer    *tracer
}

// liveHeap is HeapAlloc once the heap has settled. One reading is two
// collections, the second of which empties the sync.Pool victim caches,
// whose occupancy depends on which goroutine ran last rather than on the
// program. Readings repeat, 25 ms apart, until one is no longer smaller
// than the one before: just after traffic stops a few hundred KB are still
// held by streams being reaped, stopped timers and pending finalizers, and
// how much depends on where the clients happened to stop.
func liveHeap() uint64 {
	read := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	heap := read()
	for i := 0; i < 8; i++ {
		time.Sleep(25 * time.Millisecond)
		next := read()
		if next+next/100 >= heap {
			return min(heap, next)
		}
		heap = next
	}
	return heap
}

// setUp builds the workload's fixture, runs the fixed-count warm-up and
// collects garbage, so the first timed op starts from a settled heap.
func setUp(ctx context.Context, cfg runConfig, out *outcome) (workload, error) {
	w, err := cfg.info.build(cfg.seed)
	if err != nil {
		return nil, fmt.Errorf("building %s: %w", cfg.info.name, err)
	}
	warm, err := runLoop(ctx, w.clients(), loopSpec{fixedOps: w.warmupOps()})
	if err != nil {
		w.close()
		return nil, err
	}
	out.attempted += warm.attempted()
	out.failed += warm.failed
	runtime.GC()
	return w, nil
}

// finish runs the workload's end-of-run checks and tears it down.
func finish(ctx context.Context, w workload, out *outcome) {
	wrong, err := w.verify(ctx)
	out.failed += wrong
	if err != nil {
		out.problems = append(out.problems, err.Error())
	}
	out.digest = w.inputDigest()
	w.close()
}

// slices is the length of the timed region in slices.
func (cfg runConfig) slices() int {
	return int(time.Duration(cfg.seconds) * time.Second / sliceLen)
}

// runGated is an untraced run: the end-to-end metrics, and beside them
// (printed, not gated) the throughput and latency of the best stretch.
func runGated(cfg runConfig) (*outcome, error) {
	ctx, cancel := context.WithTimeout(context.Background(), runLimit)
	defer cancel()
	out := &outcome{values: make(map[string]float64)}

	var w workload
	setupSecs := make([]float64, 0, setups)
	for i := 0; i < setups; i++ {
		start := time.Now()
		if i == 0 {
			start = processStart
		}
		var err error
		if w, err = setUp(ctx, cfg, out); err != nil {
			return nil, err
		}
		setupSecs = append(setupSecs, time.Since(start).Seconds())
		if i < setups-1 {
			finish(ctx, w, out)
		}
	}

	r, err := runLoop(ctx, w.clients(), loopSpec{slices: cfg.slices()})
	if err != nil {
		w.close()
		return nil, err
	}
	out.attempted += r.attempted()
	out.failed += r.failed
	w.settle()
	heap := liveHeap()
	finish(ctx, w, out)

	out.timed = r
	out.setups = append([]float64(nil), setupSecs...)
	v := out.values
	v["setup_s"] = median(setupSecs)
	v["ops_per_s"] = r.quietRate
	v["op_p50_us"] = r.quietP50us
	v["allocs_per_op"] = r.perOp(r.after.mallocs - r.before.mallocs)
	v["alloc_bytes_per_op"] = r.perOp(r.after.allocBytes - r.before.allocBytes)
	v["io_syscalls_per_op"] = r.perOp(r.after.syscalls - r.before.syscalls)
	v["wire_bytes_per_op"] = r.perOp(r.after.wireBytes - r.before.wireBytes)
	v["live_heap_mb"] = float64(heap) / (1 << 20)
	benchMetrics(v, r)
	return out, nil
}

// benchMetrics describes the run itself: whether the one P was busy (so a
// throughput drop is a cost rise), how even the windows were, and what the
// collector did.
func benchMetrics(v map[string]float64, r *region) {
	wall := r.wall().Seconds()
	cpu := (r.after.cpu - r.before.cpu).Seconds()
	v["bench.op_p99_us"] = r.all.quantile(0.99) / 1e3
	v["bench.op_p99_beyond"] = float64(r.all.beyond(0.99))
	v["bench.ops_per_s_mean"] = float64(r.completed) / wall
	v["bench.slice_spread"] = rateSpread(r.slices)
	v["bench.cpu_busy_ratio"] = cpu / wall
	v["bench.cpu_us_per_op"] = r.perOp(uint64(cpu * 1e6))
	v["bench.gc_cycles_per_s"] = float64(r.after.gcCycles-r.before.gcCycles) / wall
	v["bench.gc_pause_ms"] = float64(r.after.gcPause-r.before.gcPause) / 1e6
	v["bench.ctx_switches_per_op"] = r.perOp(r.after.ctxSwitches - r.before.ctxSwitches)
}

// runTraced is a traced run: the first half of the timed region untraced,
// as the gated run measures it, then the second half with observers
// attached and one op in 64 recording spans, then the ladder phase.
func runTraced(cfg runConfig) (*outcome, error) {
	ctx, cancel := context.WithTimeout(context.Background(), runLimit)
	defer cancel()
	out := &outcome{values: make(map[string]float64), tracer: newTracer(sampleEvery)}
	// A traced run of a workload that never enters a layer reports that
	// layer's per-op counts as 0.
	for _, d := range perLayer {
		out.values[d.name] = 0
	}

	w, err := setUp(ctx, cfg, out)
	if err != nil {
		return nil, err
	}
	half := cfg.slices() / 2
	plain, err := runLoop(ctx, w.clients(), loopSpec{slices: half})
	if err != nil {
		w.close()
		return nil, err
	}
	w.setTracer(out.tracer)
	before := w.counters()
	traced, err := runLoop(ctx, w.clients(), loopSpec{slices: cfg.slices() - half})
	if err != nil {
		w.close()
		return nil, err
	}
	after := w.counters()
	w.setTracer(nil)
	for _, r := range []*region{plain, traced} {
		out.attempted += r.attempted()
		out.failed += r.failed
	}
	delta := func(name string) float64 { return float64(after[name] - before[name]) }
	w.layerMetrics(out.values, delta, traced)
	finish(ctx, w, out)

	out.timed = plain
	out.values["ops_per_s"] = plain.quietRate
	out.values["op_p50_us"] = plain.quietP50us
	benchMetrics(out.values, plain)
	out.values["bench.trace_overhead_ratio"] = ratio(traced.quietRate, plain.quietRate)

	if err := runLadder(ctx, cfg.seed, out); err != nil {
		return nil, err
	}
	return out, nil
}
