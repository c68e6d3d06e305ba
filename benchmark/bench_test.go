package main

import (
	"bufio"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

func TestMain(m *testing.M) {
	runtime.GOMAXPROCS(1) // as main does
	os.Exit(m.Run())
}

func TestHistBucketsTile(t *testing.T) {
	// Every value lands in a bucket whose bounds contain it, and bucket
	// indices never decrease as values grow.
	prev := 0
	for _, ns := range []uint64{0, 1, 63, 64, 65, 127, 128, 129, 1000, 4095, 4096, 1e6, 1e9, histMax, histMax + 5} {
		idx := bucketOf(ns)
		if idx < prev || idx >= histBuckets {
			t.Fatalf("bucketOf(%d) = %d after %d (of %d buckets)", ns, idx, prev, histBuckets)
		}
		prev = idx
		lo, width := bucketBounds(idx)
		if v := min(ns, histMax); v < lo || v >= lo+width {
			t.Errorf("value %d in bucket %d = [%d, %d)", ns, idx, lo, lo+width)
		}
		if width > 1 && float64(width)/float64(lo) > 1.0/histSub {
			t.Errorf("bucket %d is %d wide at %d: coarser than 1/%d", idx, width, lo, histSub)
		}
	}
}

func TestHistQuantiles(t *testing.T) {
	var h hist
	const n = 100000
	for i := 1; i <= n; i++ {
		h.record(time.Duration(i) * 100) // uniform over 100 ns .. 10 ms
	}
	for _, q := range []float64{0.01, 0.5, 0.9, 0.99} {
		want := q * n * 100
		if got := h.quantile(q); math.Abs(got-want)/want > 0.01 {
			t.Errorf("quantile(%v) = %.0f, want %.0f within 1%%", q, got, want)
		}
	}
	if got := h.beyond(0.99); got != n/100 {
		t.Errorf("beyond(0.99) = %d, want %d", got, n/100)
	}
	var empty hist
	if empty.quantile(0.5) != 0 {
		t.Error("quantile of an empty histogram is not 0")
	}
	var a, b hist
	a.record(10)
	b.record(1000)
	a.merge(&b)
	if a.n != 2 || a.quantile(1) < 1000 {
		t.Errorf("merge lost samples: n=%d max=%v", a.n, a.quantile(1))
	}
}

func TestQuietStretchEstimator(t *testing.T) {
	// Forty slices at 1000 ops each, most of them slowed by interference
	// of differing depth; slices 21..28 are the one undisturbed stretch.
	ops := make([]uint64, 40)
	for i := range ops {
		ops[i] = 1000 - uint64(100+i*7%300)
	}
	for i := 21; i < 21+stretchSlices; i++ {
		ops[i] = 1000
	}
	ops[35] = 1040 // one lucky slice does not make a stretch
	if first, n := quietStretch(ops); first != 21 || n != stretchSlices {
		t.Errorf("quietStretch = slice %d, %d long; want slice 21, %d long", first, n, stretchSlices)
	}
	if first, n := quietStretch(ops[:3]); first != 0 || n != 3 {
		t.Errorf("quietStretch of 3 slices = slice %d, %d long; want the whole region", first, n)
	}
	if got := rateSpread(ops); got < 1.1 {
		t.Errorf("rateSpread = %v with most slices slowed by 10-40%%: want > 1.1", got)
	}
	if got := rateSpread([]uint64{5, 5, 5, 5}); got != 1 {
		t.Errorf("rateSpread of equal slices = %v, want 1", got)
	}
}

func TestRunLoopReportsTheBestStretch(t *testing.T) {
	// One client whose op takes 1 ms, except during the first half second,
	// when it takes 3 ms: the region's figures must be those of the fast
	// part.
	start := time.Now()
	op := func(context.Context) error {
		d := time.Millisecond
		if time.Since(start) < 2*sliceLen {
			d = 3 * time.Millisecond
		}
		time.Sleep(d)
		return nil
	}
	const slices = stretchSlices + 2
	r, err := runLoop(context.Background(), []opFunc{op}, loopSpec{slices: slices})
	if err != nil {
		t.Fatal(err)
	}
	if r.failed != 0 || len(r.slices) != slices || r.quietFirst < 2 {
		t.Fatalf("failed %d, %d slices, best stretch at slice %d (want one after the two slow slices)", r.failed, len(r.slices), r.quietFirst)
	}
	mean := float64(r.completed) / r.wall().Seconds()
	if r.quietRate <= mean*1.05 || r.quietP50us > 2000 {
		t.Errorf("best stretch: %.0f ops/s, p50 %.0f us; whole region %.0f ops/s: want the fast part's figures", r.quietRate, r.quietP50us, mean)
	}
}

// testWorkloads are the four workloads, the catalog one with a smaller
// key space so that its preload does not dominate the test's time.
//
// tol is how closely two short runs must agree on the per-op counts. The
// comm and service paths repeat to a fraction of a percent. The catalog's
// do not over a second of traffic: how many ops each 250-ms anti-entropy
// pull finds the push queue has not delivered yet depends on scheduling,
// and a pulled op costs fewer calls and bytes than a pushed one; and the
// op-log maps grow and are compacted in steps that a short run may or may
// not cross.
var testWorkloads = []struct {
	name  string
	ops   uint64 // per client
	tol   float64
	build func(seed uint64) (workload, error)
}{
	{"msg_small", 10000, 0.01, func(s uint64) (workload, error) { return newMsgWorkload(s, smallMsg, 0) }},
	{"msg_bulk", 1000, 0.01, func(s uint64) (workload, error) { return newMsgWorkload(s, bulkMsg, 0) }},
	{"catalog_mix", 8000, 0.10, func(s uint64) (workload, error) { return newCatalogWorkload(s, 4000, 0) }},
	{"service_call", 1500, 0.01, func(s uint64) (workload, error) { return newServiceWorkload(s, 0) }},
}

// fixedRun drives a workload for a fixed op count and returns the four
// per-op count metrics, the live heap and the input digest.
func fixedRun(t *testing.T, build func(uint64) (workload, error), seed, ops uint64, tr *tracer) (counts [5]float64, digest uint64) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	w, err := build(seed)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	w.setTracer(tr)
	r, err := runLoop(ctx, w.clients(), loopSpec{fixedOps: ops})
	if err != nil {
		t.Fatal(err)
	}
	w.setTracer(nil)
	if r.failed != 0 || r.completed != ops*uint64(len(w.clients())) {
		t.Fatalf("completed %d, failed %d of %d ops per client", r.completed, r.failed, ops)
	}
	w.settle()
	heap := liveHeap()
	if wrong, err := w.verify(ctx); err != nil || wrong != 0 {
		t.Fatalf("verify: %d wrong, %v", wrong, err)
	}
	return [5]float64{
		r.perOp(r.after.mallocs - r.before.mallocs),
		r.perOp(r.after.allocBytes - r.before.allocBytes),
		r.perOp(r.after.syscalls - r.before.syscalls),
		r.perOp(r.after.wireBytes - r.before.wireBytes),
		float64(heap),
	}, w.inputDigest()
}

func TestWorkloadsRepeat(t *testing.T) {
	names := [5]string{"allocs_per_op", "alloc_bytes_per_op", "io_syscalls_per_op", "wire_bytes_per_op", "live_heap"}
	for _, tw := range testWorkloads {
		t.Run(tw.name, func(t *testing.T) {
			a, da := fixedRun(t, tw.build, 7, tw.ops, nil)
			b, db := fixedRun(t, tw.build, 7, tw.ops, nil)
			if da != db {
				t.Errorf("seed 7 generated two different input sequences: %x, %x", da, db)
			}
			for i := range a {
				if i == 4 {
					// A fixture this briefly used holds a few hundred KB,
					// where one retained buffer is 10 %: only the 20-s runs
					// compare live heaps.
					if a[i] <= 0 || b[i] <= 0 {
						t.Errorf("%s: %.0f then %.0f: want positive", names[i], a[i], b[i])
					}
					continue
				}
				if !raceDetector && math.Abs(a[i]-b[i])/a[i] > tw.tol {
					t.Errorf("%s: %.3f then %.3f: differ by more than %.0f%%", names[i], a[i], b[i], 100*tw.tol)
				}
			}
			_, d7 := fixedRun(t, tw.build, 7, 64, nil)
			_, d8 := fixedRun(t, tw.build, 8, 64, nil)
			if d7 == d8 {
				t.Errorf("seeds 7 and 8 generated the same input sequence (%x)", d7)
			}
		})
	}
}

func TestTracedSpansWellFormed(t *testing.T) {
	roots := map[string]string{
		"msg_small": "msg.sendwait", "msg_bulk": "msg.sendwait",
		"catalog_mix": "catalog.set", "service_call": "service.call",
	}
	children := map[string]string{
		"msg_small": "comm.endpoint.deliver", "msg_bulk": "comm.endpoint.ack_return",
		"catalog_mix": "rcds.watch.wake", "service_call": "service.handler",
	}
	for _, tw := range testWorkloads {
		t.Run(tw.name, func(t *testing.T) {
			tr := newTracer(8)
			fixedRun(t, tw.build, 3, 1024, tr)
			path := filepath.Join(t.TempDir(), "trace.jsonl")
			if err := tr.writeJSONL(path); err != nil {
				t.Fatal(err)
			}
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			byID := make(map[uint64]span)
			var spans []span
			sc := bufio.NewScanner(f)
			for sc.Scan() {
				var s span
				if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
					t.Fatalf("span line %q: %v", sc.Text(), err)
				}
				if s.ID == 0 || s.Name == "" || s.EndNs < s.StartNs {
					t.Errorf("malformed span %+v", s)
				}
				if _, dup := byID[s.ID]; dup {
					t.Errorf("span id %d used twice", s.ID)
				}
				byID[s.ID] = s
				spans = append(spans, s)
			}
			if err := sc.Err(); err != nil {
				t.Fatal(err)
			}
			seen := make(map[string]int)
			for _, s := range spans {
				seen[s.Name]++
				if s.Parent == 0 {
					continue
				}
				p, ok := byID[s.Parent]
				if !ok {
					t.Errorf("span %+v: parent %d does not exist", s, s.Parent)
					continue
				}
				if p.Op != s.Op || p.Client != s.Client {
					t.Errorf("span %+v does not share op and client with its parent %+v", s, p)
				}
				if s.StartNs < p.StartNs {
					t.Errorf("span %+v starts before its parent %+v", s, p)
				}
			}
			if seen[roots[tw.name]] == 0 || seen[children[tw.name]] == 0 {
				t.Errorf("want %s roots with %s children, got %v", roots[tw.name], children[tw.name], seen)
			}
			// Both classes of catalog op are sampled, and Sets beyond
			// the watched ones, which record whatever the sampling says.
			if tw.name == "catalog_mix" && (seen["catalog.get"] == 0 || seen["catalog.set"] <= seen["rcds.watch.wake"]) {
				t.Errorf("want catalog.get spans and more catalog.set spans than watched Sets, got %v", seen)
			}
		})
	}
}

// TestManifestMatchesTables keeps BENCHMARK.json, which the pipeline
// reads, in step with the tables the program prints from.
func TestManifestMatchesTables(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", manifestPath))
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string  `json:"name"`
		Why    string  `json:"why"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	var m struct {
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []entry  `json:"workloads"`
		EndToEnd   []entry  `json:"end_to_end"`
		PerLayer   []entry  `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the manifest, %d in the program", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: manifest %+v, program %s: %s", i, m.Workloads[i], w.name, w.why)
		}
	}
	check := func(kind string, got []entry, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in the manifest, %d in the program", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			better := "lower"
			if d.higher {
				better = "higher"
			}
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != better {
				t.Errorf("%s %d: manifest %+v, program %+v", kind, i, g, d)
			}
		}
	}
	check("end_to_end", m.EndToEnd, endToEnd)
	check("per_layer", m.PerLayer, perLayer)
	for _, g := range m.EndToEnd {
		if g.Bound <= 0 || g.Bound > 0.25 {
			t.Errorf("end_to_end %s: bound %v is outside (0, 0.25]", g.Name, g.Bound)
		}
	}
	if region := time.Duration(m.RunSeconds) * time.Second; region < 5*stretchSlices*sliceLen {
		t.Errorf("run_seconds %d: the quiet-stretch estimator wants a region of at least five stretches (%v)", m.RunSeconds, 5*stretchSlices*sliceLen)
	}
}
