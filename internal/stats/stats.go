// Package stats is SNIPE's operational telemetry substrate: atomic
// counters, gauges, and fixed-bucket histograms collected into named
// registries with JSON-serialisable snapshots.
//
// The paper's console is the human window into a running metacomputer
// (§3.7), and the evaluation is built on quantified hot-path behaviour
// (Fig. 1, §6). This package gives every subsystem — the comm
// substrate, the RC catalogs, the host daemons, the media emulation —
// one dependency-free way to count and time what it does, so a live
// daemon can be inspected over the wire and benchmark runs leave a
// machine-readable trajectory behind.
//
// All mutation paths are lock-free (sync/atomic); registries take a
// lock only when creating or snapshotting metrics, so instrumenting a
// hot path costs one atomic add.
package stats

import (
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an instantaneous float64 value (queue depths, smoothed RTT,
// load figures).
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the stored value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram accumulates observations into fixed buckets defined by
// ascending upper bounds; values above the last bound land in an
// overflow bucket. Observation is lock-free.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last is overflow
	count  atomic.Uint64
	sumμ   atomic.Uint64 // sum in micro-units to keep atomic adds integral
	min    atomic.Uint64 // math.Float64bits, CAS-updated
	max    atomic.Uint64
}

// sumScale converts observed values to integral micro-units for the
// atomic sum. Good to ~1e13 observations of unit scale.
const sumScale = 1e6

// NewHistogram returns a histogram over the given ascending bucket
// upper bounds. The bounds slice is not copied and must not be
// modified.
func NewHistogram(bounds []float64) *Histogram {
	h := &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
	h.min.Store(math.Float64bits(math.Inf(1)))
	h.max.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	if v > 0 {
		h.sumμ.Add(uint64(v * sumScale))
	}
	for {
		cur := h.min.Load()
		if v >= math.Float64frombits(cur) || h.min.CompareAndSwap(cur, math.Float64bits(v)) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if v <= math.Float64frombits(cur) || h.max.CompareAndSwap(cur, math.Float64bits(v)) {
			break
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// snapshot captures the histogram's current state.
func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.counts)),
		Count:  h.count.Load(),
		Sum:    float64(h.sumμ.Load()) / sumScale,
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	if s.Count > 0 {
		s.Min = math.Float64frombits(h.min.Load())
		s.Max = math.Float64frombits(h.max.Load())
	}
	return s
}

// HistogramSnapshot is the JSON-portable state of a histogram.
type HistogramSnapshot struct {
	Count  uint64    `json:"count"`
	Sum    float64   `json:"sum"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
}

// Mean returns the average observation, or 0 with no observations.
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// Quantile estimates the q-th quantile (0 ≤ q ≤ 1) by linear
// interpolation within the containing bucket. The overflow bucket
// reports the observed maximum.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	rank := q * float64(s.Count)
	var seen float64
	lower := 0.0
	if len(s.Bounds) > 0 && s.Min < s.Bounds[0] && s.Min > 0 {
		lower = s.Min
	}
	for i, c := range s.Counts {
		if i > 0 {
			lower = s.Bounds[i-1]
		}
		if float64(c)+seen >= rank && c > 0 {
			if i == len(s.Bounds) { // overflow bucket
				return s.Max
			}
			upper := s.Bounds[i]
			frac := (rank - seen) / float64(c)
			// Clamp: interpolation against bucket bounds must not step
			// outside the observed range.
			v := lower + frac*(upper-lower)
			if v > s.Max {
				v = s.Max
			}
			if v < s.Min {
				v = s.Min
			}
			return v
		}
		seen += float64(c)
	}
	return s.Max
}

// Summary renders a compact human-readable digest.
func (s HistogramSnapshot) Summary() string {
	if s.Count == 0 {
		return "count=0"
	}
	return fmt.Sprintf("count=%d mean=%.1f p50=%.1f p90=%.1f p99=%.1f max=%.1f",
		s.Count, s.Mean(), s.Quantile(0.50), s.Quantile(0.90), s.Quantile(0.99), s.Max)
}

// Standard bucket sets. Bounds are ascending upper bounds.
var (
	// LatencyBucketsUs spans 1 µs to ~10 s, exponentially: message and
	// RPC latencies across loopback, LAN and WAN paths.
	LatencyBucketsUs = expBuckets(1, 2, 24)
	// SizeBuckets spans 16 B to 16 MB: message and fragment sizes.
	SizeBuckets = expBuckets(16, 2, 21)
)

// expBuckets returns n ascending bounds: start, start·factor, ...
func expBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// Registry is a namespace of metrics. Metric accessors create on first
// use and are safe for concurrent callers; hot paths should capture the
// returned pointer once rather than re-looking-up by name.
type Registry struct {
	mu     sync.Mutex
	ctrs   map[string]*Counter
	gauges map[string]*Gauge
	hists  map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		ctrs:   make(map[string]*Counter),
		gauges: make(map[string]*Gauge),
		hists:  make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.ctrs[name]
	if !ok {
		c = &Counter{}
		r.ctrs[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bounds if needed (bounds are ignored for an existing histogram).
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = NewHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Snapshot captures every metric's current value.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Counters:   make(map[string]uint64, len(r.ctrs)),
		Gauges:     make(map[string]float64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.hists)),
	}
	for name, c := range r.ctrs {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.snapshot()
	}
	return s
}

// Snapshot is a point-in-time copy of a registry, the unit that
// crosses the wire (as JSON) between daemons and consoles.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// JSON marshals the snapshot.
func (s Snapshot) JSON() ([]byte, error) { return json.MarshalIndent(s, "", "  ") }

// ParseSnapshot unmarshals a snapshot produced by JSON.
func ParseSnapshot(b []byte) (Snapshot, error) {
	var s Snapshot
	err := json.Unmarshal(b, &s)
	return s, err
}

// Prefixed returns a copy with every metric name prefixed
// "prefix.name" — how subsystem registries compose into one snapshot.
func (s Snapshot) Prefixed(prefix string) Snapshot {
	out := Snapshot{
		Counters:   make(map[string]uint64, len(s.Counters)),
		Gauges:     make(map[string]float64, len(s.Gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(s.Histograms)),
	}
	for k, v := range s.Counters {
		out.Counters[prefix+"."+k] = v
	}
	for k, v := range s.Gauges {
		out.Gauges[prefix+"."+k] = v
	}
	for k, v := range s.Histograms {
		out.Histograms[prefix+"."+k] = v
	}
	return out
}

// Merge combines snapshots; on name collisions counters add, gauges and
// histograms take the later snapshot's value.
func Merge(snaps ...Snapshot) Snapshot {
	out := Snapshot{
		Counters:   make(map[string]uint64),
		Gauges:     make(map[string]float64),
		Histograms: make(map[string]HistogramSnapshot),
	}
	for _, s := range snaps {
		for k, v := range s.Counters {
			out.Counters[k] += v
		}
		for k, v := range s.Gauges {
			out.Gauges[k] = v
		}
		for k, v := range s.Histograms {
			out.Histograms[k] = v
		}
	}
	return out
}

// Render produces a sorted, aligned, human-readable listing — the
// console's text view of a snapshot.
func (s Snapshot) Render() string {
	var b strings.Builder
	keys := make([]string, 0, len(s.Counters))
	for k := range s.Counters {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "%-44s %d\n", k, s.Counters[k])
	}
	keys = keys[:0]
	for k := range s.Gauges {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "%-44s %.2f\n", k, s.Gauges[k])
	}
	keys = keys[:0]
	for k := range s.Histograms {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "%-44s %s\n", k, s.Histograms[k].Summary())
	}
	return b.String()
}

// SettledHeap returns the live heap in bytes after two collections: the
// second frees what the first one's finalizers and sweep let go.
func SettledHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}
