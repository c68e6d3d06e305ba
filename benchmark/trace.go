package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// sampleEvery is the op sampling rate of a traced window: one op in 64
// records spans, so the recording itself stays a small share of the run
// (bench.trace_overhead_ratio reports how small). The ladder phase, which
// runs one caller for a fixed count, samples every op.
const sampleEvery = 64

// span is one timed interval at a layer boundary. Spans are recorded
// only from the benchmark's own files, around its calls into a layer and
// inside the handlers it owns; nothing under internal/ knows about them.
type span struct {
	Name    string `json:"name"`
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent"` // 0 for the root span of an op
	Op      uint64 `json:"op"`     // spans of one operation share it
	Client  int    `json:"client"`
	StartNs int64  `json:"start_ns"` // since the tracer was created
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is a
// valid, disabled tracer: workloads test it once per op.
type tracer struct {
	epoch  time.Time
	every  uint64 // an op whose number is a multiple of every is sampled
	nextID atomic.Uint64

	mu    sync.Mutex
	spans []span
}

// A 10-s traced region of the fastest workload samples about 40 000 spans
// and the ladder adds about 20 000: room for them up front keeps the
// recording from allocating while a region is being charged for its
// allocations.
const spanRoom = 1 << 16

func newTracer(every uint64) *tracer {
	return &tracer{epoch: time.Now(), every: every, spans: make([]span, 0, spanRoom)}
}

// sampled reports whether op number n records spans; false on a nil
// tracer.
func (t *tracer) sampled(n uint64) bool { return t != nil && n%t.every == 0 }

// newID reserves a span id, so children can name their parent before the
// parent has ended.
func (t *tracer) newID() uint64 { return t.nextID.Add(1) }

func (t *tracer) record(name string, id, parent, op uint64, client int, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		Name: name, ID: id, Parent: parent, Op: op, Client: client,
		StartNs: start.Sub(t.epoch).Nanoseconds(), EndNs: end.Sub(t.epoch).Nanoseconds(),
	})
}

// durations returns the lengths of every span called name.
func (t *tracer) durations(name string) *hist {
	t.mu.Lock()
	defer t.mu.Unlock()
	h := &hist{}
	for i := range t.spans {
		if t.spans[i].Name == name {
			h.record(time.Duration(t.spans[i].EndNs - t.spans[i].StartNs))
		}
	}
	return h
}

// writeJSONL writes one span per line.
func (t *tracer) writeJSONL(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("writing %s: %w", path, err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
