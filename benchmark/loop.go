package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// opFunc performs one operation of one closed-loop client and verifies
// its result. An error — the call failed or the answer was wrong — makes
// the op a failed attempt, never a latency sample.
type opFunc func(ctx context.Context) error

// counters are the process-wide figures a timed region is charged with,
// read once before and once after it.
type counters struct {
	at          time.Time
	mallocs     uint64
	allocBytes  uint64
	syscalls    uint64 // read + write system calls (/proc/self/io syscr+syscw)
	wireBytes   uint64 // bytes passed to write calls (/proc/self/io wchar)
	cpu         time.Duration
	ctxSwitches uint64
	gcCycles    uint32
	gcPause     time.Duration
}

func readCounters() (counters, error) {
	var c counters
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.mallocs, c.allocBytes = ms.Mallocs, ms.TotalAlloc
	c.gcCycles, c.gcPause = ms.NumGC, time.Duration(ms.PauseTotalNs)

	raw, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return c, fmt.Errorf("reading process io counters: %w", err)
	}
	for _, line := range strings.Split(string(raw), "\n") {
		name, val, ok := strings.Cut(line, ": ")
		if !ok {
			continue
		}
		n, err := strconv.ParseUint(val, 10, 64)
		if err != nil {
			return c, fmt.Errorf("parsing /proc/self/io line %q: %w", line, err)
		}
		switch name {
		case "syscr", "syscw":
			c.syscalls += n
		case "wchar":
			c.wireBytes = n
		}
	}

	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return c, fmt.Errorf("getrusage: %w", err)
	}
	c.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	c.ctxSwitches = uint64(ru.Nvcsw + ru.Nivcsw)
	c.at = time.Now()
	return c, nil
}

// region is the outcome of one closed-loop run.
type region struct {
	slices     []uint64 // verified ops completed per slice; empty for a fixed-count run
	quietFirst int      // first slice of the best stretch
	quietRate  float64  // verified ops per second over the best stretch
	quietP50us float64  // median latency of the ops completed in it
	completed  uint64   // verified ops
	failed     uint64
	all        hist // every verified op's latency
	before     counters
	after      counters
}

func (r *region) attempted() uint64 { return r.completed + r.failed }

func (r *region) wall() time.Duration { return r.after.at.Sub(r.before.at) }

// perOp divides a counter delta by the verified ops of the region.
func (r *region) perOp(delta uint64) float64 {
	if r.completed == 0 {
		return 0
	}
	return float64(delta) / float64(r.completed)
}

// loopSpec says how long a closed loop runs: slices×sliceLen of wall
// time, or — when slices is 0 — exactly fixedOps operations per client.
type loopSpec struct {
	slices   int
	fixedOps uint64
}

// clientState is one client's private tally; nothing in it is shared
// until the client has stopped.
type clientState struct {
	hists     []hist
	all       hist
	completed uint64
	failed    uint64
}

// failureLog prints the first few failures so a broken run explains
// itself without flooding the terminal.
var failureLog atomic.Int32

func logFailure(err error) {
	if failureLog.Add(1) <= 5 {
		fmt.Fprintf(os.Stderr, "benchmark: failed op: %v\n", err)
	}
}

// runLoop drives one goroutine per client, each issuing its next op only
// when the previous one has been answered and checked (a closed loop:
// the callers of SendWait, Set, Get and Call all wait for their reply).
func runLoop(ctx context.Context, clients []opFunc, spec loopSpec) (*region, error) {
	states := make([]clientState, len(clients))
	for i := range states {
		states[i].hists = make([]hist, spec.slices)
	}
	r := &region{}
	var err error
	if r.before, err = readCounters(); err != nil {
		return nil, err
	}
	start := r.before.at
	var wg sync.WaitGroup
	for i, op := range clients {
		wg.Add(1)
		go func(st *clientState, op opFunc) {
			defer wg.Done()
			for {
				if spec.slices == 0 && st.completed+st.failed == spec.fixedOps {
					return
				}
				t0 := time.Now()
				err := op(ctx)
				t1 := time.Now()
				// An op belongs to the slice it completes in; one that
				// completes after the last slice ends the client.
				w, last := 0, false
				if spec.slices > 0 {
					w = int(t1.Sub(start) / sliceLen)
					last = w >= spec.slices
				}
				if err != nil {
					st.failed++
					logFailure(err)
					if last || ctx.Err() != nil {
						return
					}
					continue
				}
				st.completed++
				d := t1.Sub(t0)
				st.all.record(d)
				if last {
					return
				}
				if spec.slices > 0 {
					st.hists[w].record(d)
				}
			}
		}(&states[i], op)
	}
	wg.Wait()
	if r.after, err = readCounters(); err != nil {
		return nil, err
	}
	for i := range states {
		r.completed += states[i].completed
		r.failed += states[i].failed
		r.all.merge(&states[i].all)
	}
	if spec.slices > 0 {
		r.slices = make([]uint64, spec.slices)
		for w := range r.slices {
			for i := range states {
				r.slices[w] += states[i].hists[w].n
			}
		}
		first, n := quietStretch(r.slices)
		var h hist
		for w := first; w < first+n; w++ {
			for i := range states {
				h.merge(&states[i].hists[w])
			}
		}
		r.quietFirst = first
		r.quietRate = float64(h.n) / (time.Duration(n) * sliceLen).Seconds()
		r.quietP50us = h.quantile(0.50) / 1e3
	}
	return r, nil
}
