package main

import (
	"math/bits"
	"sort"
	"time"
)

// hist is a fixed log-bucket latency histogram over nanoseconds: exact
// below 64 ns, then 64 sub-buckets per octave (bucket width ≤ 1.6 % of
// the value) up to histMax. Recording never allocates, so a client can
// keep one per window without the harness showing up in allocs_per_op.
type hist struct {
	n       uint64
	buckets [histBuckets]uint32
}

const (
	histSubBits = 6
	histSub     = 1 << histSubBits // sub-buckets per octave
	histMaxBits = 36               // values clamp at 2^36 ns ≈ 69 s
	histMax     = uint64(1)<<histMaxBits - 1
	histBuckets = histSub * (histMaxBits - histSubBits + 1)
)

func bucketOf(ns uint64) int {
	if ns < histSub {
		return int(ns)
	}
	if ns > histMax {
		ns = histMax
	}
	shift := bits.Len64(ns) - (histSubBits + 1)
	return histSub*shift + int(ns>>shift)
}

// bucketBounds returns the lowest value a bucket holds and its width.
func bucketBounds(idx int) (lo, width uint64) {
	if idx < histSub {
		return uint64(idx), 1
	}
	shift := idx/histSub - 1
	return uint64(idx%histSub+histSub) << shift, 1 << shift
}

func (h *hist) record(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.buckets[bucketOf(uint64(d))]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.buckets {
		h.buckets[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile in nanoseconds, interpolated linearly
// inside the bucket that holds it so the result moves continuously with
// the data instead of snapping to bucket edges. It is 0 for an empty
// histogram.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var cum float64
	for i, c := range h.buckets {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo, width := bucketBounds(i)
			return float64(lo) + float64(width)*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	return float64(histMax)
}

// beyond counts the samples above the q-quantile: a percentile is only
// reported with this beside it, since fewer than ten samples beyond make
// it one outlier's value.
func (h *hist) beyond(q float64) uint64 {
	return h.n - uint64(q*float64(h.n))
}

// The timed region is cut into slices of sliceLen; a stretch is
// stretchSlices consecutive slices, two seconds. The quiet-stretch
// estimator reports the best stretch of the region: the one with the most
// verified completions, found by sliding over the slices.
//
// Interference from the host only ever slows the program, so the fastest
// stretch is the one nearest the program's own speed. Two seconds is the
// longest period of the program's own background work — the catalog
// compacts its op log every 2 s, and with 50 000 URNs its collector
// cycles about as often — so no stretch can fall between two rounds of
// it and report a rate that leaves the collector out. A shorter stretch
// repeats better (README.md, design rule 2, has both measured) but would
// hide exactly the cost a change to marking or compaction moves.
const (
	sliceLen      = 250 * time.Millisecond
	stretchSlices = 8
)

// quietStretch finds the best stretch in ops, the completions per slice:
// it returns the stretch's first slice and its length in slices, which is
// stretchSlices unless the region itself is shorter.
func quietStretch(ops []uint64) (first, n int) {
	n = min(stretchSlices, len(ops))
	var best, sum uint64
	for i, c := range ops {
		sum += c
		if i >= n {
			sum -= ops[i-n]
		}
		if i >= n-1 && sum > best {
			best, first = sum, i-n+1
		}
	}
	return first, n
}

// median of xs; xs is reordered.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

// rateSpread is p75/p25 of the per-slice completion counts: 1 means
// every slice ran at the same speed.
func rateSpread(ops []uint64) float64 {
	sorted := append([]uint64(nil), ops...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return ratio(float64(sorted[len(sorted)*3/4]), float64(sorted[len(sorted)/4]))
}
