package main

import (
	"context"
	"fmt"
	"math/rand"

	"snipe/internal/comm"
)

// workload is one traffic mix running on a freshly built stack.
type workload interface {
	// clients returns the closed-loop clients; calling one performs and
	// verifies that client's next operation.
	clients() []opFunc
	// warmupOps is the fixed number of operations each client runs before
	// timing starts, sized to take about a second. A warm-up of a tenth of
	// a second was tried, to make setup_s more nearly pure set-up: set-ups
	// that short spread 25-55 % from run to run on the builder's box, against
	// 4-14 % for these.
	warmupOps() uint64
	// setTracer turns span recording on (or, with nil, off) for later ops.
	setTracer(*tracer)
	// settle brings the stack's periodic background state (op-log
	// compaction) to a fixed point, so the live heap read after it does
	// not depend on where in the period the run ended.
	settle()
	// counters returns the layers' cumulative counters, read from their
	// public MetricsSnapshot surfaces; callers take before/after deltas.
	counters() map[string]uint64
	// layerMetrics adds the per-layer metrics this workload's traffic
	// yields, from the counter deltas d over region r.
	layerMetrics(out map[string]float64, d func(string) float64, r *region)
	// verify runs the end-of-run checks and returns how many operations
	// turned out wrong after they had been counted as completed.
	verify(ctx context.Context) (wrong uint64, err error)
	// inputDigest folds every generated input (keys, payload checksums)
	// into one number: equal seeds give equal digests for equal op counts.
	inputDigest() uint64
	close()
}

// workloadInfo names a workload and says why it is in the benchmark; the
// same text is in BENCHMARK.json.
type workloadInfo struct {
	name  string
	why   string
	build func(seed uint64) (workload, error)
}

var workloads = []workloadInfo{
	{"msg_small", "64 B SendWait to one sink: per-message cost of comm (frames, acks, allocations) with rcds idle",
		func(seed uint64) (workload, error) { return newMsgWorkload(seed, smallMsg, 30000) }},
	{"msg_bulk", "256 KiB SendWait over two routes: the same comm layer moving bytes (fragments, stripes, reassembly)",
		func(seed uint64) (workload, error) { return newMsgWorkload(seed, bulkMsg, 2000) }},
	{"catalog_mix", "alternating Set/Get on 50 000 URNs of a 2-replica rcds group with watchers: store, RPC, replication, watch; comm idle",
		func(seed uint64) (workload, error) { return newCatalogWorkload(seed, catalogKeys, 9000) }},
	{"service_call", "service.Call to 3 echo replicas, 256 B request and 4 KiB response: a little of every layer, the user-level operation",
		func(seed uint64) (workload, error) { return newServiceWorkload(seed, 4000) }},
}

func findWorkload(name string) (workloadInfo, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadInfo{}, fmt.Errorf("unknown workload %q", name)
}

// clientRNG derives an independent generator for one client from the run
// seed, so the two clients' input sequences differ but both follow from
// the seed alone.
func clientRNG(seed uint64, client int) *rand.Rand {
	return rand.New(rand.NewSource(int64(seed*0x9e3779b97f4a7c15 + uint64(client) + 1)))
}

// fold mixes v into a running FNV-1a style digest.
func fold(digest, v uint64) uint64 { return (digest ^ v) * 1099511628211 }

// ratio is a/b, or 0 when the workload never exercised the denominator.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// endpointCounters sums the public counters of a workload's endpoints
// under the prefix "ep.".
func endpointCounters(eps []*comm.Endpoint) map[string]uint64 {
	out := make(map[string]uint64)
	for _, ep := range eps {
		for k, v := range ep.MetricsSnapshot().Counters {
			out["ep."+k] += v
		}
	}
	return out
}

// endpointLayerMetrics derives the comm layers' counts per operation from
// the endpoint counter deltas of a region; payload is the application
// bytes one operation moves.
func endpointLayerMetrics(out map[string]float64, d func(string) float64, r *region, payload int) {
	ops := float64(r.completed)
	out["comm.endpoint.acks_per_batch"] = ratio(d("ep.acks_batched"), d("ep.ack_batches"))
	out["comm.endpoint.retried_per_op"] = ratio(d("ep.retried"), ops)
	out["comm.endpoint.duplicates_per_op"] = ratio(d("ep.duplicates"), ops)
	out["comm.endpoint.resolves_per_op"] = ratio(d("ep.resolves"), ops)
	out["comm.endpoint.route_cache_hit_ratio"] = ratio(d("ep.route_cache_hits"), d("ep.route_cache_hits")+d("ep.resolves"))
	out["comm.stripe.fragments_per_op"] = ratio(d("ep.fragments"), ops)
	out["comm.stripe.frag_acks_per_op"] = ratio(d("ep.frag_acks"), ops)
	out["comm.stripe.requeues_per_op"] = ratio(d("ep.frag_requeues"), ops)
	out["comm.stripe.striped_ratio"] = ratio(d("ep.striped"), d("ep.sent"))
	out["comm.stripe.copied_bytes_per_byte"] = ratio(r.perOp(r.after.allocBytes-r.before.allocBytes), float64(payload))
}
