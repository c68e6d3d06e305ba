package main

// metricDef is one reported metric. The tables below are the names later
// issues cite as <workload>/<metric>; BENCHMARK.json at the repository
// root lists the same names, units and directions for the pipeline (a
// test keeps the two in step) and is the only home of the end-to-end
// metrics' bounds.
type metricDef struct {
	name   string
	unit   string
	higher bool // higher is better
}

// endToEnd are the gated metrics, the result of an untraced run of every
// workload: set-up time and five costs per operation that are counts and
// repeat to a fraction of a percent. Throughput and latency are not among
// them: an untraced run measures and prints them, but on a shared host no
// estimator made them repeat within the 10 % a gate needs on the two
// workloads that move bytes through memory (README.md, design rule 5),
// so they are per-layer metrics, reported through a traced run.
var endToEnd = []metricDef{
	{"setup_s", "s", false},
	{"allocs_per_op", "count", false},
	{"alloc_bytes_per_op", "B", false},
	{"io_syscalls_per_op", "count", false},
	{"wire_bytes_per_op", "B", false},
	{"live_heap_mb", "MB", false},
}

// perLayer are the ungated metrics, the result of a traced run: the
// workload's throughput and latency (from the untraced half of its timed
// region), then the metrics of single layers. Layer times come from the
// ladder phase (one caller, a quiet fixture); counts per op, rcds.mix.*
// and bench.* come from the workload's own timed region, and a count of a
// layer the workload never enters reads 0.
var perLayer = []metricDef{
	{"ops_per_s", "1/s", true},
	{"op_p50_us", "us", false},

	{"xdr.encode_ns", "ns", false},
	{"xdr.decode_ns", "ns", false},
	{"xdr.allocs", "count", false},

	{"comm.transport.rtt_us", "us", false},
	{"comm.transport.rtt_256k_us", "us", false},
	{"comm.transport.allocs", "count", false},
	{"comm.transport.syscalls", "count", false},
	{"comm.transport.dial_us", "us", false},

	{"comm.endpoint.sendwait_us", "us", false},
	{"comm.endpoint.self_us", "us", false},
	{"comm.endpoint.deliver_us", "us", false},
	{"comm.endpoint.ack_return_us", "us", false},
	{"comm.endpoint.self_allocs", "count", false},
	{"comm.endpoint.first_send_us", "us", false},
	{"comm.endpoint.acks_per_batch", "count", true},
	{"comm.endpoint.retried_per_op", "count", false},
	{"comm.endpoint.duplicates_per_op", "count", false},
	{"comm.endpoint.resolves_per_op", "count", false},
	{"comm.endpoint.route_cache_hit_ratio", "ratio", true},

	{"comm.stripe.self_us", "us", false},
	{"comm.stripe.fragments_per_op", "count", false},
	{"comm.stripe.frag_acks_per_op", "count", false},
	{"comm.stripe.requeues_per_op", "count", false},
	{"comm.stripe.striped_ratio", "ratio", true},
	{"comm.stripe.copied_bytes_per_byte", "ratio", false},

	{"comm.stream.echo_us", "us", false},
	{"comm.stream.allocs", "count", false},
	{"comm.stream.msgs_per_call", "count", false},

	{"naming.resolve_cold_us", "us", false},
	{"naming.resolve_warm_ns", "ns", false},
	{"naming.register_us", "us", false},

	{"rcds.store.set_ns", "ns", false},
	{"rcds.store.get_ns", "ns", false},
	{"rcds.store.set_allocs", "count", false},
	{"rcds.store.get_alloc_bytes", "B", false},

	{"rcds.rpc.set_us", "us", false},
	{"rcds.rpc.get_us", "us", false},
	{"rcds.rpc.self_set_us", "us", false},
	{"rcds.rpc.self_get_us", "us", false},
	{"rcds.rpc.set_allocs", "count", false},
	{"rcds.rpc.get_allocs", "count", false},
	{"rcds.rpc.syscalls_per_op", "count", false},

	{"rcds.repl.set_us", "us", false},
	{"rcds.repl.self_us", "us", false},
	{"rcds.repl.visible_us", "us", false},
	{"rcds.repl.remote_ops_per_set", "count", false},
	{"rcds.repl.push_failures", "count", false},
	{"rcds.repl.compacted_ops_per_s", "1/s", false},

	{"rcds.watch.wake_us", "us", false},
	{"rcds.watch.wakes_per_watched_set", "count", false},

	{"rcds.cache.hit_ns", "ns", false},
	{"rcds.cache.hit_ratio_mix", "ratio", true},

	{"rcds.mix.get_p50_us", "us", false},
	{"rcds.mix.set_p50_us", "us", false},
	{"rcds.mix.get_p99_us", "us", false},
	{"rcds.mix.set_p99_us", "us", false},

	{"service.call_us", "us", false},
	{"service.self_us", "us", false},
	{"service.handler_us", "us", false},
	{"service.attempts_per_call", "count", false},
	{"service.catalog_reads_per_call", "count", false},
	{"service.replica_spread", "ratio", false},

	{"bench.op_p99_us", "us", false},
	{"bench.op_p99_beyond", "count", true},
	{"bench.ops_per_s_mean", "1/s", true},
	{"bench.slice_spread", "ratio", false},
	{"bench.cpu_busy_ratio", "ratio", true},
	{"bench.cpu_us_per_op", "us", false},
	{"bench.gc_cycles_per_s", "1/s", false},
	{"bench.gc_pause_ms", "ms", false},
	{"bench.ctx_switches_per_op", "count", false},
	{"bench.trace_overhead_ratio", "ratio", true},
}

// measured is one metric value as it goes into the result line.
type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report picks the metrics defs names out of values, failing if the run
// did not produce one of them: a missing metric is a bug in the benchmark,
// not a zero.
func report(defs []metricDef, values map[string]float64) (map[string]measured, []string) {
	out := make(map[string]measured, len(defs))
	var missing []string
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			missing = append(missing, d.name)
			continue
		}
		out[d.name] = measured{Value: v, Unit: d.unit}
	}
	return out, missing
}
