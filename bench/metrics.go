package main

// metricDef describes one reported metric. BENCHMARK.json carries the
// name, unit, direction and (end-to-end only) bound; layer and moves
// are the benchmark's own record of which layer a figure belongs to and
// which end-to-end metric it is expected to move, on which workload.
type metricDef struct {
	name   string
	unit   string
	better string // "higher" or "lower"
	layer  string
	moves  string
}

// endToEnd are the figures a user of the server sees, the same six for
// every workload. failed_share is not among them: it is 0 on every
// healthy run, and the contract's bounds are shares of a median. It is
// reported as "failed" over "attempted" on the result line instead, and
// any failure makes the run incorrect.
var endToEnd = []metricDef{
	{name: "throughput_rps", unit: "1/s", better: "higher"},
	{name: "latency_p50_ms", unit: "ms", better: "lower"},
	{name: "cpu_ms_per_req", unit: "ms", better: "lower"},
	{name: "alloc_kb_per_req", unit: "KB", better: "lower"},
	{name: "live_heap_mb", unit: "MB", better: "lower"},
	{name: "setup_s", unit: "s", better: "lower"},
}

const (
	movesNN      = "latency_p50_ms, throughput_rps, alloc_kb_per_req on http_mnist_b1; none on lib_simple_burst, http_cnn_b8"
	movesMatMul  = "throughput_rps, cpu_ms_per_req on http_mnist_b64; none on http_cnn_b8, lib_simple_burst"
	movesConv    = "latency_p50_ms, throughput_rps on http_cnn_b8; none on the mnist workloads"
	movesCodec   = "cpu_ms_per_req then latency_p50_ms on http_mnist_b64; <=4% on http_mnist_b1; none on lib_simple_burst"
	movesOrch    = "throughput_rps, cpu_ms_per_req, alloc_kb_per_req on lib_simple_burst; none on the HTTP workloads"
	movesBatch   = "throughput_rps on lib_simple_burst; +2 ms latency_p50_ms on http_mnist_b1 if lone requests start waiting for the window"
	movesNothing = "informational"
	movesFixed   = "must repeat exactly; a host-side change may never move it"
)

// perLayer are the figures of the traced run.
var perLayer = []metricDef{
	{"http.roundtrip_us", "us", "lower", "http", movesNothing},
	{"http.self_us", "us", "lower", "http", movesCodec},
	{"latency_tail_ms", "ms", "lower", "end-to-end", movesNothing},
	{"latency_tail_pct", "%", "higher", "end-to-end", movesNothing},
	{"latency_samples", "count", "higher", "end-to-end", movesNothing},

	{"server.serve_us", "us", "lower", "server", movesCodec},
	{"server.self_us", "us", "lower", "server", movesCodec},
	{"server.decode_us", "us", "lower", "server", movesCodec},
	{"server.allocs_per_op", "count", "lower", "server", movesCodec},
	{"server.alloc_kb_per_op", "KB", "lower", "server", movesCodec},
	{"server.body_bytes", "B", "lower", "server", movesCodec},

	{"cluster.submit_wait_us", "us", "lower", "cluster", movesOrch},
	{"cluster.self_us", "us", "lower", "cluster", movesOrch},
	{"cluster.allocs_per_op", "count", "lower", "cluster", movesOrch},
	{"cluster.reroutes", "count", "lower", "cluster", movesNothing},
	{"cluster.shed", "count", "lower", "cluster", movesNothing},

	{"core.submit_wait_us", "us", "lower", "core", movesOrch},
	{"core.self_us", "us", "lower", "core", movesOrch},
	{"core.select_us", "us", "lower", "core", movesOrch},
	{"core.select_cached_us", "us", "lower", "core", movesOrch},
	{"core.feasible_us", "us", "lower", "core", movesOrch},
	{"core.allocs_per_op", "count", "lower", "core", movesOrch},
	{"core.batch_size_mean", "count", "higher", "core", movesBatch},
	{"core.queue_wait_us_mean", "us", "lower", "core", movesBatch},
	{"core.idle_flush_share", "1", "higher", "core", movesBatch},
	{"core.size_flush_share", "1", "higher", "core", movesBatch},
	{"core.window_flush_share", "1", "lower", "core", movesBatch},
	{"core.decision_cache_hit_share", "1", "higher", "core", movesOrch},
	{"core.retries", "count", "lower", "core", movesNothing},
	{"core.heap_growth_b_per_req", "B", "lower", "core", movesNothing},

	{"opencl.classify_us", "us", "lower", "opencl", movesOrch},
	{"opencl.self_us", "us", "lower", "opencl", movesOrch},
	{"opencl.estimate_us", "us", "lower", "opencl", movesOrch},
	{"opencl.allocs_per_op", "count", "lower", "opencl", movesOrch},
	{"device.sim_latency_us", "us", "lower", "device", movesFixed},
	{"device.sim_energy_mj", "mJ", "lower", "device", movesFixed},

	{"nn.forward_us", "us", "lower", "nn", movesNN},
	{"nn.self_us", "us", "lower", "nn", movesNN},
	{"nn.allocs_per_op", "count", "lower", "nn", movesNN},
	{"nn.alloc_kb_per_op", "KB", "lower", "nn", movesNN},

	{"tensor.kernels_us", "us", "lower", "tensor", movesNN},
	{"tensor.transpose_us", "us", "lower", "tensor", movesNN},
	{"tensor.matmul_us", "us", "lower", "tensor", movesMatMul},
	{"tensor.conv_us", "us", "lower", "tensor", movesConv},
	{"tensor.activation_us", "us", "lower", "tensor", movesNN},
	{"tensor.flops_per_op", "count", "lower", "tensor", movesNothing},
	{"tensor.bytes_moved_per_op", "B", "lower", "tensor", movesNothing},
	{"tensor.gflops", "GFLOP/s", "higher", "tensor", movesMatMul},

	{"host.calib_ms_min", "ms", "lower", "host", movesNothing},
	{"host.calib_ms_max", "ms", "lower", "host", movesNothing},
	{"trace.overhead_share", "1", "lower", "trace", movesNothing},
	{"trace.requests", "count", "higher", "trace", movesNothing},
}

// measurement is one reported value.
type measurement struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report turns measured values into the named, unit-carrying map the
// result line prints; a metric with no value is a bug in the harness.
func report(defs []metricDef, values map[string]float64) map[string]measurement {
	out := make(map[string]measurement, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			panic("bench: metric " + d.name + " was not measured")
		}
		out[d.name] = measurement{Value: v, Unit: d.unit}
	}
	return out
}
