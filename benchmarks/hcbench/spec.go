package main

// metricSpec names one reported metric. BENCHMARK.json at the repository
// root lists the same names, units and directions; TestBenchmarkJSON pins
// the two together.
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before it counts as a regression; 0 on per-layer
	// metrics, which are not gated.
	Bound float64
}

// endToEnd lists the gated metrics; every workload reports all of them under
// the same names. No run time is among them: on the shared two-vCPU hosts
// this runs on, the quartile spread of any timing over ten runs — wall or
// CPU, median or minimum — reaches 13–23 %, too close to the widest bound a
// benchmark may set (25 %) for a gate that must not fire on identical code.
// Allocation volume and count repeat to five digits and carry the gate;
// set-up time is gated on its median only.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"alloc_mb_per_op", "MB", "lower", 0.02},
	{"allocs_per_op", "count", "lower", 0.02},
}

// timings lists the ungated run-time metrics of the untraced slices: a gated
// run prints them, a traced run reports them as driver.* metrics of the
// workload in focus. Compare them across commits only in alternating pairs.
var timings = []metricSpec{
	{Name: "cpu_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "op_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "op_p90_ms", Unit: "ms", Better: "lower"},
}

// perLayer lists the metrics of a traced run. Each belongs to the one
// workload that drives its layer, and a traced run traces all four
// workloads, so it reports all of them whichever workload it was asked for;
// only the driver.* metrics describe the workload in focus.
// benchmarks/README.md maps each to the end-to-end metric it should move.
var perLayer = []metricSpec{
	// One evaluation, stage by stage (eval-128k).
	{Name: "topology.block_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.synthetic_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.synthetic_allocs", Unit: "count", Better: "lower"},
	{Name: "trace.nnz", Unit: "count", Better: "lower"},
	{Name: "trace.nodegraph_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.nodegraph_allocs", Unit: "count", Better: "lower"},
	{Name: "graph.partition_ms", Unit: "ms", Better: "lower"},
	{Name: "graph.partition_allocs", Unit: "count", Better: "lower"},
	{Name: "graph.nodes", Unit: "count", Better: "lower"},
	{Name: "graph.cut_weight", Unit: "pairs", Better: "lower"},
	{Name: "core.hierarchical_ms", Unit: "ms", Better: "lower"},
	{Name: "core.hier_glue_ms", Unit: "ms", Better: "lower"},
	{Name: "core.hierarchical_allocs", Unit: "count", Better: "lower"},
	{Name: "core.validate_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.logged_ms", Unit: "ms", Better: "lower"},
	{Name: "core.recovery_ms", Unit: "ms", Better: "lower"},
	{Name: "core.recovery_allocs", Unit: "count", Better: "lower"},
	{Name: "reliability.groups_ms", Unit: "ms", Better: "lower"},
	{Name: "reliability.groups_allocs", Unit: "count", Better: "lower"},
	{Name: "reliability.catastrophe_ms", Unit: "ms", Better: "lower"},
	{Name: "reliability.catastrophe_allocs", Unit: "count", Better: "lower"},
	{Name: "core.evaluate_ms", Unit: "ms", Better: "lower"},
	{Name: "pipeline.run_ms", Unit: "ms", Better: "lower"},
	{Name: "pipeline.glue_ms", Unit: "ms", Better: "lower"},
	// One request, layer by layer (serve-mix).
	{Name: "pipeline.decode_ms", Unit: "ms", Better: "lower"},
	{Name: "pipeline.cachekey_ms", Unit: "ms", Better: "lower"},
	{Name: "pipeline.tracecache_get_ms", Unit: "ms", Better: "lower"},
	{Name: "pipeline.run_small_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.hit_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.tracehit_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.miss_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.handler_hit_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.net_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.hit_allocs", Unit: "count", Better: "lower"},
	{Name: "serve.miss_overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.result_hits", Unit: "count", Better: "higher"},
	{Name: "serve.result_misses", Unit: "count", Better: "lower"},
	{Name: "serve.trace_hits", Unit: "count", Better: "higher"},
	{Name: "serve.evictions", Unit: "count", Better: "lower"},
	{Name: "serve.shed", Unit: "count", Better: "lower"},
	{Name: "diskstore.result_put_ms", Unit: "ms", Better: "lower"},
	{Name: "diskstore.result_get_ms", Unit: "ms", Better: "lower"},
	// One sweep (sweep-grid).
	{Name: "sweep.plan_ms", Unit: "ms", Better: "lower"},
	{Name: "sweep.run_ms", Unit: "ms", Better: "lower"},
	{Name: "sweep.cells", Unit: "count", Better: "higher"},
	{Name: "sweep.trace_builds", Unit: "count", Better: "lower"},
	{Name: "sweep.partition_builds", Unit: "count", Better: "lower"},
	{Name: "sweep.dedup_ratio", Unit: "ratio", Better: "higher"},
	{Name: "sweep.naive_ms", Unit: "ms", Better: "lower"},
	{Name: "sweep.sharing_speedup", Unit: "x", Better: "higher"},
	{Name: "sweep.cells_per_s", Unit: "1/s", Better: "higher"},
	// One failure cycle (ckpt-cycle).
	{Name: "checkpoint.l3_ms", Unit: "ms", Better: "lower"},
	{Name: "checkpoint.restore_ms", Unit: "ms", Better: "lower"},
	{Name: "checkpoint.l3_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "checkpoint.glue_ms", Unit: "ms", Better: "lower"},
	{Name: "erasure.encode_ms", Unit: "ms", Better: "lower"},
	{Name: "erasure.encode_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "erasure.reconstruct_ms", Unit: "ms", Better: "lower"},
	{Name: "erasure.gf_bytes", Unit: "bytes", Better: "lower"},
	{Name: "erasure.xor_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "hybrid.recovery_ms", Unit: "ms", Better: "lower"},
	{Name: "simmpi.allgather256_ms", Unit: "ms", Better: "lower"},
	// The same three ops on every core with default worker counts.
	{Name: "pipeline.run_wn_ms", Unit: "ms", Better: "lower"},
	{Name: "sweep.run_wn_ms", Unit: "ms", Better: "lower"},
	{Name: "checkpoint.l3_wn_ms", Unit: "ms", Better: "lower"},
	// The driver and the host, on every workload.
	{Name: "driver.traced_ops", Unit: "count", Better: "higher"},
	{Name: "driver.cpu_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "driver.ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "driver.op_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "driver.op_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "driver.trace_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "process.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "host.calib_alu_ms", Unit: "ms", Better: "lower"},
	{Name: "host.calib_mem_ms", Unit: "ms", Better: "lower"},
	{Name: "host.nproc", Unit: "count", Better: "higher"},
}

// workloadNames is the fixed slice order of an interleaved run.
var workloadNames = []string{"eval-128k", "sweep-grid", "serve-mix", "ckpt-cycle"}
