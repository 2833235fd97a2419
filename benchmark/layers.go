package main

// perLayer are the metrics of single layers (a layer is a package under
// internal/), reported by the traced run. A workload reports a layer's
// metrics as measured when that layer is on its path and as 0 when it is
// not; README.md says which workload measures which and which end-to-end
// metric each is expected to move. ft.* are the paper's comparison on the
// real runtime, bench.* the harness's own quality.
var perLayer = []spec{
	{Name: "service.submit_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "service.wire_overhead_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "service.admission_wait_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "service.self_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "service.pool_utilization_mean", Unit: "ratio", Better: "higher"},
	{Name: "service.queue_depth_max", Unit: "count", Better: "lower"},
	{Name: "service.completed", Unit: "count", Better: "higher"},
	{Name: "service.rejected", Unit: "count", Better: "lower"},

	{Name: "sql.parse_us", Unit: "us", Better: "lower"},
	{Name: "sql.collect_stats_ms", Unit: "ms", Better: "lower"},
	{Name: "sql.costplan_us", Unit: "us", Better: "lower"},
	{Name: "sql.compile_us", Unit: "us", Better: "lower"},
	{Name: "sql.auditplan_us", Unit: "us", Better: "lower"},

	{Name: "core.optimize_tpch_us", Unit: "us", Better: "lower"},
	{Name: "core.findbest_q5_top20_ms", Unit: "ms", Better: "lower"},
	{Name: "core.optimize_dag_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "core.ftplans_total", Unit: "count", Better: "lower"},
	{Name: "core.ftplans_enumerated", Unit: "count", Better: "lower"},
	{Name: "core.ftplans_scored_frac", Unit: "ratio", Better: "lower"},
	{Name: "core.paths_evaluated", Unit: "count", Better: "lower"},
	{Name: "core.rule1_bound", Unit: "count", Better: "higher"},
	{Name: "core.rule2_bound", Unit: "count", Better: "higher"},
	{Name: "core.rule3_stopped", Unit: "count", Better: "higher"},

	{Name: "cost.collapse_us", Unit: "us", Better: "lower"},
	{Name: "cost.estimate_us", Unit: "us", Better: "lower"},
	{Name: "join.topk_q5_ms", Unit: "ms", Better: "lower"},

	{Name: "runtime.exec_q1_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.exec_q3_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.exec_q5_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.exec_q5_workers1_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.rows_per_s", Unit: "1/s", Better: "higher"},
	{Name: "runtime.batches_per_op", Unit: "count", Better: "lower"},
	{Name: "runtime.rows_per_op", Unit: "count", Better: "lower"},
	{Name: "runtime.stage_wall_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "runtime.stage_busy_frac", Unit: "ratio", Better: "higher"},
	{Name: "runtime.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "runtime.heap_peak_mb", Unit: "MB", Better: "lower"},
	{Name: "runtime.failures", Unit: "count", Better: "lower"},
	{Name: "runtime.recomputed_parts", Unit: "count", Better: "lower"},
	{Name: "runtime.restarts", Unit: "count", Better: "lower"},
	{Name: "runtime.materialized_parts", Unit: "count", Better: "lower"},
	{Name: "runtime.wasted_s", Unit: "s", Better: "lower"},
	{Name: "runtime.ckpt_bytes", Unit: "B", Better: "lower"},
	{Name: "runtime.ckpt_avg_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.ckpt_max_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.ckpt_stall_s", Unit: "s", Better: "lower"},

	{Name: "engine.scan_filter_ns_row", Unit: "ns", Better: "lower"},
	{Name: "engine.project_ns_row", Unit: "ns", Better: "lower"},
	{Name: "engine.hashagg_ns_row", Unit: "ns", Better: "lower"},
	{Name: "engine.hashjoin_ns_row", Unit: "ns", Better: "lower"},
	{Name: "engine.exchange_ns_row", Unit: "ns", Better: "lower"},
	{Name: "engine.sort_ns_row", Unit: "ns", Better: "lower"},
	{Name: "engine.colblock_encode_ns_row", Unit: "ns", Better: "lower"},
	{Name: "engine.colblock_decode_ns_row", Unit: "ns", Better: "lower"},
	{Name: "engine.colblock_bytes_row", Unit: "B", Better: "lower"},
	{Name: "engine.diskstore_put_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.diskstore_get_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.arena_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "engine.staged_q3_ms", Unit: "ms", Better: "lower"},

	{Name: "obs.overhead_frac", Unit: "ratio", Better: "lower"},
	{Name: "obs.spans_per_op", Unit: "count", Better: "lower"},
	{Name: "obs.spans_dropped", Unit: "count", Better: "lower"},
	{Name: "obs.drift_observe_us", Unit: "us", Better: "lower"},

	{Name: "tpch.generate_s", Unit: "s", Better: "lower"},
	{Name: "tpch.rows_total", Unit: "count", Better: "higher"},

	{Name: "ft.clean_total_s", Unit: "s", Better: "lower"},
	{Name: "ft.costbased_overhead", Unit: "ratio", Better: "lower"},
	{Name: "ft.allmat_overhead", Unit: "ratio", Better: "lower"},
	{Name: "ft.lineage_overhead", Unit: "ratio", Better: "lower"},
	{Name: "ft.restart_overhead", Unit: "ratio", Better: "lower"},
	{Name: "ft.costbased_regret", Unit: "ratio", Better: "lower"},
	{Name: "ft.ckpt_bytes_per_row", Unit: "B", Better: "lower"},

	{Name: "bench.loadgen_lag_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.trace_overhead_frac", Unit: "ratio", Better: "lower"},
}
