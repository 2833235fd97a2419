package obs

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// pinnedSpans is a fixed event sequence: stage "scan" runs two tasks and
// ends, "join" fails on partition 1, recovers, commits a task, checkpoints a
// group and ends, "agg" commits a task whose stage span never ends, a
// restart and a stall follow, and "scan" ends a second time on the restarted
// attempt. withCheckpoint false drops the checkpoint write.
func pinnedSpans(withCheckpoint bool) []Span {
	t0 := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	at := func(kind Kind, name string, part int, from, to time.Duration) Span {
		return Span{Kind: kind, Name: name, Part: part, Attempt: 0, Start: t0.Add(from), End: t0.Add(to)}
	}
	var out []Span
	for p := 0; p < 2; p++ {
		sp := at(KindTask, "scan", p, 0, 2*time.Millisecond)
		sp.Rows, sp.Parts = 10+int64(p), 2
		out = append(out, sp)
	}
	scan := at(KindStage, "scan", -1, 0, 3*time.Millisecond)
	scan.Rows, scan.Parts = 21, 2
	out = append(out, scan)

	out = append(out, at(KindFailure, "join", 1, 4*time.Millisecond, 4*time.Millisecond))
	out = append(out, at(KindRecovery, "join", 1, 4*time.Millisecond, 6500*time.Microsecond))
	task := at(KindTask, "join", 1, 5*time.Millisecond, 6500*time.Microsecond)
	task.Rows, task.Parts, task.Recompute = 7, 2, true
	out = append(out, task)
	if withCheckpoint {
		ck := at(KindCheckpoint, "join", -1, 6500*time.Microsecond, 7250*time.Microsecond)
		ck.Parts, ck.Bytes, ck.Rows = 2, 4096, 7
		out = append(out, ck)
	}
	join := at(KindStage, "join", -1, 3*time.Millisecond, 8*time.Millisecond)
	join.Rows, join.Parts = 7, 2
	out = append(out, join)

	agg := at(KindTask, "agg", 0, 8*time.Millisecond, 9*time.Millisecond)
	agg.Rows, agg.Parts = 3, 1
	out = append(out, agg)
	out = append(out, at(KindFailure, "agg", 0, 9*time.Millisecond, 9*time.Millisecond))
	out = append(out, at(KindRestart, "agg", 0, 0, 9*time.Millisecond))
	out = append(out, at(KindStall, "agg", 0, 9*time.Millisecond, 9500*time.Microsecond))
	again := at(KindStage, "scan", -1, 10*time.Millisecond, 11500*time.Microsecond)
	again.Rows, again.Parts = 21, 2
	return append(out, again)
}

// foldPinned folds pinnedSpans into a fresh Exec and renders its exposition,
// its JSON registry snapshot and its JSON ExecSnapshot.
func foldPinned(t *testing.T, withCheckpoint bool) (prom, registry, snap string) {
	t.Helper()
	m := &Exec{}
	m.Batches.Add(5)
	for _, sp := range pinnedSpans(withCheckpoint) {
		m.Observe(sp)
	}
	var b strings.Builder
	if err := m.Registry().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	reg, err := json.Marshal(m.Registry().Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	s, err := json.Marshal(m.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	return b.String(), string(reg), string(s)
}

// TestExecExpositionPinned pins what the Exec fold exposes for a fixed event
// sequence, byte for byte: family and series order, label values, bucket
// counts, sums, the lazily created series (no wall series for "agg", whose
// stage span never ended; no checkpoint series before the first write) and
// the JSON snapshot the benchmark harness reads.
func TestExecExpositionPinned(t *testing.T) {
	for _, tc := range []struct {
		name                 string
		withCheckpoint       bool
		prom, registry, snap string
	}{
		{"one checkpoint", true, pinnedPromCheckpoint, pinnedRegistryCheckpoint, pinnedSnapCheckpoint},
		{"no checkpoint", false, pinnedPromNoCheckpoint, pinnedRegistryNoCheckpoint, pinnedSnapNoCheckpoint},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prom, registry, snap := foldPinned(t, tc.withCheckpoint)
			if prom != tc.prom {
				t.Errorf("exposition drifted:\n--- got\n%s--- want\n%s", prom, tc.prom)
			}
			if registry != tc.registry {
				t.Errorf("registry snapshot drifted:\n--- got\n%s\n--- want\n%s", registry, tc.registry)
			}
			if snap != tc.snap {
				t.Errorf("Exec snapshot drifted:\n--- got\n%s\n--- want\n%s", snap, tc.snap)
			}
		})
	}
}

// The literals below were captured from the fold before stage rows carried
// their own wall histograms; they must not change.

const pinnedPromCheckpoint = `# HELP ftpde_batches_total Vectorized batches handed from one operator to the next inside chained stages.
# TYPE ftpde_batches_total counter
ftpde_batches_total 5
# HELP ftpde_checkpoint_bytes_total Exact serialized size of written checkpoints.
# TYPE ftpde_checkpoint_bytes_total counter
ftpde_checkpoint_bytes_total 4096
# HELP ftpde_checkpoint_parts_total Partitions written to the fault-tolerant store.
# TYPE ftpde_checkpoint_parts_total counter
ftpde_checkpoint_parts_total 2
# HELP ftpde_checkpoint_write_seconds Latency of individual checkpoint store writes.
# TYPE ftpde_checkpoint_write_seconds histogram
ftpde_checkpoint_write_seconds_bucket{runtime="pipelined",le="1e-06"} 0
ftpde_checkpoint_write_seconds_bucket{runtime="pipelined",le="4e-06"} 0
ftpde_checkpoint_write_seconds_bucket{runtime="pipelined",le="1.6e-05"} 0
ftpde_checkpoint_write_seconds_bucket{runtime="pipelined",le="6.4e-05"} 0
ftpde_checkpoint_write_seconds_bucket{runtime="pipelined",le="0.000256"} 0
ftpde_checkpoint_write_seconds_bucket{runtime="pipelined",le="0.001024"} 1
ftpde_checkpoint_write_seconds_bucket{runtime="pipelined",le="0.004096"} 1
ftpde_checkpoint_write_seconds_bucket{runtime="pipelined",le="0.016384"} 1
ftpde_checkpoint_write_seconds_bucket{runtime="pipelined",le="0.065536"} 1
ftpde_checkpoint_write_seconds_bucket{runtime="pipelined",le="0.262144"} 1
ftpde_checkpoint_write_seconds_bucket{runtime="pipelined",le="1.048576"} 1
ftpde_checkpoint_write_seconds_bucket{runtime="pipelined",le="4.194304"} 1
ftpde_checkpoint_write_seconds_bucket{runtime="pipelined",le="16.777216"} 1
ftpde_checkpoint_write_seconds_bucket{runtime="pipelined",le="67.108864"} 1
ftpde_checkpoint_write_seconds_bucket{runtime="pipelined",le="+Inf"} 1
ftpde_checkpoint_write_seconds_sum{runtime="pipelined"} 0.00075
ftpde_checkpoint_write_seconds_count{runtime="pipelined"} 1
# HELP ftpde_failures_total Injected node failures observed by workers.
# TYPE ftpde_failures_total counter
ftpde_failures_total 2
# HELP ftpde_ledger_failures_total Failure entries recorded in the wasted-work ledger.
# TYPE ftpde_ledger_failures_total counter
ftpde_ledger_failures_total 2
# HELP ftpde_ledger_unresolved Failure entries not yet settled by a resolving attribution.
# TYPE ftpde_ledger_unresolved gauge
ftpde_ledger_unresolved 0
# HELP ftpde_recoveries_total Partitions recomputed by fine-grained recovery.
# TYPE ftpde_recoveries_total counter
ftpde_recoveries_total 1
# HELP ftpde_restarts_total Coarse-grained whole-query restarts.
# TYPE ftpde_restarts_total counter
ftpde_restarts_total 1
# HELP ftpde_rows_total Rows produced at stage sinks (committed partitions).
# TYPE ftpde_rows_total counter
ftpde_rows_total 31
# HELP ftpde_stage_rows_total Committed rows per stage.
# TYPE ftpde_stage_rows_total counter
ftpde_stage_rows_total{stage="agg"} 3
ftpde_stage_rows_total{stage="join"} 7
ftpde_stage_rows_total{stage="scan"} 21
# HELP ftpde_stage_wall_seconds Wall time of stage executions.
# TYPE ftpde_stage_wall_seconds histogram
ftpde_stage_wall_seconds_bucket{runtime="pipelined",stage="join",le="1e-06"} 0
ftpde_stage_wall_seconds_bucket{runtime="pipelined",stage="join",le="4e-06"} 0
ftpde_stage_wall_seconds_bucket{runtime="pipelined",stage="join",le="1.6e-05"} 0
ftpde_stage_wall_seconds_bucket{runtime="pipelined",stage="join",le="6.4e-05"} 0
ftpde_stage_wall_seconds_bucket{runtime="pipelined",stage="join",le="0.000256"} 0
ftpde_stage_wall_seconds_bucket{runtime="pipelined",stage="join",le="0.001024"} 0
ftpde_stage_wall_seconds_bucket{runtime="pipelined",stage="join",le="0.004096"} 0
ftpde_stage_wall_seconds_bucket{runtime="pipelined",stage="join",le="0.016384"} 1
ftpde_stage_wall_seconds_bucket{runtime="pipelined",stage="join",le="0.065536"} 1
ftpde_stage_wall_seconds_bucket{runtime="pipelined",stage="join",le="0.262144"} 1
ftpde_stage_wall_seconds_bucket{runtime="pipelined",stage="join",le="1.048576"} 1
ftpde_stage_wall_seconds_bucket{runtime="pipelined",stage="join",le="4.194304"} 1
ftpde_stage_wall_seconds_bucket{runtime="pipelined",stage="join",le="16.777216"} 1
ftpde_stage_wall_seconds_bucket{runtime="pipelined",stage="join",le="67.108864"} 1
ftpde_stage_wall_seconds_bucket{runtime="pipelined",stage="join",le="+Inf"} 1
ftpde_stage_wall_seconds_sum{runtime="pipelined",stage="join"} 0.005
ftpde_stage_wall_seconds_count{runtime="pipelined",stage="join"} 1
ftpde_stage_wall_seconds_bucket{runtime="pipelined",stage="scan",le="1e-06"} 0
ftpde_stage_wall_seconds_bucket{runtime="pipelined",stage="scan",le="4e-06"} 0
ftpde_stage_wall_seconds_bucket{runtime="pipelined",stage="scan",le="1.6e-05"} 0
ftpde_stage_wall_seconds_bucket{runtime="pipelined",stage="scan",le="6.4e-05"} 0
ftpde_stage_wall_seconds_bucket{runtime="pipelined",stage="scan",le="0.000256"} 0
ftpde_stage_wall_seconds_bucket{runtime="pipelined",stage="scan",le="0.001024"} 0
ftpde_stage_wall_seconds_bucket{runtime="pipelined",stage="scan",le="0.004096"} 2
ftpde_stage_wall_seconds_bucket{runtime="pipelined",stage="scan",le="0.016384"} 2
ftpde_stage_wall_seconds_bucket{runtime="pipelined",stage="scan",le="0.065536"} 2
ftpde_stage_wall_seconds_bucket{runtime="pipelined",stage="scan",le="0.262144"} 2
ftpde_stage_wall_seconds_bucket{runtime="pipelined",stage="scan",le="1.048576"} 2
ftpde_stage_wall_seconds_bucket{runtime="pipelined",stage="scan",le="4.194304"} 2
ftpde_stage_wall_seconds_bucket{runtime="pipelined",stage="scan",le="16.777216"} 2
ftpde_stage_wall_seconds_bucket{runtime="pipelined",stage="scan",le="67.108864"} 2
ftpde_stage_wall_seconds_bucket{runtime="pipelined",stage="scan",le="+Inf"} 2
ftpde_stage_wall_seconds_sum{runtime="pipelined",stage="scan"} 0.0045000000000000005
ftpde_stage_wall_seconds_count{runtime="pipelined",stage="scan"} 2
# HELP ftpde_wasted_events_total Number of waste attributions, by cause.
# TYPE ftpde_wasted_events_total counter
ftpde_wasted_events_total{cause="checkpoint_stall"} 1
ftpde_wasted_events_total{cause="recompute"} 1
ftpde_wasted_events_total{cause="restart"} 1
# HELP ftpde_wasted_seconds_total Wall time lost to failures and fault-tolerance overhead, by cause.
# TYPE ftpde_wasted_seconds_total counter
ftpde_wasted_seconds_total{cause="checkpoint_stall"} 0.0005
ftpde_wasted_seconds_total{cause="recompute"} 0.0025
ftpde_wasted_seconds_total{cause="restart"} 0.009
`

const pinnedRegistryCheckpoint = `{"families":[{"name":"ftpde_batches_total","help":"Vectorized batches handed from one operator to the next inside chained stages.","kind":"counter","series":[{"value":5}]},{"name":"ftpde_checkpoint_bytes_total","help":"Exact serialized size of written checkpoints.","kind":"counter","unit":"bytes","series":[{"value":4096}]},{"name":"ftpde_checkpoint_parts_total","help":"Partitions written to the fault-tolerant store.","kind":"counter","series":[{"value":2}]},{"name":"ftpde_checkpoint_write_seconds","help":"Latency of individual checkpoint store writes.","kind":"histogram","unit":"seconds","labels":["runtime"],"series":[{"label_values":["pipelined"],"value":0,"histogram":{"bounds":[0.000001,0.000004,0.000016,0.000064,0.000256,0.001024,0.004096,0.016384,0.065536,0.262144,1.048576,4.194304,16.777216,67.108864],"counts":[0,0,0,0,0,1,0,0,0,0,0,0,0,0,0],"count":1,"sum":0.00075,"min":0.00075,"max":0.00075}}]},{"name":"ftpde_failures_total","help":"Injected node failures observed by workers.","kind":"counter","series":[{"value":2}]},{"name":"ftpde_ledger_failures_total","help":"Failure entries recorded in the wasted-work ledger.","kind":"counter","series":[{"value":2}]},{"name":"ftpde_ledger_unresolved","help":"Failure entries not yet settled by a resolving attribution.","kind":"gauge","series":[{"value":0}]},{"name":"ftpde_recoveries_total","help":"Partitions recomputed by fine-grained recovery.","kind":"counter","series":[{"value":1}]},{"name":"ftpde_restarts_total","help":"Coarse-grained whole-query restarts.","kind":"counter","series":[{"value":1}]},{"name":"ftpde_rows_total","help":"Rows produced at stage sinks (committed partitions).","kind":"counter","series":[{"value":31}]},{"name":"ftpde_stage_rows_total","help":"Committed rows per stage.","kind":"counter","labels":["stage"],"series":[{"label_values":["agg"],"value":3},{"label_values":["join"],"value":7},{"label_values":["scan"],"value":21}]},{"name":"ftpde_stage_wall_seconds","help":"Wall time of stage executions.","kind":"histogram","unit":"seconds","labels":["runtime","stage"],"series":[{"label_values":["pipelined","join"],"value":0,"histogram":{"bounds":[0.000001,0.000004,0.000016,0.000064,0.000256,0.001024,0.004096,0.016384,0.065536,0.262144,1.048576,4.194304,16.777216,67.108864],"counts":[0,0,0,0,0,0,0,1,0,0,0,0,0,0,0],"count":1,"sum":0.005,"min":0.005,"max":0.005}},{"label_values":["pipelined","scan"],"value":0,"histogram":{"bounds":[0.000001,0.000004,0.000016,0.000064,0.000256,0.001024,0.004096,0.016384,0.065536,0.262144,1.048576,4.194304,16.777216,67.108864],"counts":[0,0,0,0,0,0,2,0,0,0,0,0,0,0,0],"count":2,"sum":0.0045000000000000005,"min":0.0015,"max":0.003}}]},{"name":"ftpde_wasted_events_total","help":"Number of waste attributions, by cause.","kind":"counter","labels":["cause"],"series":[{"label_values":["checkpoint_stall"],"value":1},{"label_values":["recompute"],"value":1},{"label_values":["restart"],"value":1}]},{"name":"ftpde_wasted_seconds_total","help":"Wall time lost to failures and fault-tolerance overhead, by cause.","kind":"counter","unit":"seconds","labels":["cause"],"series":[{"label_values":["checkpoint_stall"],"value":0.0005},{"label_values":["recompute"],"value":0.0025},{"label_values":["restart"],"value":0.009}]}]}`

const pinnedSnapCheckpoint = `{"batches":5,"rows":31,"checkpoint_parts":2,"checkpoint_bytes":4096,"failures":2,"recoveries":1,"restarts":1,"stages":[{"stage":"agg","wall_ns":0,"rows":3},{"stage":"join","wall_ns":5000000,"rows":7},{"stage":"scan","wall_ns":4500000,"rows":21}],"checkpoint_min_ns":750000,"checkpoint_avg_ns":750000,"checkpoint_max_ns":750000,"wasted_seconds":0.012}`

const pinnedPromNoCheckpoint = `# HELP ftpde_batches_total Vectorized batches handed from one operator to the next inside chained stages.
# TYPE ftpde_batches_total counter
ftpde_batches_total 5
# HELP ftpde_checkpoint_bytes_total Exact serialized size of written checkpoints.
# TYPE ftpde_checkpoint_bytes_total counter
ftpde_checkpoint_bytes_total 0
# HELP ftpde_checkpoint_parts_total Partitions written to the fault-tolerant store.
# TYPE ftpde_checkpoint_parts_total counter
ftpde_checkpoint_parts_total 0
# HELP ftpde_checkpoint_write_seconds Latency of individual checkpoint store writes.
# TYPE ftpde_checkpoint_write_seconds histogram
# HELP ftpde_failures_total Injected node failures observed by workers.
# TYPE ftpde_failures_total counter
ftpde_failures_total 2
# HELP ftpde_ledger_failures_total Failure entries recorded in the wasted-work ledger.
# TYPE ftpde_ledger_failures_total counter
ftpde_ledger_failures_total 2
# HELP ftpde_ledger_unresolved Failure entries not yet settled by a resolving attribution.
# TYPE ftpde_ledger_unresolved gauge
ftpde_ledger_unresolved 0
# HELP ftpde_recoveries_total Partitions recomputed by fine-grained recovery.
# TYPE ftpde_recoveries_total counter
ftpde_recoveries_total 1
# HELP ftpde_restarts_total Coarse-grained whole-query restarts.
# TYPE ftpde_restarts_total counter
ftpde_restarts_total 1
# HELP ftpde_rows_total Rows produced at stage sinks (committed partitions).
# TYPE ftpde_rows_total counter
ftpde_rows_total 31
# HELP ftpde_stage_rows_total Committed rows per stage.
# TYPE ftpde_stage_rows_total counter
ftpde_stage_rows_total{stage="agg"} 3
ftpde_stage_rows_total{stage="join"} 7
ftpde_stage_rows_total{stage="scan"} 21
# HELP ftpde_stage_wall_seconds Wall time of stage executions.
# TYPE ftpde_stage_wall_seconds histogram
ftpde_stage_wall_seconds_bucket{runtime="pipelined",stage="join",le="1e-06"} 0
ftpde_stage_wall_seconds_bucket{runtime="pipelined",stage="join",le="4e-06"} 0
ftpde_stage_wall_seconds_bucket{runtime="pipelined",stage="join",le="1.6e-05"} 0
ftpde_stage_wall_seconds_bucket{runtime="pipelined",stage="join",le="6.4e-05"} 0
ftpde_stage_wall_seconds_bucket{runtime="pipelined",stage="join",le="0.000256"} 0
ftpde_stage_wall_seconds_bucket{runtime="pipelined",stage="join",le="0.001024"} 0
ftpde_stage_wall_seconds_bucket{runtime="pipelined",stage="join",le="0.004096"} 0
ftpde_stage_wall_seconds_bucket{runtime="pipelined",stage="join",le="0.016384"} 1
ftpde_stage_wall_seconds_bucket{runtime="pipelined",stage="join",le="0.065536"} 1
ftpde_stage_wall_seconds_bucket{runtime="pipelined",stage="join",le="0.262144"} 1
ftpde_stage_wall_seconds_bucket{runtime="pipelined",stage="join",le="1.048576"} 1
ftpde_stage_wall_seconds_bucket{runtime="pipelined",stage="join",le="4.194304"} 1
ftpde_stage_wall_seconds_bucket{runtime="pipelined",stage="join",le="16.777216"} 1
ftpde_stage_wall_seconds_bucket{runtime="pipelined",stage="join",le="67.108864"} 1
ftpde_stage_wall_seconds_bucket{runtime="pipelined",stage="join",le="+Inf"} 1
ftpde_stage_wall_seconds_sum{runtime="pipelined",stage="join"} 0.005
ftpde_stage_wall_seconds_count{runtime="pipelined",stage="join"} 1
ftpde_stage_wall_seconds_bucket{runtime="pipelined",stage="scan",le="1e-06"} 0
ftpde_stage_wall_seconds_bucket{runtime="pipelined",stage="scan",le="4e-06"} 0
ftpde_stage_wall_seconds_bucket{runtime="pipelined",stage="scan",le="1.6e-05"} 0
ftpde_stage_wall_seconds_bucket{runtime="pipelined",stage="scan",le="6.4e-05"} 0
ftpde_stage_wall_seconds_bucket{runtime="pipelined",stage="scan",le="0.000256"} 0
ftpde_stage_wall_seconds_bucket{runtime="pipelined",stage="scan",le="0.001024"} 0
ftpde_stage_wall_seconds_bucket{runtime="pipelined",stage="scan",le="0.004096"} 2
ftpde_stage_wall_seconds_bucket{runtime="pipelined",stage="scan",le="0.016384"} 2
ftpde_stage_wall_seconds_bucket{runtime="pipelined",stage="scan",le="0.065536"} 2
ftpde_stage_wall_seconds_bucket{runtime="pipelined",stage="scan",le="0.262144"} 2
ftpde_stage_wall_seconds_bucket{runtime="pipelined",stage="scan",le="1.048576"} 2
ftpde_stage_wall_seconds_bucket{runtime="pipelined",stage="scan",le="4.194304"} 2
ftpde_stage_wall_seconds_bucket{runtime="pipelined",stage="scan",le="16.777216"} 2
ftpde_stage_wall_seconds_bucket{runtime="pipelined",stage="scan",le="67.108864"} 2
ftpde_stage_wall_seconds_bucket{runtime="pipelined",stage="scan",le="+Inf"} 2
ftpde_stage_wall_seconds_sum{runtime="pipelined",stage="scan"} 0.0045000000000000005
ftpde_stage_wall_seconds_count{runtime="pipelined",stage="scan"} 2
# HELP ftpde_wasted_events_total Number of waste attributions, by cause.
# TYPE ftpde_wasted_events_total counter
ftpde_wasted_events_total{cause="checkpoint_stall"} 1
ftpde_wasted_events_total{cause="recompute"} 1
ftpde_wasted_events_total{cause="restart"} 1
# HELP ftpde_wasted_seconds_total Wall time lost to failures and fault-tolerance overhead, by cause.
# TYPE ftpde_wasted_seconds_total counter
ftpde_wasted_seconds_total{cause="checkpoint_stall"} 0.0005
ftpde_wasted_seconds_total{cause="recompute"} 0.0025
ftpde_wasted_seconds_total{cause="restart"} 0.009
`

const pinnedRegistryNoCheckpoint = `{"families":[{"name":"ftpde_batches_total","help":"Vectorized batches handed from one operator to the next inside chained stages.","kind":"counter","series":[{"value":5}]},{"name":"ftpde_checkpoint_bytes_total","help":"Exact serialized size of written checkpoints.","kind":"counter","unit":"bytes","series":[{"value":0}]},{"name":"ftpde_checkpoint_parts_total","help":"Partitions written to the fault-tolerant store.","kind":"counter","series":[{"value":0}]},{"name":"ftpde_checkpoint_write_seconds","help":"Latency of individual checkpoint store writes.","kind":"histogram","unit":"seconds","labels":["runtime"],"series":[]},{"name":"ftpde_failures_total","help":"Injected node failures observed by workers.","kind":"counter","series":[{"value":2}]},{"name":"ftpde_ledger_failures_total","help":"Failure entries recorded in the wasted-work ledger.","kind":"counter","series":[{"value":2}]},{"name":"ftpde_ledger_unresolved","help":"Failure entries not yet settled by a resolving attribution.","kind":"gauge","series":[{"value":0}]},{"name":"ftpde_recoveries_total","help":"Partitions recomputed by fine-grained recovery.","kind":"counter","series":[{"value":1}]},{"name":"ftpde_restarts_total","help":"Coarse-grained whole-query restarts.","kind":"counter","series":[{"value":1}]},{"name":"ftpde_rows_total","help":"Rows produced at stage sinks (committed partitions).","kind":"counter","series":[{"value":31}]},{"name":"ftpde_stage_rows_total","help":"Committed rows per stage.","kind":"counter","labels":["stage"],"series":[{"label_values":["agg"],"value":3},{"label_values":["join"],"value":7},{"label_values":["scan"],"value":21}]},{"name":"ftpde_stage_wall_seconds","help":"Wall time of stage executions.","kind":"histogram","unit":"seconds","labels":["runtime","stage"],"series":[{"label_values":["pipelined","join"],"value":0,"histogram":{"bounds":[0.000001,0.000004,0.000016,0.000064,0.000256,0.001024,0.004096,0.016384,0.065536,0.262144,1.048576,4.194304,16.777216,67.108864],"counts":[0,0,0,0,0,0,0,1,0,0,0,0,0,0,0],"count":1,"sum":0.005,"min":0.005,"max":0.005}},{"label_values":["pipelined","scan"],"value":0,"histogram":{"bounds":[0.000001,0.000004,0.000016,0.000064,0.000256,0.001024,0.004096,0.016384,0.065536,0.262144,1.048576,4.194304,16.777216,67.108864],"counts":[0,0,0,0,0,0,2,0,0,0,0,0,0,0,0],"count":2,"sum":0.0045000000000000005,"min":0.0015,"max":0.003}}]},{"name":"ftpde_wasted_events_total","help":"Number of waste attributions, by cause.","kind":"counter","labels":["cause"],"series":[{"label_values":["checkpoint_stall"],"value":1},{"label_values":["recompute"],"value":1},{"label_values":["restart"],"value":1}]},{"name":"ftpde_wasted_seconds_total","help":"Wall time lost to failures and fault-tolerance overhead, by cause.","kind":"counter","unit":"seconds","labels":["cause"],"series":[{"label_values":["checkpoint_stall"],"value":0.0005},{"label_values":["recompute"],"value":0.0025},{"label_values":["restart"],"value":0.009}]}]}`

const pinnedSnapNoCheckpoint = `{"batches":5,"rows":31,"checkpoint_parts":0,"checkpoint_bytes":0,"failures":2,"recoveries":1,"restarts":1,"stages":[{"stage":"agg","wall_ns":0,"rows":3},{"stage":"join","wall_ns":5000000,"rows":7},{"stage":"scan","wall_ns":4500000,"rows":21}],"checkpoint_min_ns":0,"checkpoint_avg_ns":0,"checkpoint_max_ns":0,"wasted_seconds":0.012}`
