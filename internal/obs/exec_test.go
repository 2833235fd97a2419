package obs

import (
	"testing"
	"time"

	"ftpde/internal/obs/metrics"
)

// TestExecNilSafety pins the disabled-metrics contract: every method on a nil
// *Exec and nil *Ledger is a no-op, so uninstrumented paths pay nothing.
func TestExecNilSafety(t *testing.T) {
	var m *Exec
	for _, k := range []Kind{KindTask, KindStage, KindCheckpoint, KindFailure, KindRecovery, KindRestart, KindStall} {
		m.Observe(Span{Kind: k, Name: "scan", Rows: 5})
	}
	m.Ledger().Fail("scan", 0)
	m.Ledger().Attribute(metrics.CauseRecompute, "scan", 0, time.Millisecond)
	if m.Registry() != nil {
		t.Error("nil Exec returned a registry")
	}
	if s := m.Snapshot(); s.Rows != 0 {
		t.Errorf("nil Exec snapshot = %+v", s)
	}
}

// span returns an event of kind for name lasting d.
func span(kind Kind, name string, d time.Duration) Span {
	start := time.Now()
	return Span{Kind: kind, Name: name, Part: -1, Attempt: -1, Start: start, End: start.Add(d)}
}

func TestExecHistogramsFeedSnapshot(t *testing.T) {
	m := &Exec{}
	for _, d := range []time.Duration{2 * time.Millisecond, 4 * time.Millisecond} {
		sp := span(KindCheckpoint, "join", d)
		sp.Parts, sp.Bytes = 2, 100
		m.Observe(sp)
	}
	failed := span(KindCheckpoint, "join", time.Second)
	failed.Err = "disk full"
	m.Observe(failed)
	m.Observe(span(KindStage, "scan", 3*time.Millisecond))
	task := span(KindTask, "scan", time.Millisecond)
	task.Rows = 9
	m.Observe(task)
	s := m.Snapshot()
	if s.CheckpointMin != 2*time.Millisecond || s.CheckpointMax != 4*time.Millisecond {
		t.Errorf("checkpoint min/max = %v/%v, want 2ms/4ms", s.CheckpointMin, s.CheckpointMax)
	}
	if s.CheckpointAvg != 3*time.Millisecond {
		t.Errorf("checkpoint avg = %v, want 3ms", s.CheckpointAvg)
	}
	if s.CheckpointParts != 4 || s.CheckpointBytes != 200 {
		t.Errorf("checkpoint parts/bytes = %d/%d, want 4/200 (failed write not counted)", s.CheckpointParts, s.CheckpointBytes)
	}
	if len(s.Stages) != 1 || s.Stages[0] != (StageMetric{Stage: "scan", WallNS: 3 * time.Millisecond, Rows: 9}) {
		t.Errorf("stage table = %+v", s.Stages)
	}
	reg := m.Registry().Snapshot()
	hist := reg.Family("ftpde_checkpoint_write_seconds")
	if hist == nil || len(hist.Series) != 1 {
		t.Fatalf("checkpoint histogram family missing its series: %+v", hist)
	}
	if got := hist.Get(runtimeLabel); got == nil || got.Hist.Count != 2 {
		t.Errorf("pipelined checkpoint series = %+v", got)
	}
	if rows := reg.Family("ftpde_stage_rows_total").Get("scan"); rows == nil || rows.Value != 9 {
		t.Errorf("stage rows series = %+v", rows)
	}
}

// The ledger books a failure per failure event and each recovery window,
// aborted attempt and blocking barrier at its span's duration.
func TestExecLedgerFold(t *testing.T) {
	m := &Exec{}
	m.Observe(span(KindFailure, "join", 0))
	m.Observe(span(KindRecovery, "join", 3*time.Millisecond))
	m.Observe(span(KindFailure, "agg", 0))
	m.Observe(span(KindRestart, "agg", 5*time.Millisecond))
	m.Observe(span(KindStall, "agg", 2*time.Millisecond))
	led := m.Ledger().Snapshot()
	if led.Failures != 2 || led.Unresolved != 0 || len(led.Paired()) != 0 {
		t.Errorf("ledger = %s", led)
	}
	for cause, want := range map[metrics.Cause]float64{
		metrics.CauseRecompute: 0.003, metrics.CauseRestart: 0.005, metrics.CauseCheckpointStall: 0.002,
	} {
		if got := led.Seconds(cause); got != want {
			t.Errorf("%s = %g s, want %g", cause, got, want)
		}
	}
	if s := m.Snapshot(); s.Failures != 2 || s.Restarts != 1 {
		t.Errorf("failures/restarts = %d/%d, want 2/1", s.Failures, s.Restarts)
	}
}
