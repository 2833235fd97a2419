package obs

import (
	"encoding/json"
	"errors"
	"net/http/httptest"
	"strings"
	"testing"

	"ftpde/internal/obs/metrics"
)

// task is the event of a partition committed by stage name, one of parts.
func task(name string, rows int64, parts int) Span {
	return Span{Kind: KindTask, Name: name, Part: 0, Attempt: 0, Rows: rows, Parts: parts}
}

func TestProgressSnapshotFractionsAndETA(t *testing.T) {
	r := NewProgressRegistry(4)
	p := r.Begin("t1", "aggregate")
	p.SetPrediction(10, map[string]StagePrediction{"scan": {Group: 0, Runtime: 4}, "aggregate": {Group: 1, Runtime: 6}})

	p.Observe(task("scan", 100, 4))
	p.Observe(task("scan", 50, 4))
	failed := task("scan", 70, 4)
	failed.Err = "node failure"
	p.Observe(failed)
	p.Observe(task("aggregate", 10, 4))
	p.Observe(Span{Kind: KindCheckpoint, Name: "aggregate", Part: -1, Bytes: 2048, Parts: 1})

	snap := p.Snapshot()
	if len(snap.Stages) != 2 {
		t.Fatalf("stages = %d, want 2", len(snap.Stages))
	}
	if snap.Stages[0].Name != "scan" || snap.Stages[0].DoneParts != 2 || snap.Stages[0].Rows != 150 {
		t.Errorf("scan stage = %+v", snap.Stages[0])
	}
	if snap.Stages[1].CheckpointBytes != 2048 {
		t.Errorf("aggregate ckpt bytes = %d, want 2048", snap.Stages[1].CheckpointBytes)
	}
	// 3 of 8 parts done.
	if want := 3.0 / 8.0; snap.Frac != want {
		t.Errorf("frac = %g, want %g", snap.Frac, want)
	}
	// ETA from per-group predictions: 4*(1-0.5) + 6*(1-0.25) = 6.5.
	if want := 4*0.5 + 6*0.75; snap.EtaSeconds != want {
		t.Errorf("eta = %g, want %g", snap.EtaSeconds, want)
	}
	if snap.Attempts != 1 || snap.Done {
		t.Errorf("attempts=%d done=%v, want 1/false", snap.Attempts, snap.Done)
	}
}

// A collapsed group that runs as several runtime stages is one term of the
// ETA, weighted by the done fraction of all its stages' partitions.
func TestProgressETACountsEachGroupOnce(t *testing.T) {
	p := NewProgressRegistry(1).Begin("", "q")
	p.SetPrediction(5, map[string]StagePrediction{
		"scan": {Group: 0, Runtime: 5}, "agg-partial": {Group: 0, Runtime: 5}, "aggregate": {Group: 0, Runtime: 5},
		"sort": {Group: 1, Runtime: 1},
	})
	if got := p.Snapshot().EtaSeconds; got != 6 {
		t.Errorf("eta at zero progress = %g, want the summed group prediction 6", got)
	}
	p.Observe(task("scan", 1, 2))
	p.Observe(task("scan", 1, 2))
	p.Observe(task("aggregate", 1, 2))
	p.Observe(Span{Kind: KindTask, Name: "aggregate", Part: 1, Parts: 2, Err: "node failure"})
	// Group 0 holds 3 of its 4 reported partitions; sort has not reported.
	if got, want := p.Snapshot().EtaSeconds, 5*0.25+1; got != want {
		t.Errorf("eta = %g, want %g", got, want)
	}
}

func TestProgressUndoneAndRestart(t *testing.T) {
	r := NewProgressRegistry(0)
	p := r.Begin("", "q")
	p.Observe(task("join", 10, 2))
	p.Observe(task("join", 20, 2))
	p.Observe(Span{Kind: KindCheckpoint, Name: "join", Part: -1, Bytes: 100, Parts: 2})
	p.Observe(Span{Kind: KindLost, Name: "join", Part: 1, Rows: 20, Parts: 2})
	snap := p.Snapshot()
	if snap.Stages[0].DoneParts != 1 || snap.Stages[0].Rows != 10 {
		t.Errorf("after loss: %+v", snap.Stages[0])
	}

	p.Observe(Span{Kind: KindRestart, Name: "join", Part: 1, Attempt: 1})
	snap = p.Snapshot()
	if snap.Attempts != 2 || snap.Failures != 1 {
		t.Errorf("attempts=%d failures=%d, want 2/1", snap.Attempts, snap.Failures)
	}
	if snap.Stages[0].DoneParts != 0 || snap.Stages[0].Rows != 0 {
		t.Errorf("restart did not reset stage: %+v", snap.Stages[0])
	}
	// Checkpoint bytes persist across restarts: restored partitions were paid for.
	if snap.Stages[0].CheckpointBytes != 100 {
		t.Errorf("restart cleared checkpoint bytes: %+v", snap.Stages[0])
	}
	p.Observe(Span{Kind: KindRestore, Name: "join", Part: 0, Rows: 10, Parts: 2})
	p.Observe(Span{Kind: KindRecovery, Name: "join", Part: 0})
	if snap = p.Snapshot(); snap.Stages[0].DoneParts != 1 || snap.Stages[0].Rows != 10 || snap.Failures != 2 {
		t.Errorf("after restore and recovery: %+v", snap)
	}
}

// A landed checkpoint adds its bytes to its stage; a failed write or one of a
// stage that has not reported adds nothing.
func TestProgressAddCheckpointBytesFor(t *testing.T) {
	r := NewProgressRegistry(0)
	p := r.Begin("", "q")
	p.Observe(task("scan", 1, 2))
	p.Observe(Span{Kind: KindCheckpoint, Name: "scan", Part: -1, Bytes: 7, Parts: 1})
	p.Observe(Span{Kind: KindCheckpoint, Name: "scan", Part: -1, Bytes: 5, Parts: 1, Err: "disk full"})
	p.Observe(Span{Kind: KindCheckpoint, Name: "missing", Part: -1, Bytes: 3, Parts: 1})
	snap := p.Snapshot()
	if len(snap.Stages) != 1 || snap.Stages[0].CheckpointBytes != 7 {
		t.Errorf("stages = %+v, want scan with 7 checkpoint bytes", snap.Stages)
	}
}

func TestProgressNilSafety(t *testing.T) {
	var p *Progress
	var r *ProgressRegistry
	p.SetPrediction(1, nil)
	for _, k := range []Kind{KindTask, KindRestore, KindLost, KindCheckpoint, KindRecovery, KindRestart} {
		p.Observe(Span{Kind: k, Name: "x"})
	}
	if p.ID() != 0 {
		t.Error("nil progress has non-zero ID")
	}
	_ = p.Snapshot()
	if got := r.Begin("t", "q"); got != nil {
		t.Error("nil registry Begin returned non-nil progress")
	}
	r.End(nil, nil)
	_ = r.snapshot()
}

func TestProgressRegistryLifecycle(t *testing.T) {
	r := NewProgressRegistry(2)
	a := r.Begin("t1", "qa")
	b := r.Begin("t2", "qb")
	if a.ID() == b.ID() || a.ID() == 0 {
		t.Fatalf("ids not unique: %d %d", a.ID(), b.ID())
	}
	snap := r.snapshot()
	if len(snap.Active) != 2 || len(snap.Recent) != 0 {
		t.Fatalf("active=%d recent=%d, want 2/0", len(snap.Active), len(snap.Recent))
	}
	if snap.Active[0].ID != a.ID() {
		t.Error("active not sorted by id")
	}

	r.End(a, nil)
	r.End(b, errors.New("boom"))
	c := r.Begin("t3", "qc")
	d := r.Begin("t4", "qd")
	r.End(c, nil)
	r.End(d, nil)
	snap = r.snapshot()
	if len(snap.Active) != 0 {
		t.Errorf("active = %d, want 0", len(snap.Active))
	}
	// keep=2: only the two newest completions survive, newest first.
	if len(snap.Recent) != 2 || snap.Recent[0].ID != d.ID() || snap.Recent[1].ID != c.ID() {
		t.Fatalf("recent = %+v, want [qd qc]", snap.Recent)
	}
	if !snap.Recent[0].Done {
		t.Error("recent query not marked done")
	}
}

func TestProgressRegistryServeHTTP(t *testing.T) {
	r := NewProgressRegistry(4)
	p := r.Begin("t1", "q1")
	p.Observe(task("scan", 5, 2))
	done := r.Begin("t2", "q2")
	r.End(done, errors.New("exhausted"))

	rec := httptest.NewRecorder()
	r.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/queries", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type = %q", ct)
	}
	var snap queriesSnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, rec.Body.String())
	}
	if len(snap.Active) != 1 || snap.Active[0].Name != "q1" {
		t.Errorf("active = %+v", snap.Active)
	}
	if len(snap.Recent) != 1 || snap.Recent[0].Err != "exhausted" {
		t.Errorf("recent = %+v", snap.Recent)
	}
	if !strings.Contains(rec.Body.String(), `"done_parts": 1`) {
		t.Errorf("stage progress missing from body:\n%s", rec.Body.String())
	}
}

func TestRegisterProgressMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	r := NewProgressRegistry(4)
	RegisterProgressMetrics(reg, r)
	RegisterProgressMetrics(reg, r) // idempotent

	p := r.Begin("t", "q")
	q := r.Begin("t", "q2")
	r.End(q, nil)

	got := map[string]float64{}
	for _, fam := range reg.Snapshot().Families {
		if len(fam.Series) == 1 {
			got[fam.Name] = fam.Series[0].Value
		}
	}
	if got["ftpde_queries_inflight"] != 1 {
		t.Errorf("inflight = %g, want 1", got["ftpde_queries_inflight"])
	}
	if got["ftpde_queries_tracked_total"] != 2 {
		t.Errorf("tracked = %g, want 2", got["ftpde_queries_tracked_total"])
	}
	r.End(p, nil)
}

func TestStagePredictions(t *testing.T) {
	pred := Prediction{Ops: []OpPrediction{
		{Name: "{1,2}", Ops: []string{"scan-a", "filter-a"}, Runtime: 3},
		{Name: "{3}", Ops: []string{"join-1"}, Runtime: 5},
	}}
	m := StagePredictions(pred)
	if m["scan-a"] != (StagePrediction{0, 3}) || m["filter-a"] != (StagePrediction{0, 3}) || m["join-1"] != (StagePrediction{1, 5}) {
		t.Errorf("stage predictions = %v", m)
	}
}
