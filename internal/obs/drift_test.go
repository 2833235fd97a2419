package obs

import (
	"math"
	"strings"
	"testing"
	"time"

	"ftpde/internal/cost"
	"ftpde/internal/obs/metrics"
	"ftpde/internal/stats"
)

// driftEpoch is a fixed origin so detector tests never read the wall clock.
var driftEpoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// failureSpans converts arrival offsets (seconds since epoch) into failure
// spans, the shape both runtimes emit on an injected node failure.
func failureSpans(arrivals []float64) []Span {
	spans := make([]Span, len(arrivals))
	for i, a := range arrivals {
		ts := driftEpoch.Add(time.Duration(a * float64(time.Second)))
		spans[i] = Span{Kind: KindFailure, Name: "op", Part: 0, Start: ts, End: ts}
	}
	return spans
}

func recoverySpan(start, dur float64) Span {
	s := driftEpoch.Add(time.Duration(start * float64(time.Second)))
	return Span{Kind: KindRecovery, Name: "op", Part: 0,
		Start: s, End: s.Add(time.Duration(dur * float64(time.Second)))}
}

func TestDriftMTBFAcrossQueries(t *testing.T) {
	d := NewDriftDetector(DriftConfig{Nodes: 2, ModelMTBF: 100, K: 3})
	// Inter-arrivals of exactly 5s, split across queries: the detector must
	// remember the previous query's last failure to use every gap.
	d.ObserveQuery(Prediction{}, failureSpans([]float64{0, 5, 10}))
	d.ObserveQuery(Prediction{}, failureSpans([]float64{15, 20}))
	// Cluster mean 5s x 2 nodes = 10s per-node MTBF.
	if got := d.MTBF(); math.Abs(got-10) > 1e-9 {
		t.Errorf("MTBF = %g, want 10", got)
	}
}

func TestDriftMTTR(t *testing.T) {
	d := NewDriftDetector(DriftConfig{Nodes: 1, ModelMTTR: 1})
	d.ObserveQuery(Prediction{}, []Span{recoverySpan(0, 2), recoverySpan(10, 4)})
	if got := d.MTTR(); math.Abs(got-3) > 1e-9 {
		t.Errorf("MTTR = %g, want 3", got)
	}
}

func TestDriftFlagRequiresConsecutiveQueries(t *testing.T) {
	// Model assumes MTBF 100; observed inter-arrivals of 5s on one node put
	// the estimate at 5 — 19x off, far past the default 0.5 threshold.
	d := NewDriftDetector(DriftConfig{Nodes: 1, ModelMTBF: 100, K: 3})
	at := 0.0
	feed := func() {
		d.ObserveQuery(Prediction{}, failureSpans([]float64{at, at + 5}))
		at += 10
	}
	feed()
	if d.Flagged(DriftMTBF) {
		t.Fatal("flagged after 1 query, want K=3")
	}
	feed()
	if d.Flagged(DriftMTBF) {
		t.Fatal("flagged after 2 queries, want K=3")
	}
	// A failure-free query carries no MTBF signal and must not break the streak.
	d.ObserveQuery(Prediction{}, nil)
	feed()
	if !d.Flagged(DriftMTBF) {
		t.Fatal("not flagged after 3 contributing queries over threshold")
	}
	if d.Flagged(DriftMTTR) || d.Flagged(DriftTR) || d.Flagged(DriftTM) {
		t.Error("unrelated terms flagged")
	}
}

func TestDriftCorrectedModelOnlyFlaggedTerms(t *testing.T) {
	d := NewDriftDetector(DriftConfig{Nodes: 1, ModelMTBF: 100, ModelMTTR: 1, K: 2})
	base := cost.Model{MTBF: 100, MTTR: 1, Percentile: 0.95, Nodes: 1}
	if got := d.CorrectedModel(base); got != base {
		t.Fatalf("fresh detector altered the model: %+v", got)
	}
	for i := 0; i < 2; i++ {
		d.ObserveQuery(Prediction{}, failureSpans([]float64{float64(20 * i), float64(20*i + 5)}))
	}
	got := d.CorrectedModel(base)
	if !d.Flagged(DriftMTBF) {
		t.Fatal("mtbf not flagged")
	}
	if got.MTBF == base.MTBF {
		t.Error("flagged MTBF not corrected")
	}
	if got.MTTR != base.MTTR || got.Percentile != base.Percentile {
		t.Errorf("un-flagged terms changed: %+v", got)
	}
}

// trQuery builds a prediction plus spans where observed task wall is `factor`
// times the predicted tr and checkpoint wall `factor` times tm.
func trQuery(factor float64) (Prediction, []Span) {
	pred := Prediction{Ops: []OpPrediction{
		{Name: "{1}", Ops: []string{"scan"}, TR: 1, TM: 1, Runtime: 2},
	}}
	taskEnd := driftEpoch.Add(time.Duration(factor * float64(time.Second)))
	spans := []Span{
		{Kind: KindTask, Name: "scan", Part: 0, Attempt: 0, Start: driftEpoch, End: taskEnd},
		{Kind: KindCheckpoint, Name: "scan", Part: 0, Attempt: -1, Start: driftEpoch, End: taskEnd},
	}
	return pred, spans
}

func TestDriftTRFactorFlagsAndScalesParams(t *testing.T) {
	// Observed walls 4x prediction; EWMA with alpha 1 jumps straight to 4, so
	// relErr = (1-4)/4 = -0.75 exceeds the 0.5 threshold immediately.
	d := NewDriftDetector(DriftConfig{Nodes: 1, ModelMTBF: 100, K: 2, Alpha: 1})
	pred, spans := trQuery(4)
	d.ObserveQuery(pred, spans)
	d.ObserveQuery(pred, spans)
	if !d.Flagged(DriftTR) || !d.Flagged(DriftTM) {
		t.Fatalf("tr/tm not flagged: %+v", d.Snapshot())
	}
	base := stats.CostParams{CPUPerRow: 1e-6, WritePerRow: 2e-5, Nodes: 1}
	got := d.CorrectedParams(base)
	if math.Abs(got.CPUPerRow-4e-6) > 1e-12 {
		t.Errorf("CPUPerRow = %g, want 4e-6", got.CPUPerRow)
	}
	if math.Abs(got.WritePerRow-8e-5) > 1e-12 {
		t.Errorf("WritePerRow = %g, want 8e-5", got.WritePerRow)
	}
}

func TestDriftAccurateModelNeverFlags(t *testing.T) {
	d := NewDriftDetector(DriftConfig{Nodes: 1, ModelMTBF: 10, ModelMTTR: 2, K: 2})
	at := 0.0
	for i := 0; i < 10; i++ {
		spans := failureSpans([]float64{at, at + 10})
		spans = append(spans, recoverySpan(at+10, 2))
		d.ObserveQuery(Prediction{}, spans)
		at += 20
	}
	// Estimates match the model exactly (inter-arrivals alternate 10s within
	// a query and 10s across queries), so nothing may flag.
	snap := d.Snapshot()
	for _, term := range snap.Terms {
		if term.Flagged {
			t.Errorf("term %s flagged with an accurate model: %+v", term.Term, term)
		}
	}
}

func TestDriftSnapshotAndString(t *testing.T) {
	d := NewDriftDetector(DriftConfig{Nodes: 1, ModelMTBF: 100})
	d.ObserveQuery(Prediction{}, failureSpans([]float64{0, 5}))
	snap := d.Snapshot()
	if snap.Queries != 1 || len(snap.Terms) != 4 {
		t.Fatalf("snapshot = %+v", snap)
	}
	// Term-sorted: mtbf, mttr, tm, tr.
	order := []string{DriftMTBF, DriftMTTR, DriftTM, DriftTR}
	for i, term := range snap.Terms {
		if term.Term != order[i] {
			t.Fatalf("terms out of order: %+v", snap.Terms)
		}
	}
	out := snap.String()
	for _, want := range []string{"cost-model drift after 1 queries", "mtbf", "flagged"} {
		if !strings.Contains(out, want) {
			t.Errorf("String() missing %q:\n%s", want, out)
		}
	}
}

func TestDriftNilSafety(t *testing.T) {
	var d *DriftDetector
	d.ObserveQuery(Prediction{}, nil)
	if d.Flagged(DriftMTBF) || d.MTBF() != 0 || d.MTTR() != 0 {
		t.Error("nil detector reported state")
	}
	base := cost.Model{MTBF: 7}
	if d.CorrectedModel(base) != base {
		t.Error("nil detector altered model")
	}
	cp := stats.CostParams{CPUPerRow: 1}
	if d.CorrectedParams(cp) != cp {
		t.Error("nil detector altered params")
	}
	_ = d.Snapshot()
}

func TestRegisterDriftMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	d := NewDriftDetector(DriftConfig{Nodes: 1, ModelMTBF: 100, K: 1})
	RegisterDriftMetrics(reg, d)
	RegisterDriftMetrics(reg, d) // idempotent

	d.ObserveQuery(Prediction{}, failureSpans([]float64{0, 5}))
	snap := reg.Snapshot()
	fam := snap.Family("ftpde_cost_drift")
	if fam == nil || len(fam.Series) != 4 {
		t.Fatalf("ftpde_cost_drift family = %+v", fam)
	}
	mtbf := fam.Get(DriftMTBF)
	if mtbf == nil || mtbf.Value == 0 {
		t.Errorf("mtbf drift sample = %+v", mtbf)
	}
	flagged := snap.Family("ftpde_cost_drift_flagged").Get(DriftMTBF)
	if flagged == nil || flagged.Value != 1 {
		t.Errorf("mtbf flagged sample = %+v (K=1, should flag immediately)", flagged)
	}
}
