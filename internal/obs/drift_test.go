package obs

import (
	"fmt"
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
	d := NewDriftDetector(DriftConfig{Nodes: 2, ModelMTBF: 100})
	// Inter-arrivals of exactly 5s, split across queries: the detector must
	// remember the previous query's last failure to use every gap.
	d.ObserveQuery(Prediction{}, failureSpans([]float64{0, 5, 10}))
	d.ObserveQuery(Prediction{}, failureSpans([]float64{15, 20}))
	// Cluster mean 5s x 2 nodes = 10s per-node MTBF.
	if got := d.Snapshot().MTBF.PerNode; math.Abs(got-10) > 1e-9 {
		t.Errorf("MTBF = %g, want 10", got)
	}
}

func TestDriftMTTR(t *testing.T) {
	d := NewDriftDetector(DriftConfig{Nodes: 1, ModelMTTR: 1})
	d.ObserveQuery(Prediction{}, []Span{recoverySpan(0, 2), recoverySpan(10, 4)})
	if got := d.Snapshot().Term(DriftMTTR).Estimate; math.Abs(got-3) > 1e-9 {
		t.Errorf("MTTR = %g, want 3", got)
	}
}

// TestDriftMTTRMean checks that the snapshot's MTTR term is the plain mean of
// the recovery windows and counts each one.
func TestDriftMTTRMean(t *testing.T) {
	d := NewDriftDetector(DriftConfig{Nodes: 1, ModelMTTR: 1})
	d.ObserveQuery(Prediction{}, []Span{recoverySpan(0, 1), recoverySpan(5, 3)})
	if mttr := d.Snapshot().Term(DriftMTTR); mttr.Samples != 2 || mttr.Estimate != 2 {
		t.Errorf("MTTR = %g/%d, want 2/2", mttr.Estimate, mttr.Samples)
	}
}

func TestDriftFlagRequiresConsecutiveQueries(t *testing.T) {
	// Model assumes MTBF 100; observed inter-arrivals of 5s on one node put
	// the estimate at 5 — 19x off, far past the default 0.5 threshold.
	d := NewDriftDetector(DriftConfig{Nodes: 1, ModelMTBF: 100})
	at := 0.0
	feed := func() {
		d.ObserveQuery(Prediction{}, failureSpans([]float64{at, at + 5}))
		at += 10
	}
	feed()
	if d.Snapshot().Term(driftMTBF).Flagged {
		t.Fatal("flagged after 1 query, want K=3")
	}
	feed()
	if d.Snapshot().Term(driftMTBF).Flagged {
		t.Fatal("flagged after 2 queries, want K=3")
	}
	// A failure-free query carries no MTBF signal and must not break the streak.
	d.ObserveQuery(Prediction{}, nil)
	feed()
	if !d.Snapshot().Term(driftMTBF).Flagged {
		t.Fatal("not flagged after 3 contributing queries over threshold")
	}
	if d.Snapshot().Term(DriftMTTR).Flagged || d.Snapshot().Term(DriftTR).Flagged || d.Snapshot().Term(DriftTM).Flagged {
		t.Error("unrelated terms flagged")
	}
}

func TestDriftCorrectedModelOnlyFlaggedTerms(t *testing.T) {
	d := NewDriftDetector(DriftConfig{Nodes: 1, ModelMTBF: 100, ModelMTTR: 1})
	base := cost.Model{MTBF: 100, MTTR: 1, Percentile: 0.95, Nodes: 1}
	if got := d.CorrectedModel(base); got != base {
		t.Fatalf("fresh detector altered the model: %+v", got)
	}
	for i := 0; i < driftK; i++ {
		d.ObserveQuery(Prediction{}, failureSpans([]float64{float64(20 * i), float64(20*i + 5)}))
	}
	got := d.CorrectedModel(base)
	if !d.Snapshot().Term(driftMTBF).Flagged {
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
	// Observed walls 4x prediction: the pooled slope is 4 from the first
	// query, so relErr = (1-4)/4 = -0.75 exceeds the 0.5 threshold on each.
	d := NewDriftDetector(DriftConfig{Nodes: 1, ModelMTBF: 100})
	pred, spans := trQuery(4)
	for i := 0; i < driftK; i++ {
		d.ObserveQuery(pred, spans)
	}
	if !d.Snapshot().Term(DriftTR).Flagged || !d.Snapshot().Term(DriftTM).Flagged {
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
	d := NewDriftDetector(DriftConfig{Nodes: 1, ModelMTBF: 10, ModelMTTR: 2})
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
		if term.Flagged || term.Consecutive != 0 {
			t.Errorf("term %s drifting with an accurate model: %+v", term.Term, term)
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
	order := []string{driftMTBF, DriftMTTR, DriftTM, DriftTR}
	for i, term := range snap.Terms {
		if term.Term != order[i] {
			t.Fatalf("terms out of order: %+v", snap.Terms)
		}
	}
	// The snapshot carries the MTBF fit with its interval: one 5s gap.
	if fit := snap.MTBF; fit.Samples != 1 || fit.PerNode != 5 || !(fit.Lo < 5 && 5 < fit.Hi) {
		t.Errorf("snapshot MTBF fit = %+v, want 5s inside its interval", fit)
	}
	if got := snap.Term(driftMTBF); got.Estimate != snap.MTBF.PerNode {
		t.Errorf("mtbf term %+v disagrees with the fit %+v", got, snap.MTBF)
	}
	out := snap.String()
	for _, want := range []string{"cost-model drift after 1 queries", "mtbf", "flagged", "MTBF per node: 5s (95% CI"} {
		if !strings.Contains(out, want) {
			t.Errorf("String() missing %q:\n%s", want, out)
		}
	}
}

func TestDriftNilSafety(t *testing.T) {
	var d *DriftDetector
	d.ObserveQuery(Prediction{}, nil)
	if d.Snapshot().Term(driftMTBF).Flagged || d.Snapshot().MTBF.PerNode != 0 || d.Snapshot().Term(DriftMTTR).Estimate != 0 {
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
	d := NewDriftDetector(DriftConfig{Nodes: 1, ModelMTBF: 100})
	RegisterDriftMetrics(reg, d)
	RegisterDriftMetrics(reg, d) // idempotent

	for i := 0; i < driftK; i++ {
		d.ObserveQuery(Prediction{}, failureSpans([]float64{float64(10 * i), float64(10*i + 5)}))
	}
	snap := reg.Snapshot()
	fam := familyOf(snap, "ftpde_cost_drift")
	if fam == nil || len(fam.Series) != 4 {
		t.Fatalf("ftpde_cost_drift family = %+v", fam)
	}
	mtbf := series(fam, driftMTBF)
	if mtbf == nil || mtbf.Value == 0 {
		t.Errorf("mtbf drift sample = %+v", mtbf)
	}
	flagged := series(familyOf(snap, "ftpde_cost_drift_flagged"), driftMTBF)
	if flagged == nil || flagged.Value != 1 {
		t.Errorf("mtbf flagged sample = %+v (driftK queries over threshold)", flagged)
	}
}

func TestDriftOutOfOrderFailuresCountEachGapOnce(t *testing.T) {
	// Concurrent queries finish out of failure order: the failure at 15 is
	// reported after the one at 20. Counting from 15 would cover 15→20
	// twice; it is dropped, so the gaps cover 10→30 exactly once.
	d := NewDriftDetector(DriftConfig{Nodes: 1, ModelMTBF: 100})
	d.ObserveQuery(Prediction{}, failureSpans([]float64{10, 20}))
	d.ObserveQuery(Prediction{}, failureSpans([]float64{15}))
	d.ObserveQuery(Prediction{}, failureSpans([]float64{30}))
	if got := d.Snapshot().MTBF.PerNode; got != 10 {
		t.Errorf("MTBF = %g, want 10 (gaps 10 and 10)", got)
	}
	if n := d.Snapshot().MTBF.Samples; n != 2 {
		t.Errorf("inter-arrivals = %d, want 2", n)
	}
}

func TestDriftObserveArrivalsSortsAndDiffs(t *testing.T) {
	d := NewDriftDetector(DriftConfig{Nodes: 1, ModelMTBF: 100})
	d.ObserveArrivals([]float64{30, 10, 20}) // unsorted on purpose
	if fit := d.Snapshot().MTBF; fit.Samples != 2 || fit.PerNode != 10 {
		t.Fatalf("fit = %+v, want 2 gaps of mean 10", fit)
	}
	// The log does not share the spans' clock: the first failure span
	// starts a new chain instead of measuring a gap from the log.
	d.ObserveQuery(Prediction{}, failureSpans([]float64{0, 4}))
	if fit := d.Snapshot().MTBF; fit.Samples != 3 || fit.PerNode != 8 {
		t.Errorf("fit = %+v, want gaps 10, 10, 4", fit)
	}
	// A single arrival carries no inter-arrival information.
	d2 := NewDriftDetector(DriftConfig{Nodes: 1})
	d2.ObserveArrivals([]float64{5})
	if n := d2.Snapshot().MTBF.Samples; n != 0 {
		t.Errorf("single arrival produced %d inter-arrivals", n)
	}
}

func TestDriftEmptyDetectorIsInvalid(t *testing.T) {
	snap := NewDriftDetector(DriftConfig{Nodes: 4}).Snapshot()
	if snap.MTBF.Valid() {
		t.Errorf("empty detector claims a valid MTBF: %+v", snap.MTBF)
	}
	if mttr := snap.Term(DriftMTTR); mttr.Estimate != 0 || mttr.Samples != 0 {
		t.Errorf("empty MTTR = %+v", mttr)
	}
	if tr, tm := snap.Term(DriftTR), snap.Term(DriftTM); tr.Estimate != 1 || tm.Estimate != 1 {
		t.Errorf("empty factors = %g/%g, want 1/1", tr.Estimate, tm.Estimate)
	}
}

func TestDriftFactorsFitSlopeThroughOrigin(t *testing.T) {
	// Observations exactly 1.5x the tr predictions and 0.5x the tm
	// predictions; a fourth group predicts nothing and carries no signal.
	at := func(s float64) time.Time { return driftEpoch.Add(time.Duration(s * float64(time.Second))) }
	var pred Prediction
	var spans []Span
	for i, g := range []struct{ pred, tr, tm float64 }{{1, 1.5, 0.5}, {2, 3, 1}, {5, 7.5, 2.5}, {0, 5, 5}} {
		name := fmt.Sprintf("op%d", i)
		pred.Ops = append(pred.Ops, OpPrediction{Name: name, Ops: []string{name}, TR: g.pred, TM: g.pred})
		spans = append(spans,
			Span{Kind: KindTask, Name: name, Start: driftEpoch, End: at(g.tr)},
			Span{Kind: KindCheckpoint, Name: name, Attempt: -1, Start: driftEpoch, End: at(g.tm)})
	}
	d := NewDriftDetector(DriftConfig{Nodes: 1})
	d.ObserveQuery(pred, spans)
	snap := d.Snapshot()
	tr, tm := snap.Term(DriftTR), snap.Term(DriftTM)
	if math.Abs(tr.Estimate-1.5) > 1e-12 || math.Abs(tm.Estimate-0.5) > 1e-12 {
		t.Errorf("factors = %g/%g, want 1.5/0.5", tr.Estimate, tm.Estimate)
	}
	if tr.Samples != 3 || tm.Samples != 3 {
		t.Errorf("samples = %d/%d, want 3/3", tr.Samples, tm.Samples)
	}
}

func TestDriftWindowForgetsOldPairs(t *testing.T) {
	// A window of pairs at factor 1 followed by a window at factor 4 leaves
	// only the second in the fit.
	const window = 4
	d := NewDriftDetector(DriftConfig{Nodes: 1, Window: window})
	for _, factor := range []float64{1, 4} {
		pred, spans := trQuery(factor)
		for i := 0; i < window; i++ {
			d.ObserveQuery(pred, spans)
		}
	}
	snap := d.Snapshot()
	if tr, tm := snap.Term(DriftTR).Estimate, snap.Term(DriftTM).Estimate; tr != 4 || tm != 4 {
		t.Errorf("factors = %g/%g, want exactly 4/4", tr, tm)
	}
}
