package obs_test

import (
	"math"
	"sort"
	"testing"
	"time"

	"ftpde/internal/cost"
	"ftpde/internal/failure"
	"ftpde/internal/obs"
)

// TestDriftDetectsInjectedMTBFWithinTenQueries is the acceptance criterion for
// the online drift detector: feed it the arrivals of a seeded failure.Trace
// whose per-node MTBF (2s) is 3x off the cost model's assumption (6s), sliced
// into at most 10 queries, and require (a) the mtbf term flags and (b) the
// rolling estimate lands within 25% of the injected rate. The trace is seeded
// and the detector reads only span timestamps, so the test is fully
// deterministic.
func TestDriftDetectsInjectedMTBFWithinTenQueries(t *testing.T) {
	const (
		injectedMTBF = 2.0
		modelMTBF    = 6.0 // 3x the injected value
		nodes        = 4
		horizon      = 400.0
		queries      = 10
	)
	var arrivals []float64
	for _, times := range failure.NewTrace(failure.Spec{Nodes: nodes, MTBF: injectedMTBF}, horizon, 7).PerNode {
		arrivals = append(arrivals, times...)
	}
	sort.Float64s(arrivals)
	if len(arrivals) < queries {
		t.Fatalf("only %d arrivals in the horizon", len(arrivals))
	}

	d := obs.NewDriftDetector(obs.DriftConfig{
		Nodes: nodes, ModelMTBF: modelMTBF, ModelMTTR: 1,
	})
	epoch := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	chunk := (len(arrivals) + queries - 1) / queries
	flaggedAt := 0
	for q := 0; q < queries; q++ {
		lo, hi := q*chunk, (q+1)*chunk
		if hi > len(arrivals) {
			hi = len(arrivals)
		}
		var spans []obs.Span
		for _, a := range arrivals[lo:hi] {
			ts := epoch.Add(time.Duration(a * float64(time.Second)))
			spans = append(spans, obs.Span{Kind: obs.KindFailure, Name: "scan", Part: 0, Start: ts, End: ts})
		}
		d.ObserveQuery(obs.Prediction{}, spans)
		if flaggedAt == 0 && d.Snapshot().Term("mtbf").Flagged {
			flaggedAt = q + 1
		}
	}
	if flaggedAt == 0 {
		t.Fatalf("mtbf drift not flagged within %d queries:\n%s", queries, d.Snapshot().String())
	}
	t.Logf("mtbf drift flagged after %d queries", flaggedAt)

	est := d.Snapshot().MTBF.PerNode
	if rel := math.Abs(est-injectedMTBF) / injectedMTBF; rel > 0.25 {
		t.Errorf("rolling MTBF estimate %g not within 25%% of injected %g (rel %.3f)",
			est, injectedMTBF, rel)
	}
	// The corrected model hands the planner the estimate, not the stale value.
	base := cost.Model{MTBF: modelMTBF, MTTR: 1, Percentile: 0.95, Nodes: nodes}
	if got := d.CorrectedModel(base); got.MTBF == modelMTBF {
		t.Error("CorrectedModel kept the drifted MTBF")
	}
}
