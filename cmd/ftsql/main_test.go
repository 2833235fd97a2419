package main

import (
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"ftpde/internal/cost"
	"ftpde/internal/obs"
	"ftpde/internal/service"
	"ftpde/internal/stats"
)

// TestCalibrateEstimatesInjectedMTBF is the acceptance check for the
// calibration loop: running TPC-H queries under the failures of a seeded
// failure.Trace with a known per-node MTBF, the estimator fit to the trace
// must land within 20% of the injected rate.
func TestCalibrateEstimatesInjectedMTBF(t *testing.T) {
	const injected = 2.0
	res, err := runCalibrate(calibrateOptions{
		SF:     0.002,
		Nodes:  4,
		Seed:   7,
		Runs:   1,
		MTBF:   injected,
		Window: 400,
		TopK:   3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Estimate.Valid() {
		t.Fatalf("invalid MTBF estimate: %+v", res.Estimate)
	}
	if rel := math.Abs(res.Estimate.PerNode-injected) / injected; rel > 0.20 {
		t.Errorf("estimated per-node MTBF %.3fs, injected %.1fs: rel error %.3f > 0.20",
			res.Estimate.PerNode, injected, rel)
	}
	if res.Estimate.Lo >= res.Estimate.Hi {
		t.Errorf("degenerate CI [%g, %g]", res.Estimate.Lo, res.Estimate.Hi)
	}
	if len(res.Queries) != len(service.TPCHQueries()) {
		t.Errorf("re-planned %d queries, want %d", len(res.Queries), len(service.TPCHQueries()))
	}
	if res.Model.MTBF != res.Estimate.PerNode {
		t.Errorf("calibrated model MTBF %g != estimate %g", res.Model.MTBF, res.Estimate.PerNode)
	}
	if res.TRFactor <= 0 || res.TMFactor <= 0 {
		t.Errorf("non-positive correction factors: tr=%g tm=%g", res.TRFactor, res.TMFactor)
	}
	report := res.Report()
	for _, want := range []string{"MTBF per node", "MTTR", "tr factor", "tm factor", "calibrated cost.Model", "materialization config"} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q:\n%s", want, report)
		}
	}
}

// TestCalibratedModelAndParams checks that calibration hands the planner
// every fitted estimate, with no drift flag in between.
func TestCalibratedModelAndParams(t *testing.T) {
	d := obs.NewDriftDetector(obs.DriftConfig{Nodes: 4, ModelMTBF: 3600, ModelMTTR: 1})
	arrivals := make([]float64, 101)
	for i := range arrivals {
		arrivals[i] = 25 * float64(i) // cluster mean 25s -> per-node 100s
	}
	d.ObserveArrivals(arrivals)
	epoch := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	at := func(s float64) time.Time { return epoch.Add(time.Duration(s * float64(time.Second))) }
	pred := obs.Prediction{Ops: []obs.OpPrediction{{Name: "{1}", Ops: []string{"scan"}, TR: 1, TM: 1, Materialize: true}}}
	d.ObserveQuery(pred, []obs.Span{
		{Kind: obs.KindTask, Name: "scan", Start: epoch, End: at(2)},                    // tr factor 2
		{Kind: obs.KindCheckpoint, Name: "scan", Attempt: -1, Start: epoch, End: at(3)}, // tm factor 3
		{Kind: obs.KindRecovery, Name: "scan", Start: at(3), End: at(5)},                // MTTR 2
	})
	snap := d.Snapshot()
	if snap.Term("mtbf").Flagged || snap.Term(obs.DriftTR).Flagged {
		t.Fatal("one query flagged a term; the check below would not show the gate is skipped")
	}

	base := cost.Model{MTBF: 3600, MTTR: 1, Percentile: 0.95, PipeConst: 1, Nodes: 4}
	m, cp := calibrated(snap, base, stats.CostParams{CPUPerRow: 1e-6, WritePerRow: 2e-5, Nodes: 4})
	if m.MTBF != 100 {
		t.Errorf("calibrated MTBF = %g, want 100", m.MTBF)
	}
	if m.MTTR != 2 {
		t.Errorf("calibrated MTTR = %g, want 2", m.MTTR)
	}
	if m.Percentile != base.Percentile || m.Nodes != base.Nodes {
		t.Error("calibration touched unrelated model fields")
	}
	if math.Abs(cp.CPUPerRow-2e-6) > 1e-18 {
		t.Errorf("calibrated CPUPerRow = %g, want 2e-6", cp.CPUPerRow)
	}
	if math.Abs(cp.WritePerRow-6e-5) > 1e-18 {
		t.Errorf("calibrated WritePerRow = %g, want 6e-5", cp.WritePerRow)
	}
}

// TestCalibrateReportMentionsEverything checks that the report names every
// fitted estimate even when the detector has seen almost nothing.
func TestCalibrateReportMentionsEverything(t *testing.T) {
	d := obs.NewDriftDetector(obs.DriftConfig{Nodes: 2, ModelMTBF: 3600, ModelMTTR: 1})
	d.ObserveArrivals([]float64{0, 10})
	epoch := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	d.ObserveQuery(obs.Prediction{}, []obs.Span{
		{Kind: obs.KindRecovery, Name: "scan", Start: epoch, End: epoch.Add(time.Second)},
	})
	snap := d.Snapshot()
	res := &calibrateResult{Estimate: snap.MTBF, Drift: snap}
	report := res.Report()
	for _, want := range []string{"MTBF per node", "MTTR", "tr factor", "tm factor"} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q:\n%s", want, report)
		}
	}
}

// TestListMetricsMatchesDocs pins docs/METRICS.md to the live registry: the
// documented table must be exactly what `ftsql -list-metrics` prints.
func TestListMetricsMatchesDocs(t *testing.T) {
	doc, err := os.ReadFile("../../docs/METRICS.md")
	if err != nil {
		t.Fatal(err)
	}
	table := metricsTable()
	if !strings.Contains(string(doc), strings.TrimRight(table, "\n")) {
		t.Errorf("docs/METRICS.md is out of date; regenerate the table with "+
			"`go run ./cmd/ftsql -list-metrics`.\nLive table:\n%s", table)
	}
}
