package main

import (
	"math"
	"os"
	"strings"
	"testing"
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
	if len(res.Queries) != len(calibrateQueries) {
		t.Errorf("re-planned %d queries, want %d", len(res.Queries), len(calibrateQueries))
	}
	if res.Model.MTBF != res.Estimate.PerNode {
		t.Errorf("calibrated model MTBF %g != estimate %g", res.Model.MTBF, res.Estimate.PerNode)
	}
	if res.TRFactor <= 0 || res.TMFactor <= 0 {
		t.Errorf("non-positive correction factors: tr=%g tm=%g", res.TRFactor, res.TMFactor)
	}
	report := res.Report()
	for _, want := range []string{"MTBF per node", "calibrated cost.Model", "materialization config"} {
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
