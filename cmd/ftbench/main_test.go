package main

import (
	"os"
	"strings"
	"testing"

	"ftpde/internal/exec"
	"ftpde/internal/obs/metrics"
)

// TestBenchMetricsMatchDocs pins ftbench's two registries to
// docs/METRICS.md: the families of an experiments run beside the tracer's,
// and the four of `-exp sim`.
func TestBenchMetricsMatchDocs(t *testing.T) {
	doc, err := os.ReadFile("../../docs/METRICS.md")
	if err != nil {
		t.Fatal(err)
	}
	var own []metrics.Desc
	for _, d := range benchRegistry(nil, new(int)).Describe() {
		if !strings.HasPrefix(d.Name, "ftpde_trace_") {
			own = append(own, d)
		}
	}
	sim := simRegistry(&exec.Result{}).Describe()
	if len(sim) != 4 {
		t.Errorf("-exp sim registers %d families, want 4", len(sim))
	}
	for _, descs := range [][]metrics.Desc{own, sim} {
		table := metrics.DescribeTable(descs)
		if !strings.Contains(string(doc), strings.TrimRight(table, "\n")) {
			t.Errorf("docs/METRICS.md is out of date; it must hold the table:\n%s", table)
		}
	}
}
