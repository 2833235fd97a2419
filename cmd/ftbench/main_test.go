package main

import (
	"os"
	"strings"
	"testing"

	"ftpde/internal/exec"
	"ftpde/internal/obs/metrics"
)

// TestBenchMetricsMatchDocs pins the four families of `ftbench -exp sim`
// to docs/METRICS.md.
func TestBenchMetricsMatchDocs(t *testing.T) {
	doc, err := os.ReadFile("../../docs/METRICS.md")
	if err != nil {
		t.Fatal(err)
	}
	sim := simRegistry(&exec.Result{}).Describe()
	if len(sim) != 4 {
		t.Errorf("-exp sim registers %d families, want 4", len(sim))
	}
	table := metrics.DescribeTable(sim)
	if !strings.Contains(string(doc), strings.TrimRight(table, "\n")) {
		t.Errorf("docs/METRICS.md is out of date; it must hold the table:\n%s", table)
	}
}
