package experiments

import (
	"reflect"
	"strings"
	"testing"
)

func TestExtrasRegistry(t *testing.T) {
	extras := Extras()
	if len(extras) != 7 {
		t.Fatalf("want 7 extras, got %d", len(extras))
	}
	all := Everything()
	if len(all) != len(All())+len(extras) {
		t.Error("Everything() should concatenate All and Extras")
	}
	seen := make(map[string]bool, len(all))
	for _, r := range all {
		if seen[r.ID] {
			t.Errorf("experiment ID %q registered twice", r.ID)
		}
		seen[r.ID] = true
		got, err := ByID(r.ID)
		if err != nil {
			t.Errorf("ByID(%q): %v", r.ID, err)
			continue
		}
		if got.ID != r.ID || got.Desc != r.Desc || reflect.ValueOf(got.Run).Pointer() != reflect.ValueOf(r.Run).Pointer() {
			t.Errorf("ByID(%q) returned a different runner: %q", r.ID, got.Desc)
		}
	}
}

func TestAblationWastedShape(t *testing.T) {
	tbl, err := ablationWasted(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Approximation never underestimates the exact model (w_approx >= w_exact
	// implies higher or equal runtime estimates): delta >= 0.
	for _, row := range tbl.Rows {
		if cellFloat(t, row[5]) < -1e-9 {
			t.Errorf("approximation estimated lower than exact at %s: %v", row[0], row)
		}
	}
}

func TestAblationPercentileShape(t *testing.T) {
	tbl, err := ablationPercentile(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("want 4 percentile rows, got %d", len(tbl.Rows))
	}
	// Estimated runtime is monotone in S (more attempts provisioned).
	prev := 0.0
	for _, row := range tbl.Rows {
		est := cellFloat(t, row[2])
		if est < prev-1e-9 {
			t.Errorf("estimate not monotone in S: %v", tbl.Rows)
		}
		prev = est
	}
}

func TestAblationMemoShape(t *testing.T) {
	tbl, err := ablationMemo(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("want 2 rows, got %d", len(tbl.Rows))
	}
	// Same best estimate, fewer path evaluations with memoization.
	if tbl.Rows[0][1] != tbl.Rows[1][1] {
		t.Error("memoization changed the chosen plan")
	}
	if cellFloat(t, tbl.Rows[1][2]) >= cellFloat(t, tbl.Rows[0][2]) {
		t.Error("memoized dominant paths did not reduce path evaluations")
	}
}

func TestExtClusterAwareShape(t *testing.T) {
	tbl, err := extClusterAware(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tbl.Rows {
		if strings.HasPrefix(row[2], "Aborted") {
			continue
		}
		perNodeErr := cellFloat(t, row[4])
		awareErr := cellFloat(t, row[6])
		if abs(perNodeErr) < 10 && abs(awareErr) < 10 {
			// Failure-light regime: both granularities are fine and the
			// comparison is noise.
			continue
		}
		switch row[1] {
		case "fine-grained":
			// Per-node rates fit fine-grained recovery better.
			if abs(perNodeErr) > abs(awareErr) {
				t.Errorf("per-node model should fit fine-grained recovery at %s: %v", row[0], row)
			}
		case "coarse restart":
			if abs(awareErr) > abs(perNodeErr) {
				t.Errorf("cluster-wide model should fit coarse restarts at %s: %v", row[0], row)
			}
		}
	}
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

func TestExtWeibullShape(t *testing.T) {
	tbl, err := extWeibull(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("want 4 shape rows, got %d", len(tbl.Rows))
	}
	// Actual runtime decreases as failures become more regular (same mean
	// rate, but long clean windows become predictable), so the estimation
	// error grows monotonically from underestimate toward overestimate.
	prevActual := 1e18
	prevErr := -1e18
	for _, row := range tbl.Rows {
		if row[2] == "Aborted" {
			t.Fatalf("unexpected abort: %v", row)
		}
		a := cellFloat(t, row[2])
		e := cellFloat(t, row[3])
		if a > prevActual+1 {
			t.Errorf("actual runtime should not grow with shape: %v", tbl.Rows)
		}
		if e < prevErr-1 {
			t.Errorf("estimation error should grow with shape: %v", tbl.Rows)
		}
		prevActual, prevErr = a, e
	}
}

func TestExtAuditShape(t *testing.T) {
	// Nodes pinned to 4: the audit's forced-materialization regime was
	// calibrated at that partition count.
	tbl, err := ExtAudit(Config{Nodes: 4, Traces: 1, Seed: 1, SF: 100})
	if err != nil {
		t.Fatal(err)
	}
	var failsObserved, materialized bool
	for _, row := range tbl.Rows {
		if row[1] == "faults" && row[9] != "0" && row[9] != "" {
			failsObserved = true
		}
		if row[4] == "M" {
			materialized = true
		}
	}
	if !failsObserved {
		t.Error("no faults run recorded observed failures")
	}
	if !materialized {
		t.Error("no collapsed group was materialized; the audit never exercises checkpoints")
	}
}
