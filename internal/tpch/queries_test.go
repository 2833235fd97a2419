package tpch

import (
	"math"
	"testing"

	"ftpde/internal/plan"
	"ftpde/internal/stats"
)

func TestAllQueriesValid(t *testing.T) {
	qs, err := Queries(Params{SF: 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != 5 {
		t.Fatalf("want 5 queries, got %d", len(qs))
	}
	wantNames := []string{"Q1", "Q3", "Q5", "Q1C", "Q2C"}
	for i, q := range qs {
		if q.Name != wantNames[i] {
			t.Errorf("query %d name = %s, want %s", i, q.Name, wantNames[i])
		}
		if err := q.Plan.Validate(); err != nil {
			t.Errorf("%s: %v", q.Name, err)
		}
		got := stats.CriticalPath(q.Plan)
		if math.Abs(got-q.Baseline) > 1e-6*q.Baseline {
			t.Errorf("%s: critical path %g != declared baseline %g", q.Name, got, q.Baseline)
		}
	}
}

func TestFreeOperatorCounts(t *testing.T) {
	qs, err := Queries(Params{SF: 100})
	if err != nil {
		t.Fatal(err)
	}
	// Paper: Q1 has no free operator; Q5 has exactly the five joins free
	// (Figure 9), giving 2^5 = 32 configurations.
	want := map[string]int{"Q1": 0, "Q3": 2, "Q5": 5, "Q1C": 2, "Q2C": 8}
	for _, q := range qs {
		if got := len(q.Plan.FreeOperators()); got != want[q.Name] {
			t.Errorf("%s: %d free operators, want %d", q.Name, got, want[q.Name])
		}
	}
}

func TestQ5Baseline905s(t *testing.T) {
	q, err := Q5(Params{SF: 100})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(q.Baseline-905.33) > 0.01 {
		t.Errorf("Q5@SF100 baseline = %g, want 905.33", q.Baseline)
	}
}

// matFreeShare returns the summed tm(o) of p's free operators over its
// summed tr(o).
func matFreeShare(p *plan.Plan) float64 {
	matFree, run := 0.0, 0.0
	for _, op := range p.Operators() {
		if !op.Bound {
			matFree += op.MatCost
		}
		run += op.RunCost
	}
	return matFree / run
}

func TestQ5MaterializationShare(t *testing.T) {
	// Paper Section 5.3: "the total materialization costs of all operators
	// (1-5 in Figure 9) represent only 34.13% of the total runtime costs".
	q, err := Q5(Params{SF: 100})
	if err != nil {
		t.Fatal(err)
	}
	ratio := matFreeShare(q.Plan)
	if ratio < 0.25 || ratio > 0.45 {
		t.Errorf("Q5 free-operator materialization share = %.2f%%, want ~34%%", ratio*100)
	}
}

func TestComplexQueriesHaveHighMatShare(t *testing.T) {
	// Paper Figure 8 discussion: Q1C and Q2C have materialization costs of
	// ~60-100% of the runtime costs under all-mat.
	for _, build := range []func(Params) (*Query, error){Q1C, Q2C} {
		q, err := build(Params{SF: 100})
		if err != nil {
			t.Fatal(err)
		}
		ratio := matFreeShare(q.Plan)
		if ratio < 0.5 || ratio > 1.3 {
			t.Errorf("%s all-mat materialization share = %.2f%%, want 60-100%%", q.Name, ratio*100)
		}
	}
}

func TestQ1CHasCheapMidPlanCheckpoint(t *testing.T) {
	q, err := Q1C(Params{SF: 100})
	if err != nil {
		t.Fatal(err)
	}
	free := q.Plan.FreeOperators()
	if len(free) != 2 {
		t.Fatalf("Q1C free operators = %d, want 2", len(free))
	}
	agg := q.Plan.Op(free[0])
	join := q.Plan.Op(free[1])
	// The mid-plan aggregation must be orders of magnitude cheaper to
	// materialize than the join output.
	if agg.MatCost*1000 > join.MatCost {
		t.Errorf("agg tm=%g should be <<< join tm=%g", agg.MatCost, join.MatCost)
	}
}

func TestQ2CIsDAGWithTwoSinks(t *testing.T) {
	q, err := Q2C(Params{SF: 100})
	if err != nil {
		t.Fatal(err)
	}
	sinks := 0
	for _, op := range q.Plan.Operators() {
		if len(q.Plan.Outputs(op.ID)) == 0 {
			sinks++
		}
	}
	if sinks != 2 {
		t.Errorf("Q2C has %d sinks, want 2", sinks)
	}
	// The CTE operator must feed both outer branches.
	var cteOuts int
	for _, op := range q.Plan.Operators() {
		if op.Kind == 12 { // plan.KindCTE
			cteOuts = len(q.Plan.Outputs(op.ID))
		}
	}
	if cteOuts != 2 {
		t.Errorf("CTE feeds %d consumers, want 2", cteOuts)
	}
}

func TestBaselinesScaleLinearlyInSF(t *testing.T) {
	for _, sf := range []float64{1, 10, 1000} {
		q, err := Q5(Params{SF: sf})
		if err != nil {
			t.Fatal(err)
		}
		want := 905.33 * sf / 100
		if math.Abs(q.Baseline-want) > 1e-6*want {
			t.Errorf("Q5@SF%g baseline = %g, want %g", sf, q.Baseline, want)
		}
	}
}

func TestParamsValidation(t *testing.T) {
	if _, err := Q5(Params{SF: 0}); err == nil {
		t.Error("SF=0 accepted")
	}
	if _, err := Q5(Params{SF: -5}); err == nil {
		t.Error("negative SF accepted")
	}
	if _, err := Queries(Params{SF: -1}); err == nil {
		t.Error("Queries accepted bad params")
	}
}

func TestQ5JoinGraph1344Orders(t *testing.T) {
	g, err := Q5JoinGraph(Params{SF: 10})
	if err != nil {
		t.Fatal(err)
	}
	all, err := g.EnumerateAll()
	if err != nil {
		t.Fatal(err)
	}
	if n := len(all); n != 1344 {
		t.Fatalf("Q5 join graph has %d orders, want 1344", n)
	}
}

func TestQ5PlanFromTreeStructure(t *testing.T) {
	prm := Params{SF: 10}
	g, err := Q5JoinGraph(prm)
	if err != nil {
		t.Fatal(err)
	}
	coster, err := Q5Coster(prm)
	if err != nil {
		t.Fatal(err)
	}
	trees, err := g.TopK(3)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range trees {
		p := Q5PlanFromTree(tr, g, coster)
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		if got := len(p.FreeOperators()); got != 5 {
			t.Errorf("enumerated Q5 plan has %d free operators, want 5", got)
		}
		if got := p.Len(); got != 12 {
			t.Errorf("enumerated Q5 plan has %d operators, want 12", got)
		}
	}
}

func TestQ5CosterCalibration(t *testing.T) {
	prm := Params{SF: 10}
	g, err := Q5JoinGraph(prm)
	if err != nil {
		t.Fatal(err)
	}
	coster, err := Q5Coster(prm)
	if err != nil {
		t.Fatal(err)
	}
	trees, err := g.TopK(1)
	if err != nil {
		t.Fatal(err)
	}
	p := Q5PlanFromTree(trees[0], g, coster)
	// The cheapest join order's baseline should be within a factor ~2 of the
	// hand-built Q5 plan's baseline at the same SF (same cost constants).
	got := stats.CriticalPath(p)
	want := 905.33 * prm.SF / 100
	if got < want/3 || got > want*3 {
		t.Errorf("calibrated best-order baseline %g too far from %g", got, want)
	}
}
