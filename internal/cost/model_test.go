package cost

import (
	"math"
	"testing"
	"testing/quick"

	"ftpde/internal/failure"
	"ftpde/internal/plan"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

// TestTable2 reproduces the worked example of paper Table 2 with exact
// arithmetic. The paper computes a({1,2,3}) from the *rounded* gamma = 0.94,
// reporting 0.0648 and T = 4.13; exact arithmetic yields 0.0928 and T = 4.19.
// We assert the exact values and the paper values within the rounding delta.
func TestTable2(t *testing.T) {
	m := paperModel() // MTBF=60, MTTR=0, S=0.95
	c, err := Collapse(plan.PaperExample(), m)
	if err != nil {
		t.Fatal(err)
	}

	type row struct {
		members  []plan.OpID
		total    float64
		wasted   float64
		gamma    float64
		attempts float64
		runtime  float64
	}
	rows := []row{
		{[]plan.OpID{1, 2, 3}, 4, 2, 0.94, 0.0928, 4.1857},
		{[]plan.OpID{4, 5}, 3, 1.5, 0.95, 0, 3},
		{[]plan.OpID{6}, 1, 0.5, 0.98, 0, 1},
		{[]plan.OpID{7}, 2, 1, 0.96, 0, 2},
	}
	for _, r := range rows {
		cid := c.OpByMembers(r.members...)
		oc := m.OperatorCost(c.Total(cid))
		if !ApproxEq(oc.Total, r.total) {
			t.Errorf("t(%v) = %g, want %g", r.members, oc.Total, r.total)
		}
		if !ApproxEq(oc.Wasted, r.wasted) {
			t.Errorf("w(%v) = %g, want %g", r.members, oc.Wasted, r.wasted)
		}
		if !almostEqual(oc.Gamma, r.gamma, 0.0101) {
			t.Errorf("gamma(%v) = %g, want ~%g", r.members, oc.Gamma, r.gamma)
		}
		if !almostEqual(oc.Attempts, r.attempts, 0.001) {
			t.Errorf("a(%v) = %g, want ~%g", r.members, oc.Attempts, r.attempts)
		}
		if !almostEqual(oc.Runtime, r.runtime, 0.001) {
			t.Errorf("T(%v) = %g, want ~%g", r.members, oc.Runtime, r.runtime)
		}
	}

	// TPt1 (path ending at {6}) and TPt2 (ending at {7}); the paper reports
	// 8.13 and 9.13 from the rounded attempts, exact values are 8.19/9.19.
	dom, all := m.EstimateCollapsed(c)
	if len(all) != 2 {
		t.Fatalf("want 2 paths, got %d", len(all))
	}
	var tp1, tp2 float64
	for _, pc := range all {
		last := pc.Path[len(pc.Path)-1]
		switch c.Root[last] {
		case 6:
			tp1 = pc.Runtime
		case 7:
			tp2 = pc.Runtime
		}
	}
	if !almostEqual(tp1, 8.1857, 0.001) {
		t.Errorf("TPt1 = %g, want ~8.186 (paper: 8.13 w/ rounded gamma)", tp1)
	}
	if !almostEqual(tp2, 9.1857, 0.001) {
		t.Errorf("TPt2 = %g, want ~9.186 (paper: 9.13 w/ rounded gamma)", tp2)
	}
	// Pt2 is the dominant path.
	if c.Root[dom.Path[len(dom.Path)-1]] != 7 {
		t.Errorf("dominant path should end at operator 7, got %v", dom.Path)
	}
	if !ApproxEq(dom.Runtime, tp2) {
		t.Errorf("dominant runtime = %g, want %g", dom.Runtime, tp2)
	}
}

func TestOperatorCostNoFailureRegime(t *testing.T) {
	// With an enormous MTBF no attempts are needed: T(c) = t(c).
	m := Model{MTBF: 1e12, MTTR: 10, Percentile: 0.95, PipeConst: 1}
	oc := m.OperatorCost(100)
	if !ApproxEq(oc.Attempts, 0) {
		t.Errorf("attempts = %g, want 0", oc.Attempts)
	}
	if !ApproxEq(oc.Runtime, 100) {
		t.Errorf("runtime = %g, want 100", oc.Runtime)
	}
}

func TestOperatorCostHighFailureRegime(t *testing.T) {
	// Operator runtime far above MTBF: many attempts, runtime balloons, and
	// MTTR is paid per attempt.
	m := Model{MTBF: 10, MTTR: 5, Percentile: 0.95, PipeConst: 1}
	oc := m.OperatorCost(100)
	if oc.Attempts < 10 {
		t.Errorf("attempts = %g, want >= 10", oc.Attempts)
	}
	wantMin := 100 + oc.Attempts*50 + oc.Attempts*5 - 1e-9
	if oc.Runtime < wantMin {
		t.Errorf("runtime = %g, want >= %g", oc.Runtime, wantMin)
	}
}

func TestExactWastedAblation(t *testing.T) {
	approx := Model{MTBF: 60, MTTR: 0, Percentile: 0.95, PipeConst: 1}
	exact := approx
	exact.ExactWasted = true
	// For t << MTBF the two agree closely; exact is always <= t/2.
	for _, tt := range []float64{1, 5, 30, 60, 200} {
		wa := approx.OperatorCost(tt).Wasted
		we := exact.OperatorCost(tt).Wasted
		if we > wa+1e-9 {
			t.Errorf("exact wasted %g exceeds t/2 %g at t=%g", we, wa, tt)
		}
	}
	// And they diverge for t >> MTBF.
	if we := exact.OperatorCost(600).Wasted; we > 60 {
		t.Errorf("exact wasted at t=10*MTBF should approach MTBF, got %g", we)
	}
}

func TestEstimateRuntimeMonotoneInMTBF(t *testing.T) {
	// Lower MTBF must never decrease the estimated runtime.
	p := plan.PaperExample()
	prev := math.Inf(1)
	for _, mtbf := range []float64{10, 30, 60, 600, 1e6} {
		m := Model{MTBF: mtbf, MTTR: 1, Percentile: 0.95, PipeConst: 1}
		got, err := m.EstimateRuntime(p)
		if err != nil {
			t.Fatal(err)
		}
		if got > prev+1e-9 {
			t.Errorf("estimate increased with MTBF: %g at MTBF=%g (prev %g)", got, mtbf, prev)
		}
		prev = got
	}
}

func TestEstimateAtLeastFailureFreeRuntime(t *testing.T) {
	// Property: TPt >= RPt for every path, for arbitrary materialization
	// configurations of the example plan.
	p := plan.PaperExample()
	free := p.FreeOperators()
	m := Model{MTBF: 30, MTTR: 2, Percentile: 0.95, PipeConst: 1}
	f := func(mask uint64) bool {
		q := p.Clone()
		if err := q.Apply(plan.ConfigFromMask(free, mask%(1<<uint(len(free))))); err != nil {
			return false
		}
		_, all, err := m.Estimate(q)
		if err != nil {
			return false
		}
		for _, pc := range all {
			if pc.Runtime < pc.RunCost-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDominantPathIsMaximal(t *testing.T) {
	p := plan.PaperExample()
	m := Model{MTBF: 20, MTTR: 1, Percentile: 0.95, PipeConst: 1}
	dom, all, err := m.Estimate(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, pc := range all {
		if pc.Runtime > dom.Runtime {
			t.Errorf("path %v has runtime %g > dominant %g", pc.Path, pc.Runtime, dom.Runtime)
		}
	}
}

func TestCostPathBreakdownAligned(t *testing.T) {
	p := plan.PaperExample()
	m := paperModel()
	c, err := Collapse(p, m)
	if err != nil {
		t.Fatal(err)
	}
	_, all := m.EstimateCollapsed(c)
	for _, pc := range all {
		if len(pc.Ops) != len(pc.Path) {
			t.Fatalf("breakdown misaligned: %d ops for %d path entries", len(pc.Ops), len(pc.Path))
		}
		sumR, sumT := 0.0, 0.0
		for _, oc := range pc.Ops {
			sumR += oc.Total
			sumT += oc.Runtime
		}
		if !almostEqual(sumR, pc.RunCost, 1e-9) || !almostEqual(sumT, pc.Runtime, 1e-9) {
			t.Error("path aggregates do not match per-op sums")
		}
	}
}

func TestClusterAwareModel(t *testing.T) {
	base := Model{MTBF: 1000, MTTR: 1, Percentile: 0.95, PipeConst: 1, Nodes: 10}
	aware := base
	aware.ClusterAware = true
	// Cluster-aware estimates must never be lower: n nodes fail n times as
	// often.
	for _, tt := range []float64{1, 50, 200, 1000} {
		b := base.OperatorCost(tt).Runtime
		a := aware.OperatorCost(tt).Runtime
		if a < b-1e-9 {
			t.Errorf("t=%g: cluster-aware %g < per-node %g", tt, a, b)
		}
	}
	// With one node both agree.
	one := base
	one.Nodes = 1
	oneAware := one
	oneAware.ClusterAware = true
	if !ApproxEq(one.OperatorCost(100).Runtime, oneAware.OperatorCost(100).Runtime) {
		t.Error("single-node cluster-aware should equal per-node")
	}
}

func TestDefaultModelUnstretched(t *testing.T) {
	// DefaultModel prices T(c) by Equation 8 alone: no term scales w(c) or
	// MTTR beyond t + a·w + a·MTTR.
	m := DefaultModel(failure.Spec{MTBF: 100, MTTR: 1, Nodes: 4})
	oc := m.OperatorCost(10)
	want := oc.Total + oc.Attempts*oc.Wasted + oc.Attempts*m.MTTR
	if !approxEqEps(oc.Runtime, want, 1e-12) {
		t.Errorf("runtime = %g, want %g", oc.Runtime, want)
	}
}
