package cost

import (
	"fmt"
	"math"
	"testing"

	"ftpde/internal/failure"
	"ftpde/internal/plan"
)

// Collapse invariants on random DAGs: every original operator belongs to at
// least one collapsed group; every group's members can actually reach the
// group's root through non-materialized operators; group totals are
// consistent with Equation 1.
func TestCollapseInvariantsOnRandomDAGs(t *testing.T) {
	m := Model{MTBF: 50, MTTR: 1, Percentile: 0.95, PipeConst: 0.9}
	for seed := int64(0); seed < 100; seed++ {
		p := plan.RandomDAG(seed, 12)
		c, err := Collapse(p, m)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}

		covered := map[plan.OpID]bool{}
		for cid, members := range c.Members {
			root := c.Root[cid]
			rootOp := p.Op(root)
			if !rootOp.Materialize && len(p.Outputs(root)) != 0 {
				t.Fatalf("seed %d: group root %d neither materializes nor is a sink", seed, root)
			}
			memberSet := map[plan.OpID]bool{}
			for _, id := range members {
				covered[id] = true
				memberSet[id] = true
				if id != root && p.Op(id).Materialize {
					t.Fatalf("seed %d: materialized operator %d folded into group of %d", seed, id, root)
				}
			}
			if !memberSet[root] {
				t.Fatalf("seed %d: root %d missing from its own group", seed, root)
			}
			// Dominant path lies inside the group and ends at the root.
			dom := c.Dominant[cid]
			if len(dom) == 0 || dom[len(dom)-1] != root {
				t.Fatalf("seed %d: dominant path of %d does not end at root", seed, root)
			}
			domTr := 0.0
			for _, id := range dom {
				if !memberSet[id] {
					t.Fatalf("seed %d: dominant path leaves the group", seed)
				}
				domTr += p.Op(id).RunCost
			}
			// Equation 1: tr(c) = sum over dom(c) * CONSTpipe.
			if got := c.P.Op(cid).RunCost; !almostEqual(got, domTr*m.PipeConst, 1e-9) {
				t.Fatalf("seed %d: tr(c)=%g != dominant %g * pipe", seed, got, domTr*m.PipeConst)
			}
		}
		for _, op := range p.Operators() {
			if !covered[op.ID] {
				t.Fatalf("seed %d: operator %d not covered by any collapsed group", seed, op.ID)
			}
		}
		// The collapsed plan has exactly one group per root.
		roots := 0
		for _, op := range p.Operators() {
			if op.Materialize || len(p.Outputs(op.ID)) == 0 {
				roots++
			}
		}
		if c.P.Len() != roots {
			t.Fatalf("seed %d: %d groups for %d roots", seed, c.P.Len(), roots)
		}
	}
}

// Materializing one more operator never increases any collapsed group's
// total below it; more precisely, the failure-free makespan of the collapsed
// plan (sum along any path) equals or exceeds the plan's critical path.
func TestCollapsedPathAtLeastCriticalPath(t *testing.T) {
	m := Model{MTBF: 50, MTTR: 1, Percentile: 0.95, PipeConst: 1}
	for seed := int64(0); seed < 50; seed++ {
		p := plan.RandomDAG(seed, 10)
		c, err := Collapse(p, m)
		if err != nil {
			t.Fatal(err)
		}
		// For every path in the collapsed plan, its run cost without
		// failures must be at least the tr of the original dominant chain it
		// represents (materialization only adds cost).
		for _, path := range c.P.Paths() {
			sum := 0.0
			trOnly := 0.0
			for _, cid := range path {
				sum += c.P.Op(cid).TotalCost()
				trOnly += c.P.Op(cid).RunCost
			}
			if sum < trOnly-1e-9 {
				t.Fatalf("seed %d: materialization made a path cheaper", seed)
			}
		}
	}
}

// TestFailureMathIsNeverNaN sweeps t from 0 through sub-1e-6 values and
// geometric steps to 1e6 against MTBFs from 1e-3 to 1e6, under both w(c)
// formulas, with and without the cluster-aware MTBF, with and without a
// repair time. w(c), a(c), T(c) (through OperatorCost) and the restart
// scheme's expected runtime are never NaN, never negative and never fall as
// t grows; γ stays a probability that never rises. T(c) is finite while
// t/effMTBF ≤ 36: beyond about 36.7, η = 1 − e^(−t/MTBF) rounds to 1 and a(c)
// is +Inf by design, so T(c) may be +Inf there but never NaN. The restart
// E[T] is finite while its exponent n·t/MTBF stays below e^x's overflow.
func TestFailureMathIsNeverNaN(t *testing.T) {
	ts := []float64{0, 1e-300, 1e-15, 1e-12, 1e-9, 5e-7}
	for x := 1e-6; x < 1e6; x *= 1.25 {
		ts = append(ts, x)
	}
	ts = append(ts, 1e6)
	for _, mtbf := range []float64{1e-3, 1, 3600, 1e6} {
		for _, mttr := range []float64{0, 1} {
			for _, exact := range []bool{false, true} {
				for _, cluster := range []bool{false, true} {
					m := Model{MTBF: mtbf, MTTR: mttr, Percentile: 0.95, PipeConst: 1, Nodes: 4,
						ExactWasted: exact, ClusterAware: cluster}
					if err := sweepFailureMath(m, ts); err != nil {
						t.Errorf("MTBF=%g MTTR=%g exact=%v cluster=%v: %v", mtbf, mttr, exact, cluster, err)
					}
				}
			}
		}
	}
}

// sweepFailureMath returns the first value of m's failure math over the
// ascending ts that breaks TestFailureMathIsNeverNaN's invariants.
func sweepFailureMath(m Model, ts []float64) error {
	names := [4]string{"w(c)", "a(c)", "T(c)", "restart E[T]"}
	var prev [4]float64
	prevGamma := 1.0
	for _, t := range ts {
		oc := m.OperatorCost(t)
		restart := failure.ExpectedRestartRuntime(t, m.MTBF, m.MTTR, m.Nodes)
		for i, v := range [4]float64{oc.Wasted, oc.Attempts, oc.Runtime, restart} {
			if math.IsNaN(v) || v < 0 {
				return fmt.Errorf("t=%g: %s = %g", t, names[i], v)
			}
			if v < prev[i] {
				return fmt.Errorf("t=%g: %s fell from %g to %g", t, names[i], prev[i], v)
			}
			prev[i] = v
		}
		if g := oc.Gamma; math.IsNaN(g) || g < 0 || g > prevGamma {
			return fmt.Errorf("t=%g: γ = %g after %g", t, g, prevGamma)
		}
		prevGamma = oc.Gamma
		if t/m.effMTBF() <= 36 && math.IsInf(oc.Runtime, 0) {
			return fmt.Errorf("t=%g: T(c) = %g at t/effMTBF = %g", t, oc.Runtime, t/m.effMTBF())
		}
		if t*float64(m.Nodes)/m.MTBF <= 700 && math.IsInf(restart, 0) {
			return fmt.Errorf("t=%g: restart E[T] = %g", t, restart)
		}
	}
	return nil
}
