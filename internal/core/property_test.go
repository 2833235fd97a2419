package core

import (
	"math"
	"testing"

	"ftpde/internal/cost"
	"ftpde/internal/plan"
)

// TestPruningPreservesOptimumOnRandomDAGs is the central soundness property
// of Section 4: the pruning rules must never eliminate the optimal
// fault-tolerant plan. For random DAG plans and a spread of MTBFs, the fully
// pruned optimizer must return exactly the brute-force optimum.
func TestPruningPreservesOptimumOnRandomDAGs(t *testing.T) {
	mtbfs := []float64{2, 10, 50, 500, 1e5}
	for seed := int64(0); seed < 30; seed++ {
		p := plan.RandomDAG(seed, 3+int(seed%8))
		if err := p.Validate(); err != nil {
			t.Fatalf("seed %d: invalid random plan: %v", seed, err)
		}
		if len(p.FreeOperators()) > 12 {
			continue
		}
		for _, mtbf := range mtbfs {
			m := cost.Model{MTBF: mtbf, MTTR: 0.5, Percentile: 0.95, PipeConst: 1, Nodes: 4}
			want, _ := bruteForceBest(t, p, m)

			for _, opt := range []Options{
				{Model: m},
				{Model: m, MemoizePaths: true},
			} {
				res, err := Optimize(p, opt)
				if err != nil {
					t.Fatalf("seed %d mtbf %g: %v", seed, mtbf, err)
				}
				if math.Abs(res.Runtime-want) > 1e-9*math.Max(1, want) {
					t.Errorf("seed %d mtbf %g: pruned optimum %g != brute force %g (config %v)",
						seed, mtbf, res.Runtime, want, res.Config)
				}
			}
		}
	}
}

// TestRulesNeverFlipBoundOperators: rules must leave bound operators'
// materialization flags untouched on random plans.
func TestRulesNeverFlipBoundOperators(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		p := plan.RandomDAG(seed, 10)
		type state struct {
			mat, bound bool
		}
		before := map[plan.OpID]state{}
		for _, op := range p.Operators() {
			if op.Bound {
				before[op.ID] = state{op.Materialize, op.Bound}
			}
		}
		m := cost.Model{MTBF: 20, MTTR: 1, Percentile: 0.95, PipeConst: 1, Nodes: 4}
		applyRule1(p, m)
		applyRule2(p, m)
		for id, st := range before {
			op := p.Op(id)
			if op.Materialize != st.mat || !op.Bound {
				t.Errorf("seed %d: bound operator %d changed by rules", seed, id)
			}
		}
	}
}

// TestOptimizeIdempotent: re-optimizing the already-optimized plan must not
// find anything better (the applied configuration is a fixed point).
func TestOptimizeIdempotent(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		p := plan.RandomDAG(seed, 8)
		if len(p.FreeOperators()) > 12 {
			continue
		}
		m := cost.Model{MTBF: 30, MTTR: 1, Percentile: 0.95, PipeConst: 1}
		res1, err := Optimize(p, Options{Model: m})
		if err != nil {
			t.Fatal(err)
		}
		res2, err := Optimize(res1.Plan, Options{Model: m})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res1.Runtime-res2.Runtime) > 1e-9 {
			t.Errorf("seed %d: optimize not idempotent: %g then %g", seed, res1.Runtime, res2.Runtime)
		}
	}
}

// TestDominantPathUpperBoundsAllPaths on random plans and configurations.
func TestDominantPathUpperBoundsAllPaths(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		p := plan.RandomDAG(seed, 9)
		m := cost.Model{MTBF: 15, MTTR: 1, Percentile: 0.95, PipeConst: 1}
		dom, all, err := m.Estimate(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, pc := range all {
			if pc.Runtime > dom.Runtime+1e-9 {
				t.Errorf("seed %d: path %v exceeds dominant", seed, pc.Path)
			}
			if pc.Runtime < pc.RunCost-1e-9 {
				t.Errorf("seed %d: TPt < RPt on path %v", seed, pc.Path)
			}
		}
	}
}
