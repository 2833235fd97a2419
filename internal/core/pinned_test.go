package core

import (
	"fmt"
	"math"
	"os"
	"slices"
	"strings"
	"testing"

	"ftpde/internal/cost"
	"ftpde/internal/failure"
	"ftpde/internal/plan"
	"ftpde/internal/tpch"
)

// pinnedCalls makes every optimizer call the pinned file records — the
// paper example under every option set, 400 random DAGs and the top-20 Q5
// join orders — and hands each to fn with its key and options.
func pinnedCalls(t *testing.T, fn func(key string, opt Options, res *Result, err error)) {
	t.Helper()
	for _, mtbf := range paperMTBFs {
		for i, opt := range optionSets(model(mtbf)) {
			res, err := Optimize(plan.PaperExample(), opt)
			fn(fmt.Sprintf("paper/mtbf=%g/opts=%d", mtbf, i), opt, res, err)
		}
	}

	mtbfs := []float64{2, 10, 50, 500, 1e5}
	for seed := int64(1); seed <= 100; seed++ {
		m := cost.Model{MTBF: mtbfs[seed%5], MTTR: 0.5, Percentile: 0.95, PipeConst: 1, Nodes: 4}
		for _, n := range []int{6, 8, 10, 12} {
			for _, memo := range []bool{false, true} {
				opt := Options{Model: m, MemoizePaths: memo}
				res, err := Optimize(plan.RandomDAG(seed, n), opt)
				fn(fmt.Sprintf("dag/seed=%d/n=%d/memo=%t", seed, n, memo), opt, res, err)
			}
		}
	}

	prm := tpch.Params{SF: 100, Nodes: 4}
	graph, err := tpch.Q5JoinGraph(prm)
	if err != nil {
		t.Fatal(err)
	}
	coster, err := tpch.Q5Coster(prm)
	if err != nil {
		t.Fatal(err)
	}
	trees, err := graph.TopK(20)
	if err != nil {
		t.Fatal(err)
	}
	for _, mtbf := range []float64{failure.OneHour, 600, 60} {
		m := cost.Model{MTBF: mtbf, MTTR: 1, Percentile: 0.95, PipeConst: 1, Nodes: 4}
		for _, memo := range []bool{false, true} {
			plans := make([]*plan.Plan, len(trees))
			for i, tr := range trees {
				plans[i] = tpch.Q5PlanFromTree(tr, graph, coster)
			}
			opt := Options{Model: m, MemoizePaths: memo}
			res, err := FindBestFTPlan(plans, opt)
			fn(fmt.Sprintf("q5/sf=100/top=20/mtbf=%g/memo=%t", mtbf, memo), opt, res, err)
		}
	}
}

// pinnedOptimizer renders one line per pinned call: the winning
// configuration, its runtime to the last bit, the dominant path and every
// enumeration counter.
func pinnedOptimizer(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	pinnedCalls(t, func(key string, _ Options, res *Result, err error) {
		if err != nil {
			fmt.Fprintf(&b, "%s: error %v\n", key, err)
			return
		}
		fmt.Fprintf(&b, "%s: config=%s runtime=%.17g dominant=%v stats=%+v\n",
			key, res.Config, res.Runtime, res.Dominant.Path, res.Stats)
	})
	return b.String()
}

// The optimizer's decisions — on the paper example under every option set,
// on 400 random DAGs with and without memoized paths, and on the top-20 Q5
// join orders — are pinned in testdata/pinned_optimizer.txt: a change to the
// enumerator must not move a configuration, a runtime bit, a dominant path or
// a counter. The test never rewrites the file.
func TestOptimizerPinned(t *testing.T) {
	want, err := os.ReadFile("testdata/pinned_optimizer.txt")
	if err != nil {
		t.Fatal(err)
	}
	gl := strings.Split(pinnedOptimizer(t), "\n")
	wl := strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("line %d differs from the pinned optimizer\n got: %s\nwant: %s", i+1, g, w)
		}
	}
}

// The optimizer builds Result.Dominant from its collapse kernel and never
// builds a Collapsed; on every pinned call it must equal, to the last bit,
// what collapsing and estimating the returned plan gives.
func TestDominantMatchesCollapsedPlan(t *testing.T) {
	calls := 0
	pinnedCalls(t, func(key string, opt Options, res *Result, err error) {
		if err != nil {
			return
		}
		calls++
		c, err := cost.Collapse(res.Plan, opt.Model)
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		want, _ := opt.Model.EstimateCollapsed(c)
		if !slices.Equal(res.Dominant.Path, want.Path) || !slices.Equal(pathCostBits(res.Dominant), pathCostBits(want)) {
			t.Errorf("%s: dominant path\n got %+v\nwant %+v", key, res.Dominant, want)
		}
	})
	if calls == 0 {
		t.Fatal("no pinned call succeeded")
	}
}

// pathCostBits lists every float of pc as its bits.
func pathCostBits(pc cost.PathCost) []uint64 {
	out := []uint64{math.Float64bits(pc.RunCost), math.Float64bits(pc.Runtime)}
	for _, oc := range pc.Ops {
		for _, x := range []float64{oc.Total, oc.Wasted, oc.Gamma, oc.Attempts, oc.Runtime} {
			out = append(out, math.Float64bits(x))
		}
	}
	return out
}
