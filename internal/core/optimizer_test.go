package core

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"ftpde/internal/cost"
	"ftpde/internal/plan"
)

// bruteForceBest exhaustively scores every materialization configuration of
// p (no pruning at all) and returns the minimal dominant-path runtime.
func bruteForceBest(t *testing.T, p *plan.Plan, m cost.Model) (float64, plan.MatConfig) {
	t.Helper()
	free := p.FreeOperators()
	best := math.Inf(1)
	var bestCfg plan.MatConfig
	q := p.Clone()
	for mask := uint64(0); mask < 1<<uint(len(free)); mask++ {
		cfg := plan.ConfigFromMask(free, mask)
		if err := q.Apply(cfg); err != nil {
			t.Fatal(err)
		}
		rt, err := m.EstimateRuntime(q)
		if err != nil {
			t.Fatal(err)
		}
		if rt < best {
			best = rt
			bestCfg = cfg
		}
	}
	return best, bestCfg
}

// paperMTBFs and optionSets span the paper example's regimes: every pruning
// rule on and off, with and without memoized dominant paths.
var paperMTBFs = []float64{5, 20, 60, 600, 1e6}

func optionSets(m cost.Model) []Options {
	return []Options{
		{Model: m},
		{Model: m, DisableRule1: true, DisableRule2: true, DisableRule3: true},
		{Model: m, MemoizePaths: true},
		{Model: m, DisableRule1: true},
		{Model: m, DisableRule2: true},
		{Model: m, DisableRule3: true},
	}
}

func TestOptimizeMatchesBruteForce(t *testing.T) {
	for _, mtbf := range paperMTBFs {
		m := model(mtbf)
		p := plan.PaperExample()
		want, _ := bruteForceBest(t, p, m)

		for _, opt := range optionSets(m) {
			res, err := Optimize(plan.PaperExample(), opt)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(res.Runtime-want) > 1e-9 {
				t.Errorf("MTBF=%g opts=%+v: runtime %g, brute force %g (config %v)",
					mtbf, opt, res.Runtime, want, res.Config)
			}
		}
	}
}

func TestOptimizeHighMTBFChoosesNoMaterialization(t *testing.T) {
	// With a huge MTBF, materializing anything only adds cost.
	res, err := Optimize(plan.PaperExample(), Options{Model: model(1e9)})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(res.Config.Materialized()); n != 0 {
		t.Errorf("high-MTBF config materializes %d operators (%v), want 0", n, res.Config)
	}
}

func TestOptimizeLowMTBFChoosesCheckpoints(t *testing.T) {
	// With failures arriving every ~2 cost units on a plan of total cost ~10,
	// checkpointing must pay off somewhere.
	res, err := Optimize(plan.PaperExample(), Options{Model: model(3), DisableRule1: true, DisableRule2: true})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(res.Config.Materialized()); n == 0 {
		t.Error("low-MTBF config materializes nothing")
	}
}

func TestOptimizeResultConsistency(t *testing.T) {
	m := model(30)
	res, err := Optimize(plan.PaperExample(), Options{Model: m})
	if err != nil {
		t.Fatal(err)
	}
	// The returned plan must carry the returned config and re-estimating it
	// must reproduce the reported runtime.
	rt, err := m.EstimateRuntime(res.Plan)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rt-res.Runtime) > 1e-9 {
		t.Errorf("re-estimated runtime %g != reported %g", rt, res.Runtime)
	}
	if !cost.ApproxEq(res.Dominant.Runtime, res.Runtime) {
		t.Errorf("dominant path runtime %g != reported %g", res.Dominant.Runtime, res.Runtime)
	}
}

// The optimizer scores a candidate without copying it, so rules 1 and 2 bind
// on its shape only: every candidate encodes the same before and after, on
// the paper example and on sets of random DAGs where both rules fire.
func TestOptimizeDoesNotMutateCandidates(t *testing.T) {
	check := func(name string, cands []*plan.Plan, opt Options) Stats {
		t.Helper()
		before := make([][]byte, len(cands))
		for i, p := range cands {
			before[i] = mustJSON(t, p)
		}
		res, err := FindBestFTPlan(cands, opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i, p := range cands {
			if after := mustJSON(t, p); !bytes.Equal(after, before[i]) {
				t.Errorf("%s: candidate %d mutated\nbefore %s\n after %s", name, i, before[i], after)
			}
		}
		return res.Stats
	}
	for _, mtbf := range paperMTBFs {
		check(fmt.Sprintf("paper/mtbf=%g", mtbf), []*plan.Plan{plan.PaperExample()}, Options{Model: model(mtbf)})
	}
	var rule1, rule2 int
	for seed := int64(0); seed < 30; seed++ {
		m := cost.Model{MTBF: []float64{10, 50, 500, 1e5}[seed%4], MTTR: 0.5, Percentile: 0.95, PipeConst: 1, Nodes: 4}
		cands := []*plan.Plan{plan.RandomDAG(seed, 6), plan.RandomDAG(seed+1000, 8), plan.RandomDAG(seed+2000, 10)}
		st := check(fmt.Sprintf("dags/seed=%d", seed), cands, Options{Model: m, MemoizePaths: seed%2 == 0})
		rule1 += st.Rule1Bound
		rule2 += st.Rule2Bound
	}
	if rule1 == 0 || rule2 == 0 {
		t.Errorf("rule 1 bound %d and rule 2 bound %d operators; the test needs both to fire", rule1, rule2)
	}
}

func mustJSON(t *testing.T, p *plan.Plan) []byte {
	t.Helper()
	b, err := p.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestFindBestFTPlanPicksCheaperCandidate(t *testing.T) {
	cheap := plan.PaperExample()
	expensive := plan.PaperExample()
	for _, op := range expensive.Operators() {
		op.RunCost *= 10
	}
	res, err := FindBestFTPlan([]*plan.Plan{expensive, cheap}, Options{Model: model(60)})
	if err != nil {
		t.Fatal(err)
	}
	resCheapOnly, err := FindBestFTPlan([]*plan.Plan{cheap}, Options{Model: model(60)})
	if err != nil {
		t.Fatal(err)
	}
	if !cost.ApproxEq(res.Runtime, resCheapOnly.Runtime) {
		t.Errorf("multi-candidate result %g != cheap-only result %g", res.Runtime, resCheapOnly.Runtime)
	}
	if res.Stats.PlansConsidered != 2 {
		t.Errorf("PlansConsidered = %d, want 2", res.Stats.PlansConsidered)
	}
}

func TestTopKCanBeatGreedyFirstPlan(t *testing.T) {
	// The paper's motivation for analyzing top-k plans: a plan slightly more
	// expensive without failures can win once recovery costs are included,
	// because it has a cheap-to-materialize operator mid-plan.
	// planA: two heavy stages, enormous materialization costs everywhere.
	planA := plan.New()
	a1 := planA.Add(plan.Operator{Name: "a1", RunCost: 50, MatCost: 1000})
	a2 := planA.Add(plan.Operator{Name: "a2", RunCost: 50, MatCost: 1000})
	planA.MustConnect(a1, a2)
	// planB: slightly more total runtime, but a cheap checkpoint mid-plan.
	planB := plan.New()
	b1 := planB.Add(plan.Operator{Name: "b1", RunCost: 52, MatCost: 0.5})
	b2 := planB.Add(plan.Operator{Name: "b2", RunCost: 52, MatCost: 0.5})
	planB.MustConnect(b1, b2)

	m := model(80) // failures likely within a 100-cost query
	if planA.TotalRunCost() >= planB.TotalRunCost() {
		t.Fatal("test setup: planA must be cheaper without failures")
	}
	res, err := FindBestFTPlan([]*plan.Plan{planA, planB}, Options{Model: m})
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.Op(b1) == nil || !cost.ApproxEq(res.Plan.TotalRunCost(), 104) {
		t.Errorf("optimizer should pick planB under failures, got plan with run cost %g", res.Plan.TotalRunCost())
	}
}

func TestStatsAccounting(t *testing.T) {
	res, err := Optimize(plan.PaperExample(), Options{Model: model(60), DisableRule1: true, DisableRule2: true, DisableRule3: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.FTPlansTotal != 128 {
		t.Errorf("FTPlansTotal = %d, want 2^7 = 128", res.Stats.FTPlansTotal)
	}
	if res.Stats.FTPlansEnumerated != 128 {
		t.Errorf("FTPlansEnumerated = %d, want 128", res.Stats.FTPlansEnumerated)
	}
	if res.Stats.FTPlansRule3Stopped != 0 {
		t.Error("rule 3 fired while disabled")
	}

	pruned, err := Optimize(plan.PaperExample(), Options{Model: model(60)})
	if err != nil {
		t.Fatal(err)
	}
	if got := pruned.Stats.FTPlansEnumerated + pruned.Stats.FTPlansPrunedRule1 + pruned.Stats.FTPlansPrunedRule2; got != 128 {
		t.Errorf("enumerated+pruned = %d, want 128", got)
	}
	if pruned.Stats.FTPlansEnumerated >= 128 && pruned.Stats.FTPlansRule3Stopped == 0 {
		t.Log("no pruning occurred on the example plan (acceptable, depends on costs)")
	}
}

// A chain longer than an int has bits: rule 2 binds all but the sink, so the
// optimizer scores two configurations, and the counts of the 2^71 it did not
// score saturate instead of wrapping.
func TestStatsSaturateOnLongChains(t *testing.T) {
	p := plan.New()
	prev := p.Add(plan.Operator{Name: "op", RunCost: 1, MatCost: 1})
	for i := 1; i < 71; i++ {
		next := p.Add(plan.Operator{Name: "op", RunCost: 1, MatCost: 1})
		p.MustConnect(prev, next)
		prev = next
	}
	res, err := Optimize(p, Options{Model: model(1e12)})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Stats
	if s.Rule2Bound != 70 || s.FTPlansEnumerated != 2 {
		t.Fatalf("rule 2 bound %d, %d configurations scored; want 70 and 2", s.Rule2Bound, s.FTPlansEnumerated)
	}
	if s.FTPlansTotal != math.MaxInt || s.FTPlansPrunedRule1 != 0 || s.FTPlansPrunedRule2 != math.MaxInt-2 {
		t.Errorf("total %d, pruned by rule 1 %d, by rule 2 %d; want %d, 0, %d",
			s.FTPlansTotal, s.FTPlansPrunedRule1, s.FTPlansPrunedRule2, math.MaxInt, math.MaxInt-2)
	}
	if got := s.FTPlansEnumerated + s.FTPlansPrunedRule1 + s.FTPlansPrunedRule2; got != s.FTPlansTotal {
		t.Errorf("enumerated+pruned = %d, want total %d", got, s.FTPlansTotal)
	}
}

func TestRule3ReducesPathEvaluations(t *testing.T) {
	with, err := Optimize(plan.PaperExample(), Options{Model: model(60), DisableRule1: true, DisableRule2: true})
	if err != nil {
		t.Fatal(err)
	}
	without, err := Optimize(plan.PaperExample(), Options{Model: model(60), DisableRule1: true, DisableRule2: true, DisableRule3: true})
	if err != nil {
		t.Fatal(err)
	}
	if with.Stats.PathsEvaluated > without.Stats.PathsEvaluated {
		t.Errorf("rule 3 increased path evaluations: %d > %d",
			with.Stats.PathsEvaluated, without.Stats.PathsEvaluated)
	}
	if !cost.ApproxEq(with.Runtime, without.Runtime) {
		t.Errorf("rule 3 changed the result: %g != %g", with.Runtime, without.Runtime)
	}
}

func TestMemoizedPathsSoundness(t *testing.T) {
	for _, mtbf := range []float64{10, 60, 600} {
		plainRes, err := Optimize(plan.PaperExample(), Options{Model: model(mtbf)})
		if err != nil {
			t.Fatal(err)
		}
		memoRes, err := Optimize(plan.PaperExample(), Options{Model: model(mtbf), MemoizePaths: true})
		if err != nil {
			t.Fatal(err)
		}
		if !cost.ApproxEq(plainRes.Runtime, memoRes.Runtime) {
			t.Errorf("MTBF=%g: memoized variant changed result %g != %g", mtbf, memoRes.Runtime, plainRes.Runtime)
		}
	}
}

func TestOptimizeErrors(t *testing.T) {
	if _, err := FindBestFTPlan(nil, Options{Model: model(60)}); err == nil {
		t.Error("empty candidate list accepted")
	}
	if _, err := Optimize(plan.New(), Options{Model: model(60)}); err == nil {
		t.Error("invalid plan accepted")
	}
	bad := Options{Model: cost.Model{}}
	if _, err := Optimize(plan.PaperExample(), bad); err == nil {
		t.Error("invalid model accepted")
	}
	// Free-operator guard.
	big := plan.New()
	prev := big.Add(plan.Operator{Name: "op", RunCost: 1, MatCost: 1})
	for i := 0; i < 30; i++ {
		next := big.Add(plan.Operator{Name: "op", RunCost: 1, MatCost: 1})
		big.MustConnect(prev, next)
		prev = next
	}
	if _, err := Optimize(big, Options{Model: model(1), DisableRule1: true, DisableRule2: true, MaxFreeOperators: 10}); err == nil {
		t.Error("plan above MaxFreeOperators accepted")
	}
}

// Property: the chosen runtime is never worse than all-mat or no-mat.
func TestOptimizeBeatsStaticStrategies(t *testing.T) {
	for _, mtbf := range []float64{3, 10, 60, 3600} {
		m := model(mtbf)
		p := plan.PaperExample()

		res, err := Optimize(p, Options{Model: m})
		if err != nil {
			t.Fatal(err)
		}

		allMat := p.Clone()
		if err := allMat.Apply(plan.AllMat(allMat)); err != nil {
			t.Fatal(err)
		}
		allRT, err := m.EstimateRuntime(allMat)
		if err != nil {
			t.Fatal(err)
		}

		noMat := p.Clone()
		if err := noMat.Apply(plan.NoMat(noMat)); err != nil {
			t.Fatal(err)
		}
		noRT, err := m.EstimateRuntime(noMat)
		if err != nil {
			t.Fatal(err)
		}

		if res.Runtime > allRT+1e-9 || res.Runtime > noRT+1e-9 {
			t.Errorf("MTBF=%g: cost-based %g worse than all-mat %g or no-mat %g",
				mtbf, res.Runtime, allRT, noRT)
		}
	}
}
