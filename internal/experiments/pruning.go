package experiments

import (
	"fmt"

	"ftpde/internal/core"
	"ftpde/internal/cost"
	"ftpde/internal/failure"
	"ftpde/internal/plan"
	"ftpde/internal/tpch"
)

// pruningResult holds per-rule pruning percentages for one cluster setup.
type pruningResult struct {
	MTBF     float64
	Rule1    float64
	Rule2    float64
	Rule3    float64
	AllRules float64
	// FTPlansTotal is the unpruned search-space size (43,008 for Q5).
	FTPlansTotal int
}

// q5Candidates enumerates every Q5 join order (1344) as fault-tolerance-
// ready plans.
func q5Candidates(prm tpch.Params) ([]*plan.Plan, error) {
	g, err := tpch.Q5JoinGraph(prm)
	if err != nil {
		return nil, err
	}
	coster, err := tpch.Q5Coster(prm)
	if err != nil {
		return nil, err
	}
	trees, err := g.EnumerateAll()
	if err != nil {
		return nil, err
	}
	plans := make([]*plan.Plan, len(trees))
	for i, tr := range trees {
		plans[i] = tpch.Q5PlanFromTree(tr, g, coster)
	}
	return plans, nil
}

// pruningEffectiveness measures the share of the 43,008 fault-tolerant plans
// (1344 join orders x 2^5 materialization configurations) pruned by each
// rule in isolation and by all rules together, for one MTBF. Rule 3's
// early-stopped plans are counted half, following the paper's accounting
// ("in average half of the costs for analyzing the paths can be avoided").
func pruningEffectiveness(candidates []*plan.Plan, spec failure.Spec) (*pruningResult, error) {
	m := cost.DefaultModel(spec)
	run := func(opt core.Options) (*core.Stats, error) {
		opt.Model = m
		opt.MemoizePaths = true
		res, err := core.FindBestFTPlan(candidates, opt)
		if err != nil {
			return nil, err
		}
		return &res.Stats, nil
	}

	r1, err := run(core.Options{DisableRule2: true, DisableRule3: true})
	if err != nil {
		return nil, err
	}
	r2, err := run(core.Options{DisableRule1: true, DisableRule3: true})
	if err != nil {
		return nil, err
	}
	r3, err := run(core.Options{DisableRule1: true, DisableRule2: true})
	if err != nil {
		return nil, err
	}
	all, err := run(core.Options{})
	if err != nil {
		return nil, err
	}

	total := float64(all.FTPlansTotal)
	pct := func(v float64) float64 { return v / total * 100 }
	return &pruningResult{
		MTBF:         spec.MTBF,
		Rule1:        pct(float64(r1.FTPlansPrunedRule1)),
		Rule2:        pct(float64(r2.FTPlansPrunedRule2)),
		Rule3:        pct(float64(r3.FTPlansRule3StoppedCheap) / 2),
		AllRules:     pct(float64(all.FTPlansPrunedRule1) + float64(all.FTPlansPrunedRule2) + float64(all.FTPlansRule3StoppedCheap)/2),
		FTPlansTotal: all.FTPlansTotal,
	}, nil
}

// Figure13 reproduces paper Figure 13: pruning effectiveness over all 1344
// equivalent join orders of TPC-H Q5 for cluster setups with MTBF of one
// week, one day and one hour. The paper runs this at SF=10; with our
// per-node failure model a 90-second query never needs extra attempts at any
// of the three MTBFs (every collapsed operator stays below the 95th-
// percentile threshold), which would flatten the MTBF-dependence the figure
// demonstrates — so this implementation uses SF=100, where the three
// cluster setups actually differ.
func Figure13(c Config) (*Table, error) {
	c = c.withDefaults()
	prm := tpch.Params{SF: 100, Nodes: c.Nodes}
	candidates, err := q5Candidates(prm)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: fmt.Sprintf("Figure 13: Effectiveness of Pruning — %d Q5 join orders, SF=100 (pruned fault-tolerant plans in %%)",
			len(candidates)),
		Header: []string{"Cluster", "Rule 1", "Rule 2", "Rule 3", "All Rules", "FT plans total"},
		Notes: []string{
			"expected shape: rule 1 constant across MTBFs (paper: ~25%; our synthetic costs bind more operators, ~80%);",
			"rules 2 and 3 prune more at higher MTBF; all rules combined prune at least as much at MTBF=1 week as at 1 hour",
		},
	}
	for _, setup := range []struct {
		name string
		mtbf float64
	}{
		{"Cluster A (MTBF=1 week)", failure.OneWeek},
		{"Cluster B (MTBF=1 day)", failure.OneDay},
		{"Cluster C (MTBF=1 hour)", failure.OneHour},
	} {
		res, err := pruningEffectiveness(candidates, failure.Spec{Nodes: c.Nodes, MTBF: setup.mtbf, MTTR: 1})
		if err != nil {
			return nil, err
		}
		t.AddRow(setup.name, fpct(res.Rule1), fpct(res.Rule2), fpct(res.Rule3), fpct(res.AllRules),
			fmt.Sprintf("%d", res.FTPlansTotal))
	}
	return t, nil
}
