package main

import (
	"fmt"
	"time"

	"ftpde/internal/core"
	"ftpde/internal/cost"
	"ftpde/internal/join"
	"ftpde/internal/plan"
	"ftpde/internal/service"
	"ftpde/internal/sql"
	"ftpde/internal/tpch"
)

const (
	planSF   = 0.005
	planTopK = 20
	// dagSize, dagBudget and dagCap size the seeded part of the suite: random
	// DAGs of dagSize operators are drawn until the configurations the
	// optimizer scores for them add up to dagBudget, none of them scoring
	// more than dagCap. Optimizer time follows that count more closely than
	// it follows the number of DAGs, and with thirty-odd DAGs of bounded
	// weight no single draw decides a seed's total, so every seed gets about
	// the same amount of work (measured: passes of ten seeds within 6% of
	// each other, against 13% for a dozen uncapped DAGs).
	dagSize   = 10
	dagBudget = 2048
	dagCap    = 128
	dagDraws  = 400 // bounds set-up time; what is left of the budget by then is a few percent
)

// planItem is one optimizer call of the suite and the answer it must give on
// every pass.
type planItem struct {
	span string
	run  func(rec *recorder, parent, op int) (*core.Result, error)

	config  string  // winning materialization configuration
	runtime float64 // its estimated runtime
	ceiling float64 // min of the no-mat and all-mat estimates of the same plan
}

// planRun is plan_enum after set-up. One operation is one pass over items.
type planRun struct {
	cat    *catalog
	tstats map[string]sql.TableStats
	items  []*planItem
	q5     *sql.SelectStmt // template Q5, for the trace run's single-call probes

	passes int
	failed int
}

// ceiling is the estimate the optimizer's choice may not exceed: the better
// of materializing none and all of the plan's free operators, both of which
// the enumeration covers.
func ceiling(res *core.Result, m cost.Model) (float64, error) {
	best := 0.0
	for i, cfg := range []func(*plan.Plan) plan.MatConfig{plan.NoMat, plan.AllMat} {
		p := res.Plan.Clone()
		if err := p.Apply(cfg(p)); err != nil {
			return 0, err
		}
		t, err := m.EstimateRuntime(p)
		if err != nil {
			return 0, err
		}
		if i == 0 || t < best {
			best = t
		}
	}
	return best, nil
}

func setupPlan(seed int64, _ string) (runner, error) {
	cat, err := generate(seed, planSF)
	if err != nil {
		return nil, err
	}
	r := &planRun{cat: cat}
	if r.tstats, err = cat.collectStats(); err != nil {
		return nil, err
	}
	opts := core.Options{Model: planModel, MemoizePaths: true}

	// The served templates through the full two-phase optimizer.
	for _, q := range service.TPCHQueries() {
		text := q.Text
		r.items = append(r.items, &planItem{span: "sql.FTPlan", run: func(rec *recorder, parent, op int) (res *core.Result, err error) {
			var stmt *sql.SelectStmt
			rec.timed("sql.Parse", parent, op, func() { stmt, err = sql.Parse(text) })
			if err != nil {
				return nil, err
			}
			rec.timed("sql.FTPlan", parent, op, func() {
				res, err = sql.FTPlan(stmt, cat.cat, r.tstats, planParams, planModel, planTopK)
			})
			return res, err
		}})
	}
	if r.q5, err = sql.Parse(service.TPCHQueries()[2].Text); err != nil {
		return nil, err
	}

	// The paper's Q5 join graph at SF 100: top-k join orders, then
	// findBestFTPlan over them.
	prm := tpch.Params{SF: 100, Nodes: nodes}
	graph, err := tpch.Q5JoinGraph(prm)
	if err != nil {
		return nil, err
	}
	coster, err := tpch.Q5Coster(prm)
	if err != nil {
		return nil, err
	}
	r.items = append(r.items, &planItem{span: "core.FindBestFTPlan", run: func(rec *recorder, parent, op int) (res *core.Result, err error) {
		var trees []*join.Tree
		rec.timed("join.TopK", parent, op, func() { trees, err = graph.TopK(planTopK) })
		if err != nil {
			return nil, err
		}
		plans := make([]*plan.Plan, len(trees))
		for i, t := range trees {
			plans[i] = tpch.Q5PlanFromTree(t, graph, coster)
		}
		rec.timed("core.FindBestFTPlan", parent, op, func() { res, err = core.FindBestFTPlan(plans, opts) })
		return res, err
	}})

	// Seeded random DAGs up to the configuration budget.
	rng := rngFor(seed, "dags")
	for draws, left := 0, dagBudget; left >= 32 && draws < dagDraws; draws++ {
		p := plan.RandomDAG(rng.Int63(), dagSize)
		res, err := core.Optimize(p, opts)
		if err != nil || res.Stats.FTPlansEnumerated > min(left, dagCap) {
			continue
		}
		left -= res.Stats.FTPlansEnumerated
		r.items = append(r.items, &planItem{span: "core.Optimize", run: func(rec *recorder, parent, op int) (res *core.Result, err error) {
			rec.timed("core.Optimize", parent, op, func() { res, err = core.Optimize(p, opts) })
			return res, err
		}})
	}

	// The first pass fixes what every later pass must reproduce.
	for _, it := range r.items {
		res, err := it.run(nil, 0, 0)
		if err != nil {
			return nil, err
		}
		it.config, it.runtime = res.Config.String(), res.Runtime
		if it.ceiling, err = ceiling(res, planModel); err != nil {
			return nil, err
		}
		if it.runtime > it.ceiling*(1+1e-9) {
			return nil, fmt.Errorf("plan_enum: %s chose a plan estimated at %g, worse than no-mat/all-mat at %g", it.span, it.runtime, it.ceiling)
		}
	}
	return r, nil
}

func (r *planRun) close() {}

// pass runs the suite once and adds up the optimizer's effort counters.
func (r *planRun) pass(rec *recorder) (core.Stats, error) {
	var total core.Stats
	id := rec.begin("pass", 0, r.passes)
	defer rec.end(id)
	ok := true
	for _, it := range r.items {
		res, err := it.run(rec, id, r.passes)
		if err != nil {
			return total, err
		}
		if res.Config.String() != it.config || !cost.ApproxEq(res.Runtime, it.runtime) || res.Runtime > it.ceiling*(1+1e-9) {
			ok = false
		}
		s := res.Stats
		total.FTPlansTotal += s.FTPlansTotal
		total.FTPlansEnumerated += s.FTPlansEnumerated
		total.PathsEvaluated += s.PathsEvaluated
		total.Rule1Bound += s.Rule1Bound
		total.Rule2Bound += s.Rule2Bound
		total.FTPlansRule3Stopped += s.FTPlansRule3Stopped
	}
	r.passes++
	if !ok {
		r.failed++
	}
	return total, nil
}

// loop runs passes until the deadline and returns their latencies.
func (r *planRun) loop(until time.Time, rec *recorder) ([]float64, core.Stats, error) {
	var (
		latencyMS []float64
		stats     core.Stats
	)
	for len(latencyMS) == 0 || time.Now().Before(until) {
		start := time.Now()
		s, err := r.pass(rec)
		if err != nil {
			return nil, stats, err
		}
		latencyMS = append(latencyMS, time.Since(start).Seconds()*1e3)
		stats = s
	}
	return latencyMS, stats, nil
}

func (r *planRun) measure(seconds float64) (outcome, error) {
	r.passes, r.failed = 0, 0
	t, err := trials(seconds, trialSeconds, func(until time.Time) ([]float64, float64, error) {
		lat, _, err := r.loop(until, nil)
		return lat, float64(len(lat)), err
	})
	if err != nil {
		return outcome{}, err
	}
	return outcome{attempted: r.passes, failed: r.failed, metrics: closedLoopMetrics(t)}, nil
}

// trace runs passes untraced and traced, then times the single planning
// calls the suite does not make on their own: the steps of the served path
// (CostPlan, Optimize, Compile, BuildAuditPlan on template Q5) and the cost
// model's Collapse and Estimate on Q5's cost plan.
func (r *planRun) trace(seconds float64, rec *recorder) (outcome, error) {
	r.passes, r.failed = 0, 0
	start := time.Now()
	lat, _, err := r.loop(deadline(0.2*seconds), nil)
	if err != nil {
		return outcome{}, err
	}
	untraced := float64(len(lat)) / time.Since(start).Seconds()
	start = time.Now()
	lat, stats, err := r.loop(deadline(0.5*seconds), rec)
	if err != nil {
		return outcome{}, err
	}
	traced := float64(len(lat)) / time.Since(start).Seconds()

	var cp *plan.Plan
	opts := core.Options{Model: planModel, MemoizePaths: true}
	probes := []struct {
		span string
		call func() error
	}{
		{"sql.CostPlan", func() (err error) { cp, err = sql.CostPlan(r.q5, r.cat.cat, r.tstats, planParams); return }},
		{"core.Optimize(q5)", func() (err error) { _, err = core.Optimize(cp, opts); return }},
		{"sql.Compile", func() (err error) { _, err = sql.Compile(r.q5, r.cat.cat); return }},
		{"sql.BuildAuditPlan", func() (err error) {
			_, err = sql.BuildAuditPlan(r.q5, r.cat.cat, r.tstats, planParams, planModel)
			return
		}},
		{"cost.Collapse", func() (err error) { _, err = cost.Collapse(cp, planModel); return }},
		{"cost.Estimate", func() (err error) { _, _, err = planModel.Estimate(cp); return }},
	}
	for until, n := deadline(0.3*seconds), 0; n < 3 || time.Now().Before(until); n++ {
		for _, p := range probes {
			var err error
			rec.timed(p.span, 0, n, func() { err = p.call() })
			if err != nil {
				return outcome{}, fmt.Errorf("%s: %w", p.span, err)
			}
		}
	}

	self := rec.selfSeconds()
	us := func(name string) measured { return selfMedian(self, name, 1e6, "us") }
	ms := func(name string) measured { return selfMedian(self, name, 1e3, "ms") }
	m := map[string]measured{
		"sql.parse_us":              us("sql.Parse"),
		"sql.costplan_us":           us("sql.CostPlan"),
		"sql.compile_us":            us("sql.Compile"),
		"sql.auditplan_us":          us("sql.BuildAuditPlan"),
		"core.optimize_tpch_us":     us("core.Optimize(q5)"),
		"core.findbest_q5_top20_ms": ms("core.FindBestFTPlan"),
		"core.optimize_dag_p50_ms":  ms("core.Optimize"),
		"cost.collapse_us":          us("cost.Collapse"),
		"cost.estimate_us":          us("cost.Estimate"),
		"join.topk_q5_ms":           ms("join.TopK"),
		"core.ftplans_total":        exact(float64(stats.FTPlansTotal), "count"),
		"core.ftplans_enumerated":   exact(float64(stats.FTPlansEnumerated), "count"),
		"core.paths_evaluated":      exact(float64(stats.PathsEvaluated), "count"),
		"core.rule1_bound":          exact(float64(stats.Rule1Bound), "count"),
		"core.rule2_bound":          exact(float64(stats.Rule2Bound), "count"),
		"core.rule3_stopped":        exact(float64(stats.FTPlansRule3Stopped), "count"),
		"core.ftplans_scored_frac":  exact(float64(stats.FTPlansEnumerated)/float64(stats.FTPlansTotal), "ratio"),
		"bench.trace_overhead_frac": exact((untraced-traced)/untraced, "ratio"),
	}
	r.cat.merge(m)
	return outcome{attempted: r.passes, failed: r.failed, metrics: m}, nil
}
