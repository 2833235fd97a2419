package experiments

import (
	"fmt"
	"sort"

	"ftpde/internal/core"
	"ftpde/internal/cost"
	"ftpde/internal/exec"
	"ftpde/internal/failure"
	"ftpde/internal/plan"
	"ftpde/internal/schemes"
	"ftpde/internal/tpch"
)

// Figure12a reproduces paper Figure 12(a): actual (simulated) vs. estimated
// runtime of the cost-based fault-tolerant plan for Q5@SF100 across MTBFs
// from one month down to 30 minutes.
func Figure12a(c Config) (*Table, error) {
	c = c.withDefaults()
	q, err := tpch.Q5(tpch.Params{SF: c.SF, Nodes: c.Nodes})
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  fmt.Sprintf("Figure 12(a): Accuracy of Cost Model — Q5@SF%g (runtime w/ failures, in s)", c.SF),
		Header: []string{"MTBF", "Actual", "Estimated", "Error (%)"},
		Notes: []string{
			"expected shape: ~0% error at high MTBF; the model underestimates (up to ~30%) at low MTBF, but actual grows with estimated",
		},
	}
	mtbfs := []float64{failure.OneMonth, failure.OneWeek, failure.OneDay, failure.OneHour, failure.ThirtyMinutes}
	for mi, mtbf := range mtbfs {
		spec := failure.Spec{Nodes: c.Nodes, MTBF: mtbf, MTTR: 1}
		m := cost.DefaultModel(spec)
		res, err := core.Optimize(q.Plan, core.Options{Model: m})
		if err != nil {
			return nil, err
		}
		traces := failure.NewTraces(spec, traceHorizon(q.Baseline), c.Seed+int64(mi)*91, c.Traces)
		actual, ok, err := exec.MeanRuntime(res.Plan, exec.Options{
			Cluster: spec, Model: m, Recovery: schemes.FineGrained,
		}, traces)
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, fmt.Errorf("figure12a: all runs aborted at MTBF %g", mtbf)
		}
		errPct := (res.Runtime - actual) / actual * 100
		t.AddRow(failure.FormatDuration(mtbf), fsec(actual), fsec(res.Runtime), fpct(errPct))
	}
	return t, nil
}

// configPoint is one materialization configuration's estimated and actual
// runtime (Figure 12(b)).
type configPoint struct {
	Config    plan.MatConfig
	Estimated float64
	Actual    float64
}

// q5ConfigSweep scores every 2^5 materialization configuration of the Q5
// plan under the given MTBF: estimated via the cost model, actual via the
// cluster simulator (mean over traces). Results are sorted ascending by
// estimate.
func q5ConfigSweep(c Config, mtbf float64) ([]configPoint, error) {
	c = c.withDefaults()
	q, err := tpch.Q5(tpch.Params{SF: c.SF, Nodes: c.Nodes})
	if err != nil {
		return nil, err
	}
	spec := failure.Spec{Nodes: c.Nodes, MTBF: mtbf, MTTR: 1}
	m := cost.DefaultModel(spec)
	traces := failure.NewTraces(spec, traceHorizon(q.Baseline), c.Seed, c.Traces)

	free := q.Plan.FreeOperators()
	p := q.Plan.Clone()
	var points []configPoint
	for mask := uint64(0); mask < 1<<uint(len(free)); mask++ {
		cfg := plan.ConfigFromMask(free, mask)
		if err := p.Apply(cfg); err != nil {
			return nil, err
		}
		est, err := m.EstimateRuntime(p)
		if err != nil {
			return nil, err
		}
		actual, ok, err := exec.MeanRuntime(p, exec.Options{
			Cluster: spec, Model: m, Recovery: schemes.FineGrained,
		}, traces)
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, fmt.Errorf("q5 config sweep: all runs aborted for %v", cfg)
		}
		points = append(points, configPoint{Config: cfg, Estimated: est, Actual: actual})
	}
	sort.SliceStable(points, func(i, j int) bool { return points[i].Estimated < points[j].Estimated })
	return points, nil
}

// Figure12b reproduces paper Figure 12(b): estimated vs. actual runtime for
// all 32 enumerated materialization configurations of the Q5 plan at
// MTBF = 1 hour, sorted ascending by estimate.
func Figure12b(c Config) (*Table, error) {
	points, err := q5ConfigSweep(c, failure.OneHour)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Figure 12(b): Accuracy across 32 materialization configurations — Q5, MTBF=1 hour (in s)",
		Header: []string{"Rank", "Materialized ops", "Estimated", "Actual"},
		Notes: []string{
			"expected shape: high rank correlation between estimated and actual (lower estimate => lower actual)",
		},
	}
	for i, pt := range points {
		label := pt.Config.String()
		switch {
		case len(pt.Config.Materialized()) == len(pt.Config):
			label += " (all-mat)"
		case len(pt.Config.Materialized()) == 0:
			label += " (no-mat)"
		}
		t.AddRow(fmt.Sprintf("%d", i+1), label, fsec(pt.Estimated), fsec(pt.Actual))
	}
	t.Notes = append(t.Notes, fmt.Sprintf("Spearman rank correlation (estimated vs actual): %.3f",
		spearman(points)))
	return t, nil
}

// spearman computes the Spearman rank correlation between estimated and
// actual runtimes.
func spearman(points []configPoint) float64 {
	n := len(points)
	if n < 2 {
		return 1
	}
	rank := func(vals []float64) []float64 {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(a, b int) bool { return vals[idx[a]] < vals[idx[b]] })
		r := make([]float64, n)
		for pos, i := range idx {
			r[i] = float64(pos)
		}
		return r
	}
	est := make([]float64, n)
	act := make([]float64, n)
	for i, p := range points {
		est[i] = p.Estimated
		act[i] = p.Actual
	}
	re, ra := rank(est), rank(act)
	var d2 float64
	for i := 0; i < n; i++ {
		d := re[i] - ra[i]
		d2 += d * d
	}
	return 1 - 6*d2/float64(n*(n*n-1))
}
