package experiments

import (
	"fmt"

	"ftpde/internal/core"
	"ftpde/internal/cost"
	"ftpde/internal/exec"
	"ftpde/internal/failure"
	"ftpde/internal/plan"
	"ftpde/internal/schemes"
	"ftpde/internal/tpch"
)

// Extras returns experiments beyond the paper's exhibits: ablations of the
// design choices DESIGN.md calls out, and extensions that probe the cost
// model's assumptions.
func Extras() []Runner {
	return []Runner{
		{"ablation-wasted", "Ablation: exact Eq.3 wasted-runtime vs the paper's t/2 approximation", ablationWasted},
		{"ablation-percentile", "Ablation: sensitivity of plan choice to the success percentile S", ablationPercentile},
		{"ablation-topk", "Ablation: top-k join-order depth vs chosen fault-tolerant plan quality", ablationTopK},
		{"ablation-memo", "Ablation: rule 3 with plain bestT vs memoized dominant paths (Eq.9)", ablationMemo},
		{"ext-clusteraware", "Extension: cluster-aware failure rates improve cost-model accuracy", extClusterAware},
		{"ext-weibull", "Extension: sensitivity of the exponential-arrivals assumption (Weibull failures)", extWeibull},
		{"ext-audit", "Extension: live cost-model audit — predicted vs observed spans on the concurrent runtime", ExtAudit},
	}
}

// Everything returns the paper's exhibits followed by the extras.
func Everything() []Runner {
	return append(All(), Extras()...)
}

// ablationWasted compares the optimizer under the exact Equation 3 for w(c)
// against the t/2 approximation the paper adopts: chosen configurations and
// estimated runtimes across MTBFs. The paper argues the approximation is
// accurate whenever MTBF > t(c).
func ablationWasted(c Config) (*Table, error) {
	c = c.withDefaults()
	q, err := tpch.Q5(tpch.Params{SF: c.SF, Nodes: c.Nodes})
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Ablation: w(c) exact (Eq.3) vs t/2 approximation (Eq.4) — Q5@SF100",
		Header: []string{"MTBF", "approx config", "approx est (s)", "exact config", "exact est (s)", "delta (%)"},
		Notes:  []string{"expected: identical or near-identical choices; the approximation overestimates w(c) slightly, more so at low MTBF"},
	}
	for _, mtbf := range []float64{failure.OneWeek, failure.OneDay, failure.OneHour, failure.ThirtyMinutes} {
		approx := cost.DefaultModel(failure.Spec{Nodes: c.Nodes, MTBF: mtbf, MTTR: 1})
		exact := approx
		exact.ExactWasted = true
		ra, err := core.Optimize(q.Plan, core.Options{Model: approx})
		if err != nil {
			return nil, err
		}
		re, err := core.Optimize(q.Plan, core.Options{Model: exact})
		if err != nil {
			return nil, err
		}
		delta := (ra.Runtime - re.Runtime) / re.Runtime * 100
		t.AddRow(failure.FormatDuration(mtbf),
			ra.Config.String(), fsec(ra.Runtime),
			re.Config.String(), fsec(re.Runtime), fpct(delta))
	}
	return t, nil
}

// ablationPercentile sweeps the target success percentile S and reports the
// chosen configuration, its estimate, and the simulated overhead: a low S
// under-provisions checkpoints, an extreme S over-provisions them.
func ablationPercentile(c Config) (*Table, error) {
	c = c.withDefaults()
	q, err := tpch.Q5(tpch.Params{SF: c.SF, Nodes: c.Nodes})
	if err != nil {
		return nil, err
	}
	spec := failure.Spec{Nodes: c.Nodes, MTBF: failure.OneHour, MTTR: 1}
	traces := failure.NewTraces(spec, traceHorizon(q.Baseline), c.Seed, c.Traces)
	t := &Table{
		Title:  "Ablation: success percentile S — Q5@SF100, MTBF=1 hour",
		Header: []string{"S", "chosen config", "estimated (s)", "simulated overhead (%)"},
		Notes:  []string{"the paper fixes S=0.95 (the 95th percentile commonly used for worst-case provisioning)"},
	}
	for _, s := range []float64{0.5, 0.9, 0.95, 0.99} {
		m := cost.DefaultModel(spec)
		m.Percentile = s
		res, err := core.Optimize(q.Plan, core.Options{Model: m})
		if err != nil {
			return nil, err
		}
		p := q.Plan.Clone()
		if err := p.Apply(res.Config); err != nil {
			return nil, err
		}
		mean, aborted, err := exec.MeasuredOverhead(p, exec.Options{
			Cluster: spec, Model: m, Recovery: schemes.FineGrained,
		}, traces, q.Baseline)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%.2f", s), res.Config.String(), fsec(res.Runtime), overheadCell(mean, aborted))
	}
	return t, nil
}

// ablationTopK measures how deep the first-phase join enumeration must go:
// the estimated runtime of the best fault-tolerant plan over the top-k join
// orders, and the enumeration effort, for k = 1, 5, 20.
func ablationTopK(c Config) (*Table, error) {
	c = c.withDefaults()
	prm := tpch.Params{SF: c.SF, Nodes: c.Nodes}
	g, err := tpch.Q5JoinGraph(prm)
	if err != nil {
		return nil, err
	}
	coster, err := tpch.Q5Coster(prm)
	if err != nil {
		return nil, err
	}
	m := cost.DefaultModel(failure.Spec{Nodes: c.Nodes, MTBF: failure.OneHour, MTTR: 1})
	t := &Table{
		Title:  "Ablation: top-k join orders — Q5@SF100, MTBF=1 hour",
		Header: []string{"k", "best estimated runtime (s)", "configs enumerated", "paths evaluated"},
		Notes: []string{
			"a plan slightly worse without failures can win once recovery costs count (the paper's motivation for k > 1);",
			"for this calibration the cheapest join order also wins under failures, so deeper k only adds enumeration effort",
		},
	}
	for _, k := range []int{1, 5, 20} {
		trees, err := g.TopK(k)
		if err != nil {
			return nil, err
		}
		plans := make([]*plan.Plan, len(trees))
		for i, tr := range trees {
			plans[i] = tpch.Q5PlanFromTree(tr, g, coster)
		}
		res, err := core.FindBestFTPlan(plans, core.Options{Model: m, MemoizePaths: true})
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%d", k), fsec(res.Runtime),
			fmt.Sprintf("%d", res.Stats.FTPlansEnumerated),
			fmt.Sprintf("%d", res.Stats.PathsEvaluated))
	}
	return t, nil
}

// ablationMemo compares rule 3 with and without the memoized-dominant-path
// extension (Equation 9) over all 1344 Q5 join orders: enumeration effort
// saved for an identical result.
func ablationMemo(c Config) (*Table, error) {
	c = c.withDefaults()
	candidates, err := q5Candidates(tpch.Params{SF: c.SF, Nodes: c.Nodes})
	if err != nil {
		return nil, err
	}
	m := cost.DefaultModel(failure.Spec{Nodes: c.Nodes, MTBF: failure.OneHour, MTTR: 1})
	t := &Table{
		Title:  "Ablation: rule 3 memoized dominant paths (Eq.9) — 1344 Q5 join orders, MTBF=1 hour",
		Header: []string{"variant", "best estimate (s)", "paths evaluated", "cheap rule-3 stops"},
	}
	for _, variant := range []struct {
		name string
		memo bool
	}{{"bestT only", false}, {"bestT + memoized paths", true}} {
		res, err := core.FindBestFTPlan(candidates, core.Options{Model: m, MemoizePaths: variant.memo})
		if err != nil {
			return nil, err
		}
		t.AddRow(variant.name, fsec(res.Runtime),
			fmt.Sprintf("%d", res.Stats.PathsEvaluated),
			fmt.Sprintf("%d", res.Stats.FTPlansRule3StoppedCheap))
	}
	return t, nil
}

// extClusterAware studies which failure-rate granularity the cost model
// should use. For fine-grained recovery (only the failing node repeats its
// partition work) the paper's per-node MTBF is the right choice; for
// coarse-grained recovery (any node failure restarts the whole query) the
// cluster-wide rate (MTBF/n, the ClusterAware extension) is. The experiment
// validates both matches against the simulator.
func extClusterAware(c Config) (*Table, error) {
	c = c.withDefaults()
	q, err := tpch.Q5(tpch.Params{SF: c.SF, Nodes: c.Nodes})
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Extension: failure-rate granularity vs recovery granularity — Q5@SF100 (runtime w/ failures, s)",
		Header: []string{"MTBF", "recovery", "actual", "per-node est", "err (%)", "cluster-wide est", "err (%)"},
		Notes: []string{
			"fine-grained recovery loses only the failing node's partition work: the per-node rate fits;",
			"coarse-grained restart is killed by any node's failure: the cluster-wide rate (MTBF/n) fits",
		},
	}
	for mi, mtbf := range []float64{failure.OneDay, failure.OneHour, failure.ThirtyMinutes} {
		spec := failure.Spec{Nodes: c.Nodes, MTBF: mtbf, MTTR: 1}
		perNode := cost.DefaultModel(spec)
		aware := perNode
		aware.ClusterAware = true
		traces := failure.NewTraces(spec, traceHorizon(q.Baseline), c.Seed+int64(mi)*53, c.Traces)

		// Fine-grained recovery of the cost-based plan.
		res, err := core.Optimize(q.Plan, core.Options{Model: perNode})
		if err != nil {
			return nil, err
		}
		actualFine, ok, err := exec.MeanRuntime(res.Plan, exec.Options{
			Cluster: spec, Model: perNode, Recovery: schemes.FineGrained,
		}, traces)
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, fmt.Errorf("ext-clusteraware: fine-grained aborted at MTBF %g", mtbf)
		}
		estAwareFine, err := aware.EstimateRuntime(res.Plan)
		if err != nil {
			return nil, err
		}
		t.AddRow(failure.FormatDuration(mtbf), "fine-grained", fsec(actualFine),
			fsec(res.Runtime), fpct((res.Runtime-actualFine)/actualFine*100),
			fsec(estAwareFine), fpct((estAwareFine-actualFine)/actualFine*100))

		// Coarse-grained restart of the no-mat plan; estimates use the
		// closed-form expected restart runtime E[T] = (e^(lt)-1)(1/l + MTTR)
		// with the per-node vs cluster-wide rate.
		noMat := q.Plan.Clone()
		if err := noMat.Apply(plan.NoMat(noMat)); err != nil {
			return nil, err
		}
		actualCoarse, finished, abortedRuns, err := exec.RuntimeStats(noMat, exec.Options{
			Cluster: spec, Model: perNode, Recovery: schemes.CoarseRestart,
		}, traces)
		if err != nil {
			return nil, err
		}
		if finished == 0 || abortedRuns > finished {
			t.AddRow(failure.FormatDuration(mtbf), "coarse restart",
				fmt.Sprintf("Aborted (%d/%d)", abortedRuns, len(traces)), "-", "-", "-", "-")
			continue
		}
		estPerNodeCoarse := failure.ExpectedRestartRuntime(q.Baseline, mtbf, spec.MTTR, 1)
		estAwareCoarse := failure.ExpectedRestartRuntime(q.Baseline, mtbf, spec.MTTR, spec.Nodes)
		t.AddRow(failure.FormatDuration(mtbf), "coarse restart", fsec(actualCoarse),
			fsec(estPerNodeCoarse), fpct((estPerNodeCoarse-actualCoarse)/actualCoarse*100),
			fsec(estAwareCoarse), fpct((estAwareCoarse-actualCoarse)/actualCoarse*100))
	}
	return t, nil
}

// extWeibull probes the paper's exponential-arrivals assumption (Section 2.2
// "as other work, we assume exponential arrival times between failures"):
// the same query and cost-based plan run against Weibull failure traces with
// the same per-node MTBF but different shapes. Shape 1 is the exponential
// base case; shape < 1 (bursty, infant-mortality) and shape > 1 (regular,
// wear-out) break memorylessness and shift both the actual overhead and the
// model's estimation error.
func extWeibull(c Config) (*Table, error) {
	c = c.withDefaults()
	q, err := tpch.Q5(tpch.Params{SF: c.SF, Nodes: c.Nodes})
	if err != nil {
		return nil, err
	}
	spec := failure.Spec{Nodes: c.Nodes, MTBF: failure.OneHour, MTTR: 1}
	m := cost.DefaultModel(spec)
	res, err := core.Optimize(q.Plan, core.Options{Model: m})
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Extension: Weibull failure arrivals — Q5@SF100 cost-based plan, MTBF=1 hour",
		Header: []string{"shape", "regime", "actual (s)", "estimate error (%)"},
		Notes: []string{
			"same mean failure rate in every row; only the inter-arrival distribution changes;",
			"the cost model is calibrated for shape=1 (memoryless), so its error grows as the distribution departs from it",
		},
	}
	regimes := map[float64]string{0.7: "bursty (infant mortality)", 1.0: "exponential (paper)", 1.5: "mild wear-out", 3.0: "regular wear-out"}
	for _, shape := range []float64{0.7, 1.0, 1.5, 3.0} {
		traces, err := failure.NewWeibullTraces(spec, traceHorizon(q.Baseline), c.Seed, c.Traces, shape)
		if err != nil {
			return nil, err
		}
		actual, ok, err := exec.MeanRuntime(res.Plan, exec.Options{
			Cluster: spec, Model: m, Recovery: schemes.FineGrained,
		}, traces)
		if err != nil {
			return nil, err
		}
		if !ok {
			t.AddRow(fmt.Sprintf("%g", shape), regimes[shape], "Aborted", "-")
			continue
		}
		t.AddRow(fmt.Sprintf("%g", shape), regimes[shape],
			fsec(actual), fpct((res.Runtime-actual)/actual*100))
	}
	return t, nil
}
