package main

import (
	"encoding/json"
	"fmt"
	"os"

	"ftpde/internal/cost"
	"ftpde/internal/exec"
	"ftpde/internal/failure"
	"ftpde/internal/obs"
	"ftpde/internal/obs/metrics"
	"ftpde/internal/schemes"
	"ftpde/internal/tpch"
)

// simOptions are the flags of `ftbench -exp sim`.
type simOptions struct {
	query, scheme        string
	sf, mtbf, mttr       float64
	nodes                int
	seed                 int64
	traceOut, metricsOut string
}

// runSim runs one TPC-H query under one fault-tolerance scheme on a
// simulated shared-nothing cluster with an injected failure trace, printing
// the per-stage timeline: the reproduction of a single cell of the paper's
// overhead figures.
func runSim(o simOptions) {
	builders := map[string]func(tpch.Params) (*tpch.Query, error){
		"Q1": tpch.Q1, "Q3": tpch.Q3, "Q5": tpch.Q5, "Q1C": tpch.Q1C, "Q2C": tpch.Q2C,
	}
	build, ok := builders[o.query]
	if !ok {
		fatal(fmt.Errorf("unknown query %q", o.query))
	}
	kinds := map[string]schemes.Kind{
		"all-mat": schemes.AllMat, "no-mat-lineage": schemes.NoMatLineage,
		"no-mat-restart": schemes.NoMatRestart, "cost-based": schemes.CostBased,
	}
	kind, ok := kinds[o.scheme]
	if !ok {
		fatal(fmt.Errorf("unknown scheme %q", o.scheme))
	}

	q, err := build(tpch.Params{SF: o.sf, Nodes: o.nodes})
	if err != nil {
		fatal(err)
	}
	spec := failure.Spec{Nodes: o.nodes, MTBF: o.mtbf, MTTR: o.mttr}
	model := cost.DefaultModel(spec)

	cfg, err := kind.Configure(q.Plan, model)
	if err != nil {
		fatal(err)
	}
	p := q.Plan.Clone()
	if err := p.Apply(cfg); err != nil {
		fatal(err)
	}

	trace := failure.NewTrace(spec, 500*q.Baseline, o.seed)
	res, err := exec.Run(p, exec.Options{Cluster: spec, Model: model, Recovery: kind.Recovery()}, trace)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("%s under %s on %s\n", q.Name, kind, spec)
	fmt.Printf("baseline (failure-free, pipelined): %.2fs\n", q.Baseline)
	fmt.Printf("materialized intermediates: %s\n", cfg)
	if res.Aborted {
		fmt.Printf("ABORTED after %d restarts (%.2fs elapsed)\n", res.Restarts, res.Runtime)
		return
	}
	fmt.Printf("simulated runtime: %.2fs (overhead %.2f%%), %d failures hit execution",
		res.Runtime, (res.Runtime-q.Baseline)/q.Baseline*100, res.Failures)
	if res.Restarts > 0 {
		fmt.Printf(", %d full restarts", res.Restarts)
	}
	fmt.Println()
	if res.Failures > 0 {
		fmt.Println(res.Ledger.String())
	}

	if len(res.Stages) > 0 {
		exec.SortStages(res.Stages)
		fmt.Println("\nstage timeline:")
		fmt.Printf("  %-28s %-10s %-10s %-8s %s\n", "stage", "start", "end", "work", "retries")
		for _, s := range res.Stages {
			fmt.Printf("  %-28s %-10.2f %-10.2f %-8.2f %d\n", s.Name, s.Start, s.End, s.Work, s.Retries)
		}
		fmt.Println("\ngantt (each ▓ block is simulated time; ░ marks retry-inflated span):")
		printGantt(res.Stages, res.Runtime)
	}

	if o.traceOut != "" {
		if err := obs.WriteChromeTraceSpans(o.traceOut, exec.SimEpoch, res.Spans); err != nil {
			fatal(err)
		}
		fmt.Printf("\nwrote Chrome trace to %s (simulated seconds map to wall-clock seconds)\n", o.traceOut)
	}
	if o.metricsOut != "" {
		data, err := json.MarshalIndent(simRegistry(res).Snapshot(), "", "  ")
		if err == nil {
			err = os.WriteFile(o.metricsOut, append(data, '\n'), 0o644)
		}
		if err != nil {
			fatal(err)
		}
		fmt.Printf("\nwrote metrics snapshot to %s\n", o.metricsOut)
	}
}

// simRegistry exposes a simulated run through the shared metric vocabulary:
// the runtime, failure and restart totals plus the wasted-work ledger, all in
// simulated seconds.
func simRegistry(res *exec.Result) *metrics.Registry {
	reg := metrics.NewRegistry()
	reg.MustRegisterFunc(metrics.Desc{
		Name: "ftpde_sim_runtime_seconds", Kind: metrics.KindGauge, Unit: "seconds",
		Help: "Simulated query runtime under the injected failure trace.",
	}, func() []metrics.Sample { return []metrics.Sample{{Value: res.Runtime}} })
	reg.MustRegisterFunc(metrics.Desc{
		Name: "ftpde_sim_failures_total", Kind: metrics.KindCounter,
		Help: "Failures that interrupted the simulated execution.",
	}, func() []metrics.Sample { return []metrics.Sample{{Value: float64(res.Failures)}} })
	reg.MustRegisterFunc(metrics.Desc{
		Name: "ftpde_sim_restarts_total", Kind: metrics.KindCounter,
		Help: "Full-query restarts (coarse-grained recovery only).",
	}, func() []metrics.Sample { return []metrics.Sample{{Value: float64(res.Restarts)}} })
	reg.MustRegisterFunc(metrics.Desc{
		Name: "ftpde_wasted_seconds_total", Kind: metrics.KindCounter, Unit: "seconds",
		Labels: []string{"cause"},
		Help:   "Simulated seconds lost to failures and repair waits, by cause.",
	}, func() []metrics.Sample {
		out := make([]metrics.Sample, 0, len(res.Ledger.Totals))
		for _, t := range res.Ledger.Totals {
			out = append(out, metrics.Sample{LabelValues: []string{string(t.Cause)}, Value: t.Seconds})
		}
		return out
	})
	return reg
}

// printGantt renders stage intervals as an ASCII chart scaled to the total
// runtime. The deterministic-work portion of each stage prints as ▓, the
// extra span caused by failures and redeploys as ░.
func printGantt(stages []exec.StageReport, total float64) {
	const width = 64
	if total <= 0 {
		return
	}
	for _, s := range stages {
		startCol := int(s.Start / total * width)
		workEnd := s.Start + s.Work
		if workEnd > s.End {
			workEnd = s.End
		}
		workCol := int(workEnd / total * width)
		endCol := int(s.End / total * width)
		if endCol <= startCol {
			endCol = startCol + 1
		}
		if workCol < startCol {
			workCol = startCol
		}
		line := make([]rune, width)
		for i := range line {
			line[i] = ' '
		}
		for i := startCol; i < endCol && i < width; i++ {
			if i < workCol {
				line[i] = '▓'
			} else {
				line[i] = '░'
			}
		}
		fmt.Printf("  %-28s |%s|\n", s.Name, string(line))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ftbench:", err)
	os.Exit(1)
}
