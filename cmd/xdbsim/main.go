// Command xdbsim runs one TPC-H query under one fault-tolerance scheme on a
// simulated shared-nothing cluster with an injected failure trace, printing
// the per-stage timeline — the reproduction of a single cell of the paper's
// overhead figures.
//
// Usage:
//
//	xdbsim -query Q5 -scheme cost-based -sf 100 -mtbf 3600 -seed 3
//	xdbsim -query Q1C -scheme all-mat -mtbf 1800
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"ftpde/internal/cost"
	"ftpde/internal/exec"
	"ftpde/internal/failure"
	"ftpde/internal/obs"
	"ftpde/internal/obs/metrics"
	"ftpde/internal/schemes"
	"ftpde/internal/tpch"
)

func main() {
	var (
		query    = flag.String("query", "Q5", "TPC-H query: Q1, Q3, Q5, Q1C, Q2C")
		scheme   = flag.String("scheme", "cost-based", "fault-tolerance scheme: all-mat, no-mat-lineage, no-mat-restart, cost-based")
		sf       = flag.Float64("sf", 100, "TPC-H scale factor")
		nodes    = flag.Int("nodes", 10, "cluster size")
		mtbf     = flag.Float64("mtbf", failure.OneHour, "per-node MTBF (seconds)")
		mttr     = flag.Float64("mttr", 1, "mean time to repair (seconds)")
		seed     = flag.Int64("seed", 1, "failure trace seed")
		traceOut = flag.String("trace-out", "", "write the simulated timeline to this file in Chrome trace_event format")
		debug    = flag.String("debug-addr", "", "serve the simulated timeline and pprof on this address until interrupted")
		metOut   = flag.String("metrics-out", "", "write the simulated run's metrics registry snapshot to this file as JSON")
	)
	flag.Parse()

	builders := map[string]func(tpch.Params) (*tpch.Query, error){
		"Q1": tpch.Q1, "Q3": tpch.Q3, "Q5": tpch.Q5, "Q1C": tpch.Q1C, "Q2C": tpch.Q2C,
	}
	build, ok := builders[*query]
	if !ok {
		fatal(fmt.Errorf("unknown query %q", *query))
	}
	kinds := map[string]schemes.Kind{
		"all-mat": schemes.AllMat, "no-mat-lineage": schemes.NoMatLineage,
		"no-mat-restart": schemes.NoMatRestart, "cost-based": schemes.CostBased,
	}
	kind, ok := kinds[*scheme]
	if !ok {
		fatal(fmt.Errorf("unknown scheme %q", *scheme))
	}

	q, err := build(tpch.Params{SF: *sf, Nodes: *nodes})
	if err != nil {
		fatal(err)
	}
	spec := failure.Spec{Nodes: *nodes, MTBF: *mtbf, MTTR: *mttr}
	model := cost.DefaultModel(spec)

	cfg, err := kind.Configure(q.Plan, model)
	if err != nil {
		fatal(err)
	}
	p := q.Plan.Clone()
	if err := p.Apply(cfg); err != nil {
		fatal(err)
	}

	trace := failure.NewTrace(spec, 500*q.Baseline, *seed)
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

	if *traceOut != "" {
		if err := obs.WriteChromeTraceSpans(*traceOut, exec.SimEpoch, res.Spans); err != nil {
			fatal(err)
		}
		fmt.Printf("\nwrote Chrome trace to %s (simulated seconds map to wall-clock seconds)\n", *traceOut)
	}
	if *metOut != "" {
		data, err := json.MarshalIndent(simRegistry(res).Snapshot(), "", "  ")
		if err == nil {
			err = os.WriteFile(*metOut, append(data, '\n'), 0o644)
		}
		if err != nil {
			fatal(err)
		}
		fmt.Printf("\nwrote metrics snapshot to %s\n", *metOut)
	}
	if *debug != "" {
		tracer := obs.NewTracer(len(res.Spans) * 2)
		for _, sp := range res.Spans {
			tracer.Record(sp)
		}
		srv, err := obs.StartDebug(*debug, tracer, func() any { return res }, simRegistry(res), nil)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("\ndebug server on http://%s/debug/timeline — ctrl-c to exit\n", srv.Addr())
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, os.Interrupt)
		<-ch
		srv.Close()
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
	fmt.Fprintln(os.Stderr, "xdbsim:", err)
	os.Exit(1)
}
