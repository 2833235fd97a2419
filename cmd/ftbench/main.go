// Command ftbench regenerates the tables and figures of "Cost-based
// Fault-tolerance for Parallel Data Processing" (SIGMOD'15) on the simulated
// cluster substrate.
//
// Usage:
//
//	ftbench -list
//	ftbench -exp all
//	ftbench -exp fig8a -traces 20 -seed 7
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"ftpde/internal/experiments"
	"ftpde/internal/obs"
	"ftpde/internal/obs/metrics"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment id (see -list), 'all' (paper exhibits), 'extras' (ablations/extensions), or 'everything'")
		list     = flag.Bool("list", false, "list available experiments")
		nodes    = flag.Int("nodes", 10, "cluster size")
		traces   = flag.Int("traces", 10, "failure traces per MTBF")
		seed     = flag.Int64("seed", 1, "trace generation seed")
		sf       = flag.Float64("sf", 100, "TPC-H scale factor for fixed-scale experiments")
		debug    = flag.String("debug-addr", "", "serve live experiment progress and pprof on this address during the run")
		traceOut = flag.String("trace-out", "", "write the per-experiment timing timeline to this file in Chrome trace_event format")
		metOut   = flag.String("metrics-out", "", "write the final metrics registry snapshot to this file as JSON")
	)
	flag.Parse()

	if *list {
		for _, r := range experiments.Everything() {
			fmt.Printf("%-20s %s\n", r.ID, r.Desc)
		}
		return
	}

	cfg := experiments.Config{Nodes: *nodes, Traces: *traces, Seed: *seed, SF: *sf}
	var runners []experiments.Runner
	switch *exp {
	case "all":
		runners = experiments.All()
	case "extras":
		runners = experiments.Extras()
	case "everything":
		runners = experiments.Everything()
	default:
		r, err := experiments.ByID(*exp)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		runners = []experiments.Runner{r}
	}
	var tracer *obs.Tracer
	if *debug != "" || *traceOut != "" || *metOut != "" {
		tracer = obs.NewTracer(obs.DefaultCapacity)
	}
	done := 0
	reg := metrics.NewRegistry()
	obs.RegisterTraceMetrics(reg, tracer)
	reg.MustRegisterFunc(metrics.Desc{
		Name: "ftpde_experiments_done", Kind: metrics.KindGauge,
		Help: "Experiments completed so far in this ftbench run.",
	}, func() []metrics.Sample {
		return []metrics.Sample{{Value: float64(done)}}
	})
	if *debug != "" {
		srv, err := obs.StartDebug(*debug, tracer, func() any {
			return map[string]any{"experiments_total": len(runners), "experiments_done": done}
		}, reg, nil)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "ftbench: debug server on http://%s/debug/vars\n", srv.Addr())
	}

	for _, r := range runners {
		start := time.Now()
		tbl, err := r.Run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", r.ID, err)
			os.Exit(1)
		}
		tracer.Record(obs.Span{Kind: obs.KindStage, Name: r.ID, Part: -1, Attempt: -1, Start: start, End: time.Now()})
		done++
		fmt.Println(tbl)
		fmt.Printf("(%s regenerated in %v)\n\n", r.ID, time.Since(start).Round(time.Millisecond))
	}
	if *traceOut != "" {
		if err := obs.WriteChromeTraceFile(*traceOut, tracer); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "ftbench: wrote Chrome trace to %s\n", *traceOut)
	}
	if *metOut != "" {
		data, err := json.MarshalIndent(reg.Snapshot(), "", "  ")
		if err == nil {
			err = os.WriteFile(*metOut, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "ftbench: wrote metrics snapshot to %s\n", *metOut)
	}
}
