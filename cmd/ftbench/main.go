// Command ftbench regenerates the tables and figures of "Cost-based
// Fault-tolerance for Parallel Data Processing" (SIGMOD'15) on the simulated
// cluster substrate. `-exp sim` runs a single cell instead: one query under
// one scheme against one failure trace, printed as a stage timeline.
//
// Usage:
//
//	ftbench -list
//	ftbench -exp all
//	ftbench -exp fig8a -traces 20 -seed 7
//	ftbench -exp sim -query Q5 -scheme cost-based -sf 100 -mtbf 3600 -seed 3
//	ftbench -exp sim -query Q1C -scheme all-mat -mtbf 1800
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"ftpde/internal/experiments"
	"ftpde/internal/failure"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment id (see -list), 'all' (paper exhibits), 'extras' (ablations/extensions), 'everything', or 'sim' (one query on the simulated cluster)")
		list     = flag.Bool("list", false, "list available experiments")
		nodes    = flag.Int("nodes", 10, "cluster size")
		traces   = flag.Int("traces", 10, "failure traces per MTBF")
		seed     = flag.Int64("seed", 1, "trace generation seed")
		sf       = flag.Float64("sf", 100, "TPC-H scale factor for fixed-scale experiments")
		query    = flag.String("query", "Q5", "-exp sim: TPC-H query: Q1, Q3, Q5, Q1C, Q2C")
		scheme   = flag.String("scheme", "cost-based", "-exp sim: fault-tolerance scheme: all-mat, no-mat-lineage, no-mat-restart, cost-based")
		mtbf     = flag.Float64("mtbf", failure.OneHour, "-exp sim: per-node MTBF (seconds)")
		mttr     = flag.Float64("mttr", 1, "-exp sim: mean time to repair (seconds)")
		traceOut = flag.String("trace-out", "", "-exp sim: write the simulated timeline to this file in Chrome trace_event format")
		metOut   = flag.String("metrics-out", "", "-exp sim: write the run's metrics registry snapshot to this file as JSON")
	)
	flag.Parse()

	if *list {
		for _, r := range experiments.Everything() {
			fmt.Printf("%-20s %s\n", r.ID, r.Desc)
		}
		fmt.Printf("%-20s %s\n", "sim", "One query under one scheme against one failure trace (-query, -scheme, -mtbf, -mttr)")
		return
	}
	if *exp == "sim" {
		runSim(simOptions{
			query: *query, scheme: *scheme, sf: *sf, mtbf: *mtbf, mttr: *mttr, nodes: *nodes, seed: *seed,
			traceOut: *traceOut, metricsOut: *metOut,
		})
		return
	}
	if *traceOut != "" || *metOut != "" {
		fatal(fmt.Errorf("-trace-out and -metrics-out apply to -exp sim only"))
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
	for _, r := range runners {
		start := time.Now()
		tbl, err := r.Run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", r.ID, err)
			os.Exit(1)
		}
		fmt.Println(tbl)
		fmt.Printf("(%s regenerated in %v)\n\n", r.ID, time.Since(start).Round(time.Millisecond))
	}
}
