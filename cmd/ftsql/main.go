// Command ftsql runs SQL against a generated TPC-H database on the
// partition-parallel engine, optionally under the cost-based fault-tolerance
// scheme with injected node failures.
//
// Usage:
//
//	echo "SELECT l_returnflag, COUNT(*) FROM lineitem GROUP BY l_returnflag" | ftsql
//	ftsql -q "SELECT ... " -sf 0.01 -nodes 4
//	ftsql -q "..." -fail "join-1/2/0,aggregate/0/0"    # op/partition/attempt
//	ftsql -q "..." -explain -mtbf 3600                 # cost plan + FT choice
//	ftsql -q "..." -stats                              # runtime metrics
//	ftsql -calibrate -calibrate-mtbf 0.05              # estimate MTBF/MTTR + tr/tm, re-plan
//	ftsql -list-metrics                                # document the metric vocabulary
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"ftpde/internal/cost"
	"ftpde/internal/engine"
	"ftpde/internal/failure"
	"ftpde/internal/obs"
	"ftpde/internal/runtime"
	"ftpde/internal/sql"
	"ftpde/internal/stats"
	"ftpde/internal/tpch"
)

func main() {
	var (
		query    = flag.String("q", "", "SQL query (default: read from stdin)")
		sf       = flag.Float64("sf", 0.005, "TPC-H scale factor for the generated database")
		nodes    = flag.Int("nodes", 4, "cluster size / partition count")
		seed     = flag.Int64("seed", 7, "data generation seed")
		failSpec = flag.String("fail", "", "injected failures, comma-separated op/partition/attempt triples")
		mat      = flag.String("mat", "", "comma-separated operator names to materialize (e.g. join-1,join-2)")
		explain  = flag.Bool("explain", false, "print the cost plan and the optimizer's materialization choice instead of executing")
		topK     = flag.Int("topk", 5, "join orders to enumerate for -explain (phase 1 of enumFTPlans)")
		mtbf     = flag.Float64("mtbf", failure.OneHour, "per-node MTBF for -explain (seconds)")
		maxRows  = flag.Int("rows", 20, "max result rows to print")
		batch    = flag.Int("batch", engine.DefaultBatchSize, "pipeline batch size in rows")
		showStat = flag.Bool("stats", false, "print runtime metrics (counters, per-stage wall, wasted work) after execution")
		analyze  = flag.Bool("explain-analyze", false, "execute with tracing and print the cost model's predicted-vs-actual audit")
		traceOut = flag.String("trace-out", "", "write the execution timeline to this file in Chrome trace_event format")
		debug    = flag.String("debug-addr", "", "serve live introspection (/metrics, /debug/vars, /debug/queries, /debug/timeline, /debug/trace, /debug/pprof) on this address during execution")
		metOut   = flag.String("metrics-out", "", "write the final metrics registry snapshot to this file as JSON")
		listMet  = flag.Bool("list-metrics", false, "print every metric family this binary can expose, then exit")
		replay   = flag.String("replay-bundle", "", "pretty-print a failure forensics bundle (JSON file written by ftserve -forensics-dir), then exit")
		cal      = flag.Bool("calibrate", false, "run the calibration loop: execute rounds of TPC-H Q1/Q3/Q5 under the failures of one seeded failure trace, estimate MTBF/MTTR and tr/tm correction factors, and re-plan with the calibrated model")
		calRuns  = flag.Int("calibrate-runs", 3, "rounds of Q1/Q3/Q5 executed while calibrating")
		calMTBF  = flag.Float64("calibrate-mtbf", 2, "per-node MTBF in model seconds of the failure trace calibration runs against (replayable: kills are simulated from the trace, not timed)")
		calWin   = flag.Float64("calibrate-window", 400, "failure-trace horizon in model seconds backing the MTBF fit")
	)
	flag.Parse()

	if *listMet {
		fmt.Print(metricsTable())
		return
	}
	if *replay != "" {
		b, err := obs.ReadBundle(*replay)
		if err != nil {
			fatal(err)
		}
		fmt.Print(b.String())
		return
	}
	if *cal {
		res, err := runCalibrate(calibrateOptions{
			SF: *sf, Nodes: *nodes, Seed: *seed, Runs: *calRuns,
			MTBF: *calMTBF, Window: *calWin, TopK: *topK,
		})
		if err != nil {
			fatal(err)
		}
		fmt.Print(res.Report())
		return
	}

	text := *query
	if text == "" {
		data, err := io.ReadAll(os.Stdin)
		if err != nil {
			fatal(err)
		}
		text = string(data)
	}
	if strings.TrimSpace(text) == "" {
		fatal(fmt.Errorf("no query given (use -q or stdin)"))
	}

	stmt, err := sql.Parse(text)
	if err != nil {
		fatal(err)
	}
	cat, err := tpch.Generate(*sf, *nodes, *seed)
	if err != nil {
		fatal(err)
	}
	// -explain and -explain-analyze price plans at -mtbf with a 1s MTTR.
	model := cost.DefaultModel(failure.Spec{Nodes: *nodes, MTBF: *mtbf, MTTR: 1})

	if *explain {
		tstats, err := sql.CollectStats(cat, stmt.Tables())
		if err != nil {
			fatal(err)
		}
		res, err := sql.FTPlan(stmt, cat, tstats, stats.DefaultCostParams(*nodes), model, *topK)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("best fault-tolerant plan over top-%d join orders (%d candidates scored, %d/%d configs enumerated):\n",
			*topK, res.Stats.PlansConsidered, res.Stats.FTPlansEnumerated, res.Stats.FTPlansTotal)
		for _, op := range res.Plan.Operators() {
			marker := " "
			if op.Materialize {
				marker = "M"
			}
			fmt.Printf("  [%s] %-40s tr=%-10.4g tm=%-10.4g rows=%.4g\n",
				marker, op.Name, op.RunCost, op.MatCost, op.Rows)
		}
		fmt.Printf("\ncost-based choice at MTBF=%s: materialize %s, estimated runtime %.4gs\n",
			failure.FormatDuration(*mtbf), res.Config, res.Runtime)
		return
	}

	var tracer *obs.Tracer
	if *analyze || *traceOut != "" || *debug != "" {
		tracer = obs.NewTracer(obs.DefaultCapacity)
	}

	var pp *sql.PhysicalPlan
	var audit *sql.AuditPlan
	if *analyze {
		tstats, err := sql.CollectStats(cat, stmt.Tables())
		if err != nil {
			fatal(err)
		}
		audit, err = sql.BuildAuditPlan(stmt, cat, tstats, stats.DefaultCostParams(*nodes), model)
		if err != nil {
			fatal(err)
		}
		pp = audit.Phys
	} else {
		pp, err = sql.Compile(stmt, cat)
		if err != nil {
			fatal(err)
		}
	}
	for _, name := range splitList(*mat) {
		found := false
		for _, j := range pp.Joins {
			if j.Name() == name {
				j.SetMaterialize(true)
				found = true
			}
		}
		if !found {
			fatal(fmt.Errorf("unknown materialization target %q (joins: %v)", name, joinNames(pp)))
		}
	}

	injector, err := engine.ParseFailures(*failSpec)
	if err != nil {
		fatal(err)
	}

	// One Exec aggregates counters, histograms and the wasted-work ledger of
	// the execution; the debug server reads it live.
	em := &runtime.Metrics{}
	var (
		progReg *obs.ProgressRegistry
		prog    *obs.Progress
	)
	if tracer != nil {
		obs.RegisterTraceMetrics(em.Registry(), tracer)
		progReg = obs.NewProgressRegistry(8)
		prog = progReg.Begin("cli", pp.Root.Name())
		if audit != nil {
			prog.SetPrediction(audit.Pred.DominantRuntime, obs.StagePredictions(audit.Pred))
		}
	}
	if *debug != "" {
		srv, derr := obs.StartDebug(*debug, tracer, func() any { return em.Snapshot() }, em.Registry(), progReg)
		if derr != nil {
			fatal(derr)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "ftsql: debug server on http://%s/debug/vars\n", srv.Addr())
	}

	var (
		res *engine.PartitionedResult
		rep *engine.Report
	)
	r, err := runtime.New(runtime.Config{Nodes: *nodes, Injector: injector, BatchSize: *batch, Tracer: tracer, Metrics: em, Progress: prog})
	if err == nil {
		res, rep, err = r.Execute(context.Background(), pp.Root)
	}
	progReg.End(prog, err)
	if err != nil {
		fatal(err)
	}
	if tracer != nil && tracer.Dropped() > 0 {
		fmt.Fprintf(os.Stderr, "ftsql: WARNING: tracer dropped %d spans (ring buffer wrapped); audit and timeline are incomplete — raise the tracer capacity\n", tracer.Dropped())
	}
	if *showStat {
		fmt.Fprintf(os.Stderr, "runtime metrics: %s\n\n", em.Snapshot())
	}
	if *metOut != "" {
		if werr := writeMetricsSnapshot(*metOut, em.Registry()); werr != nil {
			fatal(werr)
		}
		fmt.Fprintf(os.Stderr, "ftsql: wrote metrics snapshot to %s\n", *metOut)
	}

	if *traceOut != "" {
		if werr := obs.WriteChromeTraceSpans(*traceOut, tracer.Epoch(), tracer.Snapshot()); werr != nil {
			fatal(werr)
		}
		fmt.Fprintf(os.Stderr, "ftsql: wrote Chrome trace to %s (load in chrome://tracing or Perfetto)\n", *traceOut)
	}

	if *analyze {
		report := obs.BuildAudit(audit.Pred, tracer.Snapshot(), tracer.Dropped())
		fmt.Printf("materialization choice %s (estimated runtime %.4gs); %d result rows\n\n",
			audit.Opt.Config, audit.Opt.Runtime, len(res.AllRows()))
		fmt.Print(report.String())
		fmt.Printf("\nexecution report: failures handled %d, partitions recomputed %d, materialized %d\n",
			rep.Failures, rep.RecomputedPartitions, rep.MaterializedPartitions)
		return
	}

	// Header.
	var header []string
	for _, c := range pp.Output {
		header = append(header, c.Name)
	}
	fmt.Println(strings.Join(header, "\t"))
	rows := res.AllRows()
	for i, r := range rows {
		if i >= *maxRows {
			fmt.Printf("... (%d more rows)\n", len(rows)-*maxRows)
			break
		}
		cells := make([]string, len(r))
		for j, v := range r {
			cells[j] = fmt.Sprintf("%v", v)
		}
		fmt.Println(strings.Join(cells, "\t"))
	}
	fmt.Printf("\n%d rows; failures handled: %d, partitions recomputed: %d, materialized: %d\n",
		len(rows), rep.Failures, rep.RecomputedPartitions, rep.MaterializedPartitions)
}

func splitList(s string) []string {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func joinNames(pp *sql.PhysicalPlan) []string {
	var out []string
	for _, j := range pp.Joins {
		out = append(out, j.Name())
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ftsql:", err)
	os.Exit(1)
}
