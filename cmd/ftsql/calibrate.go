// Calibration closes the paper's open loop: Section 3 assumes MTBF, MTTR,
// tr(o) and tm(o) are known inputs to findBestFTPlan. Here ftsql measures
// them — it draws one failure.Trace at the injected per-node MTBF (model
// seconds), executes TPC-H-shaped queries end to end on that trace's clock
// with the kills the simulator schedules from it (so a run replays), fits
// the trace and the per-operator audit rows with stats/calibrate, and
// re-plans with the calibrated model to show how the materialization choice
// moves.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"ftpde/internal/cost"
	"ftpde/internal/engine"
	"ftpde/internal/exec"
	"ftpde/internal/failure"
	"ftpde/internal/obs"
	"ftpde/internal/obs/metrics"
	"ftpde/internal/runtime"
	"ftpde/internal/sql"
	"ftpde/internal/stats"
	"ftpde/internal/stats/calibrate"
	"ftpde/internal/tpch"
)

// calibrateQueries are the TPC-H shapes the loop executes: Q1 (scan +
// aggregate), Q3 (3-way join) and a Q5-like 6-way join — the same spread of
// plan depths the paper's experiments cover.
var calibrateQueries = []struct{ name, text string }{
	{"Q1", `
		SELECT l_returnflag, l_linestatus,
		       SUM(l_quantity) AS sum_qty,
		       SUM(l_extendedprice) AS sum_price,
		       COUNT(*) AS cnt
		FROM lineitem
		WHERE l_shipdate <= 1200
		GROUP BY l_returnflag, l_linestatus`},
	{"Q3", `
		SELECT l_orderkey, SUM(l_extendedprice * (1 - l_discount)) AS revenue
		FROM customer
		JOIN orders ON c_custkey = o_custkey
		JOIN lineitem ON o_orderkey = l_orderkey
		WHERE c_mktsegment = 'BUILDING' AND o_orderdate < 1200
		GROUP BY l_orderkey
		ORDER BY revenue DESC`},
	{"Q5", `
		SELECT n_name, SUM(l_extendedprice * (1 - l_discount)) AS revenue
		FROM region
		JOIN nation ON r_regionkey = n_regionkey
		JOIN supplier ON n_nationkey = s_nationkey
		JOIN lineitem ON s_suppkey = l_suppkey
		JOIN orders ON l_orderkey = o_orderkey
		JOIN customer ON o_custkey = c_custkey
		GROUP BY n_name
		ORDER BY revenue DESC`},
}

type calibrateOptions struct {
	SF     float64
	Nodes  int
	Seed   int64
	Runs   int     // rounds of Q1/Q3/Q5 to execute
	MTBF   float64 // injected per-node MTBF, model seconds
	Window float64 // failure-trace horizon for the MTBF fit, model seconds
	TopK   int     // join orders enumerated when re-planning
}

// queryDelta is the before/after of one query's re-planning.
type queryDelta struct {
	Name        string  `json:"name"`
	BaseConfig  string  `json:"base_config"`
	CalConfig   string  `json:"calibrated_config"`
	BaseRuntime float64 `json:"base_runtime"`
	CalRuntime  float64 `json:"calibrated_runtime"`
	Changed     bool    `json:"changed"`
}

type calibrateResult struct {
	Injected  float64                `json:"injected_mtbf"`
	Estimate  calibrate.MTBFEstimate `json:"mtbf_estimate"`
	MTTR      float64                `json:"mttr"`
	MTTRCount int                    `json:"mttr_samples"`
	TRFactor  float64                `json:"tr_factor"`
	TMFactor  float64                `json:"tm_factor"`
	Model     cost.Model             `json:"model"`
	Params    stats.CostParams       `json:"params"`
	Failures  int                    `json:"failures"`
	Wasted    float64                `json:"wasted_seconds"`
	Queries   []queryDelta           `json:"queries"`

	summary string
}

// runCalibrate executes the calibration loop and returns everything the
// report (and the tests) need.
func runCalibrate(o calibrateOptions) (*calibrateResult, error) {
	if o.Runs < 1 {
		o.Runs = 1
	}
	if o.TopK < 1 {
		o.TopK = 3
	}
	if o.MTBF <= 0 {
		return nil, fmt.Errorf("calibrate: injected MTBF must be positive, got %g", o.MTBF)
	}
	cat, err := tpch.Generate(o.SF, o.Nodes, o.Seed)
	if err != nil {
		return nil, err
	}

	// The uncalibrated prior: the defaults every other ftsql mode starts from.
	cp := stats.CostParams{CPUPerRow: 1e-6, WritePerRow: 1.7e-5, Nodes: o.Nodes}
	base := cost.Model{MTBF: failure.OneHour, MTTR: 1, Percentile: 0.95, PipeConst: 1, Nodes: o.Nodes}

	est := calibrate.New(o.Nodes)
	spec := failure.Spec{Nodes: o.Nodes, MTBF: o.MTBF}
	trace := failure.NewTrace(spec, o.Window, o.Seed)
	// The trace is the cluster failure log — what a production system reads
	// from its monitoring history. Fitting it estimates the MTBF independent
	// of how many arrivals happened to hit query execution.
	var log []float64
	for _, times := range trace.PerNode {
		log = append(log, times...)
	}
	est.ObserveArrivals(log)
	clock := 0.0 // model time at which the next execution starts

	out := &calibrateResult{Injected: o.MTBF}
	for run := 0; run < o.Runs; run++ {
		for _, q := range calibrateQueries {
			stmt, err := sql.Parse(q.text)
			if err != nil {
				return nil, fmt.Errorf("calibrate %s: %w", q.name, err)
			}
			tstats, err := sql.CollectStats(cat, tableNames(stmt))
			if err != nil {
				return nil, fmt.Errorf("calibrate %s: %w", q.name, err)
			}
			audit, err := sql.BuildAuditPlan(stmt, cat, tstats, cp, base)
			if err != nil {
				return nil, fmt.Errorf("calibrate %s: %w", q.name, err)
			}
			kills, sim, err := exec.KillSchedule(audit.Opt.Plan, audit.Pred,
				exec.Options{Cluster: spec, Model: base}, trace.From(clock))
			if err != nil {
				return nil, fmt.Errorf("calibrate %s: %w", q.name, err)
			}
			clock += sim.Runtime
			tracer := obs.NewTracer(obs.DefaultCapacity)
			em := &runtime.Metrics{}
			r, err := runtime.New(runtime.Config{Nodes: o.Nodes, Injector: kills, Tracer: tracer, Metrics: em})
			if err != nil {
				return nil, err
			}
			_, rep, err := r.Execute(context.Background(), audit.Phys.Root)
			if err != nil {
				return nil, fmt.Errorf("calibrate %s: %w", q.name, err)
			}
			out.Failures += rep.Failures
			out.Wasted += em.Ledger().Snapshot().WastedSeconds()

			spans := tracer.Snapshot()
			report := obs.BuildAudit(audit.Pred, spans, tracer.Dropped())
			for _, row := range report.Rows {
				// tr is calibrated against failure-free work: total task wall
				// minus the attempts a failure destroyed.
				obsTR := (row.Obs.TaskWall - row.Obs.WastedWall).Seconds()
				predTM, obsTM := 0.0, 0.0
				if row.Pred.Materialize {
					predTM = row.Pred.TM
					// Observed tm(c) is the wall time of the actual
					// checkpoint writes — compressed FTCB blocks — so the
					// tm factor folds the compression ratio into WritePerRow
					// and re-planning prices materialization at its real
					// (smaller) cost.
					obsTM = row.Obs.CheckpointWall.Seconds()
				}
				est.ObserveOp(row.Pred.TR, obsTR, predTM, obsTM)
			}
			for _, sp := range spans {
				if sp.Kind == obs.KindRecovery {
					est.ObserveRepair(sp.Duration().Seconds())
				}
			}
		}
	}

	out.Estimate = est.MTBF()
	out.MTTR, out.MTTRCount = est.MTTR()
	out.TRFactor, out.TMFactor = est.Factors()
	out.Model = est.Model(base)
	out.Params = est.Params(cp)
	out.summary = est.Summary()

	// Re-plan every query under the prior and the calibrated model and report
	// how the materialization choice moved.
	for _, q := range calibrateQueries {
		stmt, err := sql.Parse(q.text)
		if err != nil {
			return nil, err
		}
		tstats, err := sql.CollectStats(cat, tableNames(stmt))
		if err != nil {
			return nil, err
		}
		basePlan, err := sql.FTPlan(stmt, cat, tstats, cp, base, o.TopK)
		if err != nil {
			return nil, fmt.Errorf("re-plan %s (prior): %w", q.name, err)
		}
		calPlan, err := sql.FTPlan(stmt, cat, tstats, out.Params, out.Model, o.TopK)
		if err != nil {
			return nil, fmt.Errorf("re-plan %s (calibrated): %w", q.name, err)
		}
		d := queryDelta{
			Name:        q.name,
			BaseConfig:  basePlan.Config.String(),
			CalConfig:   calPlan.Config.String(),
			BaseRuntime: basePlan.Runtime,
			CalRuntime:  calPlan.Runtime,
		}
		d.Changed = d.BaseConfig != d.CalConfig
		out.Queries = append(out.Queries, d)
	}
	return out, nil
}

func tableNames(stmt *sql.SelectStmt) []string {
	names := make([]string, 0, len(stmt.From))
	for _, tr := range stmt.From {
		names = append(names, tr.Table)
	}
	return names
}

// Report renders the calibration outcome for the CLI.
func (r *calibrateResult) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "calibration over %d failures observed (%.4gs wasted, injected per-node MTBF %.4g model s):\n",
		r.Failures, r.Wasted, r.Injected)
	fmt.Fprintf(&b, "%s\n\n", r.summary)
	model, _ := json.Marshal(r.Model)
	params, _ := json.Marshal(r.Params)
	fmt.Fprintf(&b, "calibrated cost.Model:  %s\n", model)
	fmt.Fprintf(&b, "calibrated CostParams:  %s\n\n", params)
	fmt.Fprintf(&b, "re-planned materialization configurations (prior MTBF %s -> calibrated):\n", failure.FormatDuration(failure.OneHour))
	for _, q := range r.Queries {
		marker := " "
		if q.Changed {
			marker = "*"
		}
		fmt.Fprintf(&b, "%s %-4s %-24s T=%-10.4g ->  %-24s T=%.4g\n",
			marker, q.Name, q.BaseConfig, q.BaseRuntime, q.CalConfig, q.CalRuntime)
	}
	return b.String()
}

// metricsTable documents every metric family ftsql can expose; -list-metrics
// prints it and docs/METRICS.md embeds it (a test keeps them in sync).
func metricsTable() string {
	em := &runtime.Metrics{}
	reg := em.Registry()
	obs.RegisterTraceMetrics(reg, nil)
	obs.RegisterProgressMetrics(reg, nil)
	obs.RegisterDriftMetrics(reg, nil)
	obs.RegisterForensicsMetrics(reg, nil)
	engine.RegisterArenaMetrics(reg, nil)
	return metrics.DescribeTable(reg.Describe())
}

// writeMetricsSnapshot writes the registry's JSON snapshot for -metrics-out.
func writeMetricsSnapshot(path string, reg *metrics.Registry) error {
	data, err := json.MarshalIndent(reg.Snapshot(), "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
