// Calibration closes the paper's open loop: Section 3 assumes MTBF, MTTR,
// tr(o) and tm(o) are known inputs to findBestFTPlan. Here ftsql measures
// them — it draws one failure.Trace at the injected per-node MTBF (model
// seconds), executes TPC-H-shaped queries end to end on that trace's clock
// with the kills the simulator schedules from it (so a run replays), fits
// the trace and every run's spans with the drift detector ftserve runs
// online, and re-plans with the calibrated model to show how the
// materialization choice moves.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strings"

	"ftpde/internal/cost"
	"ftpde/internal/engine"
	"ftpde/internal/exec"
	"ftpde/internal/failure"
	"ftpde/internal/obs"
	"ftpde/internal/obs/metrics"
	"ftpde/internal/runtime"
	"ftpde/internal/service"
	"ftpde/internal/sql"
	"ftpde/internal/stats"
	"ftpde/internal/tpch"
)

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
	Injected float64            `json:"injected_mtbf"`
	Estimate stats.MTBFEstimate `json:"mtbf_estimate"`
	TRFactor float64            `json:"tr_factor"`
	TMFactor float64            `json:"tm_factor"`
	Model    cost.Model         `json:"model"`
	Params   stats.CostParams   `json:"params"`
	Failures int                `json:"failures"`
	Wasted   float64            `json:"wasted_seconds"`
	Queries  []queryDelta       `json:"queries"`
	Drift    obs.DriftSnapshot  `json:"drift"`
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

	// The loop executes ftserve's workload: Q1 (scan + aggregate), Q3 (3-way
	// join) and Q5 (6-way join), the spread of plan depths the paper's
	// experiments cover. A statement and its tables' statistics are fixed for
	// the run, so each is parsed and collected once.
	queries := service.TPCHQueries()
	stmts := make([]*sql.SelectStmt, len(queries))
	tstats := make([]map[string]sql.TableStats, len(queries))
	for i, q := range queries {
		if stmts[i], err = sql.Parse(q.Text); err != nil {
			return nil, fmt.Errorf("calibrate %s: %w", q.Name, err)
		}
		if tstats[i], err = sql.CollectStats(cat, stmts[i].Tables()); err != nil {
			return nil, fmt.Errorf("calibrate %s: %w", q.Name, err)
		}
	}

	// The uncalibrated prior: the defaults every other ftsql mode starts from.
	cp := stats.DefaultCostParams(o.Nodes)
	base := cost.DefaultModel(failure.Spec{Nodes: o.Nodes, MTBF: failure.OneHour, MTTR: 1})

	spec := failure.Spec{Nodes: o.Nodes, MTBF: o.MTBF}
	trace := failure.NewTrace(spec, o.Window, o.Seed)
	// The trace is the cluster failure log — what a production system reads
	// from its monitoring history. Fitting it estimates the MTBF independent
	// of how many arrivals happened to hit query execution.
	var log []float64
	for _, times := range trace.PerNode {
		log = append(log, times...)
	}
	// Every sample is one log arrival or one recorded span, and a run
	// records at most obs.DefaultCapacity spans: this window forgets none.
	det := obs.NewDriftDetector(obs.DriftConfig{
		Nodes: o.Nodes, ModelMTBF: base.MTBF, ModelMTTR: base.MTTR,
		Window: len(log) + o.Runs*len(queries)*obs.DefaultCapacity,
	})
	det.ObserveArrivals(log)
	clock := 0.0 // model time at which the next execution starts

	out := &calibrateResult{Injected: o.MTBF}
	for run := 0; run < o.Runs; run++ {
		for i, q := range queries {
			audit, err := sql.BuildAuditPlan(stmts[i], cat, tstats[i], cp, base)
			if err != nil {
				return nil, fmt.Errorf("calibrate %s: %w", q.Name, err)
			}
			kills, sim, err := exec.KillSchedule(audit.Opt.Plan, audit.Pred,
				exec.Options{Cluster: spec, Model: base}, trace.From(clock))
			if err != nil {
				return nil, fmt.Errorf("calibrate %s: %w", q.Name, err)
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
				return nil, fmt.Errorf("calibrate %s: %w", q.Name, err)
			}
			out.Failures += rep.Failures
			out.Wasted += em.Ledger().Snapshot().WastedSeconds()

			// Failure spans carry wall-clock times, the log model seconds:
			// the MTBF fit is the log's alone.
			spans := slices.DeleteFunc(tracer.Snapshot(), func(sp obs.Span) bool { return sp.Kind == obs.KindFailure })
			det.ObserveQuery(audit.Pred, spans)
		}
	}

	out.Drift = det.Snapshot()
	out.Estimate = out.Drift.MTBF
	out.TRFactor = out.Drift.Term(obs.DriftTR).Estimate
	out.TMFactor = out.Drift.Term(obs.DriftTM).Estimate
	out.Model, out.Params = calibrated(out.Drift, base, cp)

	// Re-plan every query under the prior and the calibrated model and report
	// how the materialization choice moved.
	for i, q := range queries {
		basePlan, err := sql.FTPlan(stmts[i], cat, tstats[i], cp, base, o.TopK)
		if err != nil {
			return nil, fmt.Errorf("re-plan %s (prior): %w", q.Name, err)
		}
		calPlan, err := sql.FTPlan(stmts[i], cat, tstats[i], out.Params, out.Model, o.TopK)
		if err != nil {
			return nil, fmt.Errorf("re-plan %s (calibrated): %w", q.Name, err)
		}
		d := queryDelta{
			Name:        q.Name,
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

// calibrated replaces the prior's failure terms by every estimate samples
// back and scales its per-row constants by the fitted factors. Unlike
// ftserve's CorrectedModel/CorrectedParams, no term waits for a drift flag:
// calibration reports what it measured. The tm factor is fitted against the
// actual checkpoint writes (compressed blocks), so re-planning prices
// materialization at its real cost.
func calibrated(s obs.DriftSnapshot, m cost.Model, cp stats.CostParams) (cost.Model, stats.CostParams) {
	if s.MTBF.Valid() {
		m.MTBF = s.MTBF.PerNode
	}
	if t := s.Term(obs.DriftMTTR); t.Samples > 0 && t.Estimate > 0 {
		m.MTTR = t.Estimate
	}
	cp.CPUPerRow *= s.Term(obs.DriftTR).Estimate
	cp.WritePerRow *= s.Term(obs.DriftTM).Estimate
	return m, cp
}

// Report renders the calibration outcome for the CLI.
func (r *calibrateResult) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "calibration over %d failures observed (%.4gs wasted, injected per-node MTBF %.4g model s):\n",
		r.Failures, r.Wasted, r.Injected)
	mttr, tr, tm := r.Drift.Term(obs.DriftMTTR), r.Drift.Term(obs.DriftTR), r.Drift.Term(obs.DriftTM)
	fmt.Fprintf(&b, "MTBF per node: %s\nMTTR: %.4gs (%d recovery windows)\ntr factor: %.4g (%d ops), tm factor: %.4g (%d ops)\n\n",
		r.Estimate, mttr.Estimate, mttr.Samples, tr.Estimate, tr.Samples, tm.Estimate, tm.Samples)
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
