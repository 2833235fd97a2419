// Package exec simulates the partition-parallel execution of a
// fault-tolerant plan on a shared-nothing cluster under an injected failure
// trace — the substitute for the paper's 10-node XDB/MySQL testbed.
//
// Execution model: the plan is collapsed under its materialization
// configuration (cost.Collapse); each collapsed operator is a stage executed
// partition-parallel on every node. A stage starts when all its producer
// stages have completed (materialization points are blocking), and it
// completes when every node has finished its partition. A node failure
// during a stage destroys that node's in-flight partition work; the node is
// redeployed after MTTR and re-runs its partition from the stage's last
// materialized inputs (fine-grained recovery) — or, for coarse-grained
// recovery, any failure restarts the whole query. Materialized intermediates
// survive failures (the paper's fault-tolerant-storage assumption).
package exec

import (
	"fmt"
	"math"
	"sort"

	"ftpde/internal/cost"
	"ftpde/internal/failure"
	"ftpde/internal/obs"
	"ftpde/internal/obs/metrics"
	"ftpde/internal/plan"
	"ftpde/internal/schemes"
)

// defaultMaxRestarts matches the paper: coarse-grained queries are aborted
// after 100 restarts.
const defaultMaxRestarts = 100

// Options configures a simulated run.
type Options struct {
	// Cluster provides node count and MTTR. (MTBF is only used to generate
	// traces; the simulation itself replays the given trace.)
	Cluster failure.Spec
	// Model provides CONSTpipe for plan collapsing.
	Model cost.Model
	// Recovery selects fine-grained vs. coarse-grained recovery.
	Recovery schemes.Recovery
	// MaxRestarts aborts a coarse-grained query after this many full
	// restarts; 0 means 100, as in the paper.
	MaxRestarts int
}

// StageReport describes the simulated execution of one collapsed operator.
type StageReport struct {
	// Name is the collapsed operator's member-set label, e.g. "{1,2,3}".
	Name string
	// Start and End are the stage's simulated times.
	Start, End float64
	// Work is the per-node partition work t(c).
	Work float64
	// Retries counts per-node re-executions caused by failures.
	Retries int
}

// Result is the outcome of a simulated run.
type Result struct {
	// Runtime is the simulated query runtime (cost units / seconds).
	Runtime float64
	// Failures counts the failures that interrupted execution.
	Failures int
	// Restarts counts full-query restarts (coarse recovery only).
	Restarts int
	// Aborted is set when MaxRestarts was exceeded; Runtime then holds the
	// time spent until the abort.
	Aborted bool
	// Stages holds per-stage timelines (fine-grained recovery only).
	Stages []StageReport
	// Spans is the simulated execution as an obs timeline: stage/task spans,
	// failure instants and recovery windows on the simulator's synthetic
	// clock (see SimEpoch). Export with obs.WriteChromeTraceSpans.
	Spans []obs.Span
	// Ledger attributes every simulated lost second to a cause: the partial
	// work a failure destroyed (recompute/restart) and the repair waits
	// (mttr_wait). Its totals reconcile exactly with the span timeline.
	Ledger metrics.LedgerSnapshot
}

// Run simulates the execution of plan p (with its current materialization
// configuration) against the failure trace.
func Run(p *plan.Plan, opt Options, tr *failure.Trace) (*Result, error) {
	if err := opt.Cluster.Validate(); err != nil {
		return nil, err
	}
	if tr == nil {
		return nil, fmt.Errorf("exec: nil failure trace")
	}
	if tr.Nodes() < opt.Cluster.Nodes {
		return nil, fmt.Errorf("exec: trace covers %d nodes, cluster has %d", tr.Nodes(), opt.Cluster.Nodes)
	}
	collapsed, err := cost.Collapse(p, opt.Model)
	if err != nil {
		return nil, err
	}
	switch opt.Recovery {
	case schemes.FineGrained:
		return runFine(collapsed, opt, tr), nil
	case schemes.CoarseRestart:
		return runCoarse(collapsed, opt, tr), nil
	default:
		return nil, fmt.Errorf("exec: unknown recovery kind %d", int(opt.Recovery))
	}
}

// runFine executes stage-by-stage; failed nodes re-run only their partition
// of the interrupted stage.
func runFine(c *cost.Collapsed, opt Options, tr *failure.Trace) *Result {
	res := &Result{}
	var led metrics.Ledger
	order, err := c.P.TopoOrder()
	if err != nil {
		// Collapse guarantees acyclicity; this is defensive.
		panic(err)
	}
	end := make(map[plan.OpID]float64, len(order))
	for _, cid := range order {
		start := 0.0
		for _, pred := range c.P.Inputs(cid) {
			if end[pred] > start {
				start = end[pred]
			}
		}
		work := c.P.Op(cid).TotalCost()
		stage := StageReport{Name: c.P.Op(cid).Name, Start: start, Work: work}
		stageEnd := start
		for node := 0; node < opt.Cluster.Nodes; node++ {
			cur, from := start, start
			attempt := 0
			for {
				f := tr.NextFailure(node, from)
				if f >= cur+work {
					res.addSpan(obs.KindTask, stage.Name, node, attempt, cur, cur+work, "")
					cur += work
					break
				}
				res.Failures++
				stage.Retries++
				res.addSpan(obs.KindTask, stage.Name, node, attempt, cur, f, "node failure")
				res.addEvent(obs.KindFailure, stage.Name, node, attempt, f)
				res.addSpan(obs.KindRecovery, stage.Name, node, -1, f, f+opt.Cluster.MTTR, "")
				// The destroyed partial work is the realized w(c); the repair
				// window is the realized MTTR term of Eq. 8.
				led.Fail(stage.Name, node)
				led.AttributeSeconds(metrics.CauseRecompute, stage.Name, node, f-cur)
				led.AttributeSeconds(metrics.CauseMTTRWait, stage.Name, node, opt.Cluster.MTTR)
				cur, from = f+opt.Cluster.MTTR, resume(f, opt.Cluster.MTTR)
				attempt++
			}
			if cur > stageEnd {
				stageEnd = cur
			}
		}
		stage.End = stageEnd
		end[cid] = stageEnd
		res.addSpan(obs.KindStage, stage.Name, -1, -1, start, stageEnd, "")
		res.Stages = append(res.Stages, stage)
		if stageEnd > res.Runtime {
			res.Runtime = stageEnd
		}
	}
	res.addSpan(obs.KindQuery, "query", -1, -1, 0, res.Runtime, "")
	res.Ledger = led.Snapshot()
	return res
}

// runCoarse restarts the whole query whenever any node fails mid-execution.
func runCoarse(c *cost.Collapsed, opt Options, tr *failure.Trace) *Result {
	maxRestarts := opt.MaxRestarts
	if maxRestarts == 0 {
		maxRestarts = defaultMaxRestarts
	}
	res := &Result{}
	var led metrics.Ledger
	makespan := failureFreeMakespan(c)
	start, from := 0.0, 0.0
	for {
		f, node := tr.NextClusterFailure(from)
		if f >= start+makespan {
			res.Runtime = start + makespan
			res.addSpan(obs.KindTask, "query", -1, res.Restarts, start, res.Runtime, "")
			res.addSpan(obs.KindQuery, "query", -1, -1, 0, res.Runtime, "")
			res.Ledger = led.Snapshot()
			return res
		}
		res.Failures++
		res.Restarts++
		res.addSpan(obs.KindTask, "query", -1, res.Restarts-1, start, f, "node failure")
		res.addEvent(obs.KindFailure, "query", node, res.Restarts-1, f)
		res.addEvent(obs.KindRestart, "query", node, res.Restarts, f)
		// The aborted attempt's elapsed time is the realized coarse w(c).
		led.Fail("query", node)
		led.AttributeSeconds(metrics.CauseRestart, "query", node, f-start)
		if res.Restarts > maxRestarts {
			res.Aborted = true
			res.Runtime = f
			res.addSpan(obs.KindQuery, "query", -1, -1, 0, res.Runtime, "aborted")
			res.Ledger = led.Snapshot()
			return res
		}
		res.addSpan(obs.KindRecovery, "query", node, -1, f, f+opt.Cluster.MTTR, "")
		led.AttributeSeconds(metrics.CauseMTTRWait, "query", node, opt.Cluster.MTTR)
		start, from = f+opt.Cluster.MTTR, resume(f, opt.Cluster.MTTR)
	}
}

// resume returns where the search for the next failure picks up after an
// arrival at f and a repair of mttr: at the restart, but never at f itself,
// so an arrival fires once even when mttr is 0.
func resume(f, mttr float64) float64 {
	return math.Max(f+mttr, math.Nextafter(f, math.Inf(1)))
}

// failureFreeMakespan returns the critical-path length of the collapsed plan
// weighted by t(c) — the query runtime with zero failures, including any
// added materialization costs.
func failureFreeMakespan(c *cost.Collapsed) float64 {
	order, err := c.P.TopoOrder()
	if err != nil {
		panic(err)
	}
	end := make(map[plan.OpID]float64, len(order))
	best := 0.0
	for _, cid := range order {
		start := 0.0
		for _, pred := range c.P.Inputs(cid) {
			if end[pred] > start {
				start = end[pred]
			}
		}
		e := start + c.P.Op(cid).TotalCost()
		end[cid] = e
		if e > best {
			best = e
		}
	}
	return best
}

// FailureFreeMakespan returns the failure-free runtime of p under its
// current materialization configuration (stage-blocking execution).
func FailureFreeMakespan(p *plan.Plan, m cost.Model) (float64, error) {
	c, err := cost.Collapse(p, m)
	if err != nil {
		return 0, err
	}
	return failureFreeMakespan(c), nil
}

// MeasuredOverhead runs the plan against every trace and returns the mean
// overhead percentage over the baseline runtime:
//
//	overhead = (runtime_with_failures - baseline) / baseline * 100
//
// Aborted runs (coarse recovery exceeding MaxRestarts) yield an infinite
// overhead; if any trace aborts, aborted reports true and the mean is taken
// over the remaining traces (matching the paper, which reports "Aborted").
func MeasuredOverhead(p *plan.Plan, opt Options, traces []*failure.Trace, baseline float64) (mean float64, aborted bool, err error) {
	if baseline <= 0 {
		return 0, false, fmt.Errorf("exec: baseline must be positive, got %g", baseline)
	}
	if len(traces) == 0 {
		return 0, false, fmt.Errorf("exec: no traces")
	}
	sum, n := 0.0, 0
	for _, tr := range traces {
		res, rerr := Run(p, opt, tr)
		if rerr != nil {
			return 0, false, rerr
		}
		if res.Aborted {
			aborted = true
			continue
		}
		sum += (res.Runtime - baseline) / baseline * 100
		n++
	}
	if n == 0 {
		return math.Inf(1), true, nil
	}
	return sum / float64(n), aborted, nil
}

// MeanRuntime runs the plan against every trace and returns the mean
// simulated runtime. Aborted runs are excluded; ok reports whether at least
// one run finished.
func MeanRuntime(p *plan.Plan, opt Options, traces []*failure.Trace) (mean float64, ok bool, err error) {
	mean, finished, _, err := RuntimeStats(p, opt, traces)
	return mean, finished > 0, err
}

// RuntimeStats runs the plan against every trace and returns the mean
// runtime over the finished runs together with finished/aborted counts.
// Beware of survivorship bias: when aborted > 0 the mean covers only the
// lucky traces.
func RuntimeStats(p *plan.Plan, opt Options, traces []*failure.Trace) (mean float64, finished, aborted int, err error) {
	sum := 0.0
	for _, tr := range traces {
		res, rerr := Run(p, opt, tr)
		if rerr != nil {
			return 0, 0, 0, rerr
		}
		if res.Aborted {
			aborted++
			continue
		}
		sum += res.Runtime
		finished++
	}
	if finished == 0 {
		return 0, 0, aborted, nil
	}
	return sum / float64(finished), finished, aborted, nil
}

// SortStages orders a result's stages by start time (stable on name) for
// display purposes.
func SortStages(stages []StageReport) {
	sort.SliceStable(stages, func(i, j int) bool {
		if stages[i].Start != stages[j].Start {
			return stages[i].Start < stages[j].Start
		}
		return stages[i].Name < stages[j].Name
	})
}
