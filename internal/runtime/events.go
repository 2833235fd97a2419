package runtime

import (
	"sync"

	"ftpde/internal/engine"
	"ftpde/internal/obs"
)

// Metrics is the runtime's counter set, safe for concurrent use: obs.Exec,
// a fold over the runtime's events. One Metrics value can be shared across
// queries to accumulate, or allocated per query for isolated measurement;
// the experiments layer reads Snapshot, the debug endpoint serves Registry.
// The aliases keep the package-local names working (tests and callers
// construct &runtime.Metrics{} directly).
type Metrics = obs.Exec

// Snapshot is a plain-value copy of the counters for reporting.
type Snapshot = obs.ExecSnapshot

// errSuperseded marks a task or restore whose partition another worker had
// committed first: its rows are not the stage's.
const errSuperseded = "partition already committed"

// events is the one emission path of an execution. Every runtime fact is
// one obs.Span handed to emit once: a task attempt ended (committing its
// partition unless it carries Err), a partition restored from a checkpoint
// or lost with a failed node, a node failure, a recovery window, an aborted
// attempt (restart), a checkpoint group durable, a checkpoint stall, a
// stage ended, the query ended. emit folds the span, in emission order,
// into the execution's report, the metric set (counters, histograms,
// per-stage table, wasted-work ledger) and the progress tracker, and the
// tracer records it, so replaying the recorded spans in ID order
// reproduces every fold.
type events struct {
	mu       sync.Mutex
	report   engine.Report
	metrics  *Metrics
	progress *obs.Progress
	tracer   *obs.Tracer
}

func (e *events) emit(sp obs.Span) {
	e.mu.Lock()
	defer e.mu.Unlock()
	foldReport(&e.report, sp)
	e.metrics.Observe(sp)
	e.progress.Observe(sp)
	e.tracer.Record(sp)
}

// foldReport folds one event into the execution report.
func foldReport(r *engine.Report, sp obs.Span) {
	switch sp.Kind {
	case obs.KindTask:
		if sp.Recompute && sp.Err == "" {
			r.RecomputedPartitions++
		}
	case obs.KindCheckpoint:
		if sp.Err == "" {
			r.MaterializedPartitions += sp.Parts
		}
	case obs.KindRecovery:
		r.Failures++
	case obs.KindRestart:
		r.Failures++
		r.Restarts++
		r.Aborted = sp.Err != ""
	}
}
