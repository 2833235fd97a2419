// Package obs is the observability layer of the reproduction: a structured
// tracing facility (per-worker ring buffers of timestamped spans and events),
// exporters for the merged timeline (plain JSON and Chrome trace_event
// format, loadable in chrome://tracing or Perfetto), a cost-model audit that
// joins the planner's per-collapsed-operator predictions against observed
// spans, and an opt-in debug HTTP server (metrics snapshot, live timeline,
// pprof).
//
// The package depends only on the standard library so every layer — the
// runtime, the cluster simulator and the CLIs —
// can emit into it without import cycles. All tracer entry points tolerate a
// nil *Tracer and become no-ops, so instrumented code pays a single nil
// check when tracing is disabled.
package obs

import "time"

// Kind classifies a span or event on the execution timeline.
type Kind string

const (
	// KindQuery spans one whole query execution (including restarts).
	KindQuery Kind = "query"
	// KindStage spans the execution of one stage / operator across all of
	// its partitions.
	KindStage Kind = "stage"
	// KindTask spans one partition attempt of a stage (a worker's unit of
	// work). Failed attempts carry Err.
	KindTask Kind = "task"
	// KindCheckpoint spans one write to the fault-tolerant store: a group of
	// an operator's partitions (Part is -1). Bytes holds the exact encoded
	// size of their blocks, Rows their rows.
	KindCheckpoint Kind = "checkpoint"
	// KindFailure is an instant event: an injected node failure killed the
	// worker computing (Name, Part) on attempt Attempt.
	KindFailure Kind = "failure"
	// KindRecovery spans one fine-grained recovery: the lineage walk and
	// recomputation that repairs a failed partition.
	KindRecovery Kind = "recovery"
	// KindRestart is an instant event: a coarse-grained whole-query restart.
	KindRestart Kind = "restart"
)

// Span is one timed interval (or instant, when End equals Start) on the
// execution timeline. The identifying fields mirror the runtimes' addressing
// scheme: operator/stage name, partition, attempt.
type Span struct {
	// ID is unique within one Tracer, in emission order.
	ID int64 `json:"id"`
	// Kind classifies the span (stage, task, checkpoint, failure, ...).
	Kind Kind `json:"kind"`
	// Name is the operator or stage name the span belongs to.
	Name string `json:"name"`
	// Query identifies the query execution (0 when a single query runs).
	Query int `json:"query,omitempty"`
	// Part is the partition / node index, -1 when not partition-scoped.
	Part int `json:"part"`
	// Attempt is the per-(operator, partition) attempt number, -1 when not
	// attempt-scoped.
	Attempt int `json:"attempt"`
	// Worker is the ring-buffer shard the span was recorded on — a cheap
	// stand-in for the emitting worker.
	Worker int `json:"worker"`
	// Start and End delimit the interval; instant events have End == Start.
	Start time.Time `json:"start"`
	End   time.Time `json:"end"`
	// Bytes carries the encoded size for checkpoint spans.
	Bytes int64 `json:"bytes,omitempty"`
	// Rows carries the row count for task/stage spans when known.
	Rows int64 `json:"rows,omitempty"`
	// Err marks spans that ended in a failure (e.g. "node failure").
	Err string `json:"err,omitempty"`
}

// Duration returns the span's length (zero for instant events).
func (s Span) Duration() time.Duration { return s.End.Sub(s.Start) }

// Instant reports whether the span is an instant event.
func (s Span) Instant() bool { return !s.End.After(s.Start) }
