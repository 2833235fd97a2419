// Package obs is the observability layer of the reproduction: one event type
// (Span) that every runtime fact is recorded as, the folds over it (the
// runtime's counters, histograms, per-stage table and wasted-work ledger in
// Exec; live per-query progress in Progress; the cost-model audit and the
// drift detector), a tracer that records the events in a ring buffer,
// exporters for the merged timeline (plain JSON and Chrome trace_event
// format, loadable in chrome://tracing or Perfetto), and an opt-in debug HTTP
// server (metrics snapshot, live timeline, queries, pprof).
//
// Every fold and the tracer tolerate a nil receiver and become no-ops, so
// uninstrumented executions pay a single nil check per event.
package obs

import "time"

// Kind classifies a span or event on the execution timeline. Each kind has
// one meaning on the runtime's timeline; where the simulator's synthetic
// timeline (internal/exec) uses a kind for a different window, the constant
// says so.
type Kind string

const (
	// KindQuery spans one whole query execution (including restarts).
	KindQuery Kind = "query"
	// KindStage spans the execution of one stage across all of its
	// partitions; Rows holds the rows its committed partitions hold at the
	// end, Parts its partition count.
	KindStage Kind = "stage"
	// KindTask spans one partition attempt of a stage (a worker's unit of
	// work). A task without Err committed its partition: Rows are the
	// committed rows and Parts the stage's partition count. Recompute marks
	// the attempts fine-grained recovery's lineage walk ran. Failed attempts
	// carry Err.
	KindTask Kind = "task"
	// KindRestore spans reading one partition back from the fault-tolerant
	// store instead of computing it; Rows are the restored rows, Parts the
	// stage's partition count.
	KindRestore Kind = "restore"
	// KindLost is an instant event: a failed node's memory held a committed,
	// volatile partition of the stage (Name, Part), which is dropped and must
	// be recomputed. Rows are the rows dropped, Parts the stage's partition
	// count.
	KindLost Kind = "lost"
	// KindCheckpoint spans one write to the fault-tolerant store: a group of
	// an operator's partitions (Part is -1). Parts is how many partitions the
	// write held, Bytes the exact encoded size of their blocks, Rows their
	// rows. A write that failed carries Err.
	KindCheckpoint Kind = "checkpoint"
	// KindStall spans the time a barrier (the restore probe of (Name, Part),
	// or query completion) blocked waiting for checkpoint writes to land. It
	// is only emitted when the barrier actually blocked.
	KindStall Kind = "stall"
	// KindFailure is an instant event: an injected node failure killed the
	// worker computing (Name, Part) on attempt Attempt.
	KindFailure Kind = "failure"
	// KindRecovery spans one fine-grained recovery of the failure of (Name,
	// Part). On the runtime's timeline it is the recompute window: the
	// lineage walk and the recomputation that repair the failed partition,
	// booked to the ledger as recompute. On the simulator's timeline it is
	// the MTTR repair window, booked as mttr_wait. The drift detector and
	// ftsql -calibrate read both as repair time.
	KindRecovery Kind = "recovery"
	// KindRestart is a coarse-grained whole-query restart. On the runtime's
	// timeline it spans the aborted attempt, from its start to the failure of
	// (Name, Part) that ended it; Attempt numbers the restart, and Err is set
	// when the restart bound was exceeded and the query aborted. On the
	// simulator's timeline it is an instant event at the failure.
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
	// Start and End delimit the interval; instant events have End == Start.
	Start time.Time `json:"start"`
	End   time.Time `json:"end"`
	// Bytes carries the encoded size for checkpoint spans.
	Bytes int64 `json:"bytes,omitempty"`
	// Rows carries the row count for task/stage spans when known.
	Rows int64 `json:"rows,omitempty"`
	// Parts is a partition count: the stage's (task, restore, lost and stage
	// spans) or the checkpoint write's (checkpoint spans).
	Parts int `json:"parts,omitempty"`
	// Recompute marks a task that fine-grained recovery ran.
	Recompute bool `json:"recompute,omitempty"`
	// Err marks spans that ended in a failure (e.g. "node failure").
	Err string `json:"err,omitempty"`
}

// Duration returns the span's length (zero for instant events).
func (s Span) Duration() time.Duration { return s.End.Sub(s.Start) }

// Instant reports whether the span is an instant event.
func (s Span) Instant() bool { return !s.End.After(s.Start) }
