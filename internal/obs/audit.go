package obs

import (
	"fmt"
	"math"
	"strings"
	"time"
)

// OpPrediction is the planner's captured forecast for one collapsed operator
// (paper Table 2 / Equations 2-8), resolved to the engine operator names the
// group executes as so it can be joined against observed spans.
type OpPrediction struct {
	// Name is the collapsed operator's member-set label, e.g. "{1,2,3}".
	Name string `json:"name"`
	// Ops are the engine operator names belonging to the group.
	Ops []string `json:"ops"`
	// TR is tr(c), TM is tm(c); Total is t(c) = tr + tm·m(c).
	TR    float64 `json:"tr"`
	TM    float64 `json:"tm"`
	Total float64 `json:"total"`
	// Wasted is w(c), the expected runtime lost per failure.
	Wasted float64 `json:"wasted"`
	// Attempts is a(c), the expected additional attempts for percentile S.
	Attempts float64 `json:"attempts"`
	// Runtime is T(c) = t(c) + a(c)·w(c) + a(c)·MTTR.
	Runtime float64 `json:"runtime"`
	// Materialize is m(c).
	Materialize bool `json:"materialize"`
	// Dominant marks membership in the dominant execution path.
	Dominant bool `json:"dominant"`
}

// Prediction is the plan-time capture of the cost model's forecast for one
// query, taken before execution and joined against spans afterwards.
type Prediction struct {
	Ops []OpPrediction `json:"ops"`
	// DominantRuntime is TPt of the dominant path — the planner's forecast
	// of the whole query's runtime under failures.
	DominantRuntime float64 `json:"dominant_runtime"`
	// MTTR is the model's repair time, for reference.
	MTTR float64 `json:"mttr"`
}

// OpObservation aggregates the observed spans of one collapsed group.
type OpObservation struct {
	// Wall is the summed duration of the group's stage spans — the observed
	// analogue of T(c) (includes retries and recovery recomputation).
	Wall time.Duration `json:"wall"`
	// TaskWall sums all partition-task durations (total work, not elapsed).
	TaskWall time.Duration `json:"task_wall"`
	// WastedWall sums the durations of task attempts that died to an
	// injected failure — the observed w(c)·(failures).
	WastedWall time.Duration `json:"wasted_wall"`
	// Attempts is the maximum observed attempt number + 1 over the group's
	// (operator, partition) tasks.
	Attempts int `json:"attempts"`
	// Failures counts injected failures attributed to the group.
	Failures int `json:"failures"`
	// Recoveries counts fine-grained recoveries rooted at the group and
	// RecoveryWall their summed duration.
	Recoveries   int           `json:"recoveries"`
	RecoveryWall time.Duration `json:"recovery_wall"`
	// CheckpointBytes / CheckpointWall aggregate the group's materialization
	// writes. Bytes are the exact on-disk size after FTCB per-column
	// compression — the realized tm(o) footprint, not the in-memory row
	// volume the cost model predicts from.
	CheckpointBytes int64         `json:"checkpoint_bytes"`
	CheckpointWall  time.Duration `json:"checkpoint_wall"`
	// Rows is the number of rows committed at the group's stage sinks.
	Rows int64 `json:"rows"`
}

// AuditRow joins one collapsed operator's prediction with its observation.
type AuditRow struct {
	Pred OpPrediction  `json:"pred"`
	Obs  OpObservation `json:"obs"`
	// RelErr is (predicted T(c) - observed wall) / observed wall; NaN when
	// nothing was observed.
	RelErr float64 `json:"rel_err"`
}

// AuditReport is the per-query predicted-vs-actual comparison rendered by
// ftsql -explain-analyze and consumed by the experiments layer.
type AuditReport struct {
	Rows []AuditRow `json:"rows"`
	// PredictedRuntime is the dominant path's TPt.
	PredictedRuntime float64 `json:"predicted_runtime"`
	// ActualRuntime is the query span's wall time.
	ActualRuntime time.Duration `json:"actual_runtime"`
	// DominantActual sums the observed wall of the dominant-path groups.
	DominantActual time.Duration `json:"dominant_actual"`
	// DominantRelErr compares PredictedRuntime against DominantActual.
	DominantRelErr float64 `json:"dominant_rel_err"`
	// Failures / Recoveries / Restarts summarize the failure timeline.
	Failures   int `json:"failures"`
	Recoveries int `json:"recoveries"`
	Restarts   int `json:"restarts"`
	// Dropped counts spans lost to ring overflow (a non-zero value means the
	// observations below are lower bounds).
	Dropped int64 `json:"dropped"`
}

// BuildAudit joins a plan-time prediction against an observed span timeline.
// Spans are attributed to collapsed groups by engine operator name; stage
// spans named after an operator inside a group accumulate into that group's
// wall time (in the pipelined runtime only chain-terminal operators carry
// stage spans, so group wall is never double counted).
func BuildAudit(pred Prediction, spans []Span, dropped int64) *AuditReport {
	groupOf := make(map[string]int) // engine op name -> index in pred.Ops
	for i, op := range pred.Ops {
		for _, name := range op.Ops {
			groupOf[name] = i
		}
	}
	obs := make([]OpObservation, len(pred.Ops))
	attempts := make([]map[string]int, len(pred.Ops)) // "op/part" -> max attempt
	for i := range attempts {
		attempts[i] = make(map[string]int)
	}

	rep := &AuditReport{PredictedRuntime: pred.DominantRuntime, Dropped: dropped}
	for _, sp := range spans {
		gi, known := groupOf[sp.Name]
		switch sp.Kind {
		case KindQuery:
			if sp.Duration() > rep.ActualRuntime {
				rep.ActualRuntime = sp.Duration()
			}
			continue
		case KindRestart:
			rep.Restarts++
			continue
		case KindFailure:
			rep.Failures++
			if known {
				obs[gi].Failures++
			}
			continue
		}
		if !known {
			continue
		}
		o := &obs[gi]
		switch sp.Kind {
		case KindStage:
			o.Wall += sp.Duration()
			o.Rows += sp.Rows
		case KindTask:
			o.TaskWall += sp.Duration()
			if sp.Err != "" {
				o.WastedWall += sp.Duration()
			}
			if sp.Attempt >= 0 {
				key := fmt.Sprintf("%s/%d", sp.Name, sp.Part)
				if sp.Attempt+1 > attempts[gi][key] {
					attempts[gi][key] = sp.Attempt + 1
				}
			}
		case KindRecovery:
			o.Recoveries++
			o.RecoveryWall += sp.Duration()
			rep.Recoveries++
		case KindCheckpoint:
			o.CheckpointBytes += sp.Bytes
			o.CheckpointWall += sp.Duration()
		}
	}

	for i, op := range pred.Ops {
		for _, n := range attempts[i] {
			if n > obs[i].Attempts {
				obs[i].Attempts = n
			}
		}
		row := AuditRow{Pred: op, Obs: obs[i], RelErr: math.NaN()}
		if w := obs[i].Wall.Seconds(); w > 0 {
			row.RelErr = (op.Runtime - w) / w
		}
		if op.Dominant {
			rep.DominantActual += obs[i].Wall
		}
		rep.Rows = append(rep.Rows, row)
	}
	rep.DominantRelErr = math.NaN()
	if w := rep.DominantActual.Seconds(); w > 0 {
		rep.DominantRelErr = (pred.DominantRuntime - w) / w
	}
	return rep
}

// String renders the audit as the predicted-vs-actual table ftsql
// -explain-analyze prints: one row per collapsed operator with the model's
// tr/tm/t/a/T forecast, the observed wall time, attempts, wasted runtime,
// materialized bytes, relative error and, last and in full, the group's
// engine operators, followed by dominant-path and failure-timeline summaries.
func (r *AuditReport) String() string {
	var b strings.Builder
	w := func(format string, args ...any) { fmt.Fprintf(&b, format, args...) }
	w("%-12s %1s %1s  %10s %10s %8s %10s  %10s %4s %8s %10s %10s %8s  %s\n",
		"collapsed", "M", "D",
		"tr(c)", "tm(c)", "a(c)", "T(c) pred",
		"actual", "att", "fails", "wasted", "ckpt B", "relerr", "engine ops")
	w("%s\n", strings.Repeat("-", 150))
	for _, row := range r.Rows {
		mat, dom := " ", " "
		if row.Pred.Materialize {
			mat = "M"
		}
		if row.Pred.Dominant {
			dom = "*"
		}
		w("%-12s %1s %1s  %10.4g %10.4g %8.3g %10.4g  %10s %4d %8d %10s %10d %8s  %s\n",
			row.Pred.Name, mat, dom,
			row.Pred.TR, row.Pred.TM, row.Pred.Attempts, row.Pred.Runtime,
			fmtDur(row.Obs.Wall), row.Obs.Attempts, row.Obs.Failures,
			fmtDur(row.Obs.WastedWall), row.Obs.CheckpointBytes,
			fmtErr(row.RelErr), strings.Join(row.Pred.Ops, ","))
	}
	w("\ndominant path: predicted T=%.4gs, observed %s (relerr %s); query wall %s\n",
		r.PredictedRuntime, fmtDur(r.DominantActual), fmtErr(r.DominantRelErr), fmtDur(r.ActualRuntime))
	w("failure timeline: %d failures, %d fine-grained recoveries, %d restarts\n",
		r.Failures, r.Recoveries, r.Restarts)
	if r.Dropped > 0 {
		w("warning: %d spans dropped by ring overflow; observations are lower bounds\n", r.Dropped)
	}
	return b.String()
}

func fmtDur(d time.Duration) string {
	if d == 0 {
		return "-"
	}
	return d.Round(time.Microsecond).String()
}

func fmtErr(e float64) string {
	if math.IsNaN(e) {
		return "-"
	}
	return fmt.Sprintf("%+.1f%%", e*100)
}
