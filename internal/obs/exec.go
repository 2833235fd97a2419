package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ftpde/internal/obs/metrics"
)

// runtimeLabel is the value of the histogram families' runtime label.
const runtimeLabel = "pipelined"

// Exec is the runtime's counter set (one per runtime.Config): a fold over
// the runtime's events. Observe turns each span into counter adds, histogram
// observations (stage wall time, checkpoint write latency), a row of the
// per-stage table and wasted-work Ledger entries. Batches is the one counter
// the runtime adds to directly, because it moves per batch, not per event.
// The zero value is ready to use and safe for concurrent use; a nil *Exec
// folds nothing, so un-instrumented executions pay nothing.
type Exec struct {
	// Batches counts vectorized batches handed from one operator of a chained
	// stage to the next: the source's slices and the chained transforms. A
	// stage that is a single operator hands its batch over whole and counts
	// nothing.
	Batches atomic.Int64
	// Rows counts rows produced at stage sinks (committed partitions).
	Rows atomic.Int64
	// CheckpointParts counts partitions written to the checkpoint store;
	// CheckpointBytes is their exact serialized size.
	CheckpointParts atomic.Int64
	CheckpointBytes atomic.Int64
	// Failures counts the node failures the runtime handled: one per
	// fine-grained recovery window or coarse restart.
	Failures atomic.Int64
	// Recoveries counts stage partitions recomputed by fine-grained
	// recovery (the runtime analogue of lineage recomputation).
	Recoveries atomic.Int64
	// Restarts counts coarse-grained whole-query restarts.
	Restarts atomic.Int64

	once      sync.Once
	reg       *metrics.Registry
	stageHist *metrics.HistogramVec
	ckptHist  *metrics.HistogramVec
	ledger    metrics.Ledger

	mu     sync.Mutex
	stages map[string]StageMetric
}

// init lazily builds the registry and histogram families, so the zero value
// stays directly usable (tests construct &Exec{} / &runtime.Metrics{}).
func (m *Exec) init() {
	m.once.Do(func() {
		m.reg = metrics.NewRegistry()
		m.stageHist = m.reg.NewHistogramVec("ftpde_stage_wall_seconds",
			"Wall time of stage executions.", "seconds",
			[]string{"runtime", "stage"}, metrics.DefaultLatencyBuckets())
		m.ckptHist = m.reg.NewHistogramVec("ftpde_checkpoint_write_seconds",
			"Latency of individual checkpoint store writes.", "seconds",
			[]string{"runtime"}, metrics.DefaultLatencyBuckets())
		counter := func(name, help, unit string, v *atomic.Int64) {
			m.reg.MustRegisterFunc(metrics.Desc{Name: name, Help: help, Kind: metrics.KindCounter, Unit: unit},
				func() []metrics.Sample { return []metrics.Sample{{Value: float64(v.Load())}} })
		}
		counter("ftpde_batches_total", "Vectorized batches handed from one operator to the next inside chained stages.", "", &m.Batches)
		counter("ftpde_rows_total", "Rows produced at stage sinks (committed partitions).", "", &m.Rows)
		counter("ftpde_checkpoint_parts_total", "Partitions written to the fault-tolerant store.", "", &m.CheckpointParts)
		counter("ftpde_checkpoint_bytes_total", "Exact serialized size of written checkpoints.", "bytes", &m.CheckpointBytes)
		counter("ftpde_failures_total", "Injected node failures observed by workers.", "", &m.Failures)
		counter("ftpde_recoveries_total", "Partitions recomputed by fine-grained recovery.", "", &m.Recoveries)
		counter("ftpde_restarts_total", "Coarse-grained whole-query restarts.", "", &m.Restarts)
		m.reg.MustRegisterFunc(metrics.Desc{
			Name: "ftpde_stage_rows_total", Kind: metrics.KindCounter, Labels: []string{"stage"},
			Help: "Committed rows per stage.",
		}, func() []metrics.Sample {
			stages := m.stageTable()
			out := make([]metrics.Sample, len(stages))
			for i, st := range stages {
				out[i] = metrics.Sample{LabelValues: []string{st.Stage}, Value: float64(st.Rows)}
			}
			return out
		})
		metrics.RegisterLedger(m.reg, &m.ledger)
	})
}

// Registry returns the registry exposing every Exec family (plus the ledger),
// for the /metrics endpoint and -metrics-out snapshots.
func (m *Exec) Registry() *metrics.Registry {
	if m == nil {
		return nil
	}
	m.init()
	return m.reg
}

// Ledger returns the wasted-work ledger. Nil-safe: a nil Exec yields a nil
// Ledger whose methods are no-ops.
func (m *Exec) Ledger() *metrics.Ledger {
	if m == nil {
		return nil
	}
	m.init()
	return &m.ledger
}

// Observe folds one runtime event. The ledger books a failure per failure
// event and, against it, each recovery window (recompute), aborted attempt
// (restart) and blocking checkpoint barrier (checkpoint stall) at the span's
// duration.
func (m *Exec) Observe(sp Span) {
	if m == nil {
		return
	}
	m.init()
	switch sp.Kind {
	case KindTask:
		if sp.Err != "" {
			return
		}
		m.Rows.Add(sp.Rows)
		m.addStage(sp.Name, 0, sp.Rows)
		if sp.Recompute {
			m.Recoveries.Add(1)
		}
	case KindStage:
		m.stageHist.With(runtimeLabel, sp.Name).Observe(sp.Duration().Seconds())
		m.addStage(sp.Name, sp.Duration(), 0)
	case KindCheckpoint:
		if sp.Err != "" {
			return
		}
		m.ckptHist.With(runtimeLabel).Observe(sp.Duration().Seconds())
		m.CheckpointParts.Add(int64(sp.Parts))
		m.CheckpointBytes.Add(sp.Bytes)
	case KindFailure:
		m.ledger.Fail(sp.Name, sp.Part)
	case KindRecovery:
		m.Failures.Add(1)
		m.ledger.Attribute(metrics.CauseRecompute, sp.Name, sp.Part, sp.Duration())
	case KindRestart:
		m.Failures.Add(1)
		m.Restarts.Add(1)
		m.ledger.Attribute(metrics.CauseRestart, sp.Name, sp.Part, sp.Duration())
	case KindStall:
		m.ledger.Attribute(metrics.CauseCheckpointStall, sp.Name, sp.Part, sp.Duration())
	}
}

// addStage accumulates wall time and committed rows into the stage's row of
// the per-stage table.
func (m *Exec) addStage(stage string, wall time.Duration, rows int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.stages == nil {
		m.stages = make(map[string]StageMetric)
	}
	st := m.stages[stage]
	st.Stage = stage
	st.WallNS += wall
	st.Rows += rows
	m.stages[stage] = st
}

// stageTable returns the per-stage table, name-sorted.
func (m *Exec) stageTable() []StageMetric {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.stages) == 0 {
		return nil
	}
	out := make([]StageMetric, 0, len(m.stages))
	for _, st := range m.stages {
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Stage < out[j].Stage })
	return out
}

// ExecSnapshot is a plain-value copy of the counters for reporting. Its JSON
// shape predates the registry and is kept stable; the checkpoint min/avg/max
// fields are derived from the exact extremes the latency histograms track.
type ExecSnapshot struct {
	Batches         int64 `json:"batches"`
	Rows            int64 `json:"rows"`
	CheckpointParts int64 `json:"checkpoint_parts"`
	CheckpointBytes int64 `json:"checkpoint_bytes"`
	Failures        int64 `json:"failures"`
	Recoveries      int64 `json:"recoveries"`
	Restarts        int64 `json:"restarts"`
	// Stages is the per-stage table: one entry per stage, name-sorted, so
	// regenerated benchmark reports are byte-stable in ordering.
	Stages []StageMetric `json:"stages"`
	// Checkpoint-write latency over individual store writes.
	CheckpointMin time.Duration `json:"checkpoint_min_ns"`
	CheckpointAvg time.Duration `json:"checkpoint_avg_ns"`
	CheckpointMax time.Duration `json:"checkpoint_max_ns"`
	// WastedSeconds is the ledger's total lost time; zero (and omitted) on
	// clean runs so pre-ledger reports keep their byte shape.
	WastedSeconds float64 `json:"wasted_seconds,omitempty"`
}

// StageMetric is one row of the per-stage table: the stage's summed wall
// time and the rows its computed partitions committed.
type StageMetric struct {
	Stage  string        `json:"stage"`
	WallNS time.Duration `json:"wall_ns"`
	Rows   int64         `json:"rows"`
}

// Snapshot returns a consistent-enough copy of all counters.
func (m *Exec) Snapshot() ExecSnapshot {
	if m == nil {
		return ExecSnapshot{}
	}
	m.init()
	s := ExecSnapshot{
		Batches:         m.Batches.Load(),
		Rows:            m.Rows.Load(),
		CheckpointParts: m.CheckpointParts.Load(),
		CheckpointBytes: m.CheckpointBytes.Load(),
		Failures:        m.Failures.Load(),
		Recoveries:      m.Recoveries.Load(),
		Restarts:        m.Restarts.Load(),
		Stages:          m.stageTable(),
	}
	var merged metrics.HistogramSnapshot
	for _, sample := range m.ckptHist.Samples() {
		merged = merged.Merge(*sample.Hist)
	}
	if merged.Count > 0 {
		s.CheckpointMin = secondsToDuration(merged.Min)
		s.CheckpointAvg = secondsToDuration(merged.Sum / float64(merged.Count))
		s.CheckpointMax = secondsToDuration(merged.Max)
	}
	s.WastedSeconds = m.ledger.Snapshot().WastedSeconds()
	return s
}

func secondsToDuration(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}

// String renders the snapshot compactly for CLI output, one line per stage
// in name order so output is diffable.
func (s ExecSnapshot) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "batches=%d rows=%d ckpt_parts=%d ckpt_bytes=%d failures=%d recoveries=%d restarts=%d",
		s.Batches, s.Rows, s.CheckpointParts, s.CheckpointBytes, s.Failures, s.Recoveries, s.Restarts)
	if s.CheckpointParts > 0 {
		fmt.Fprintf(&b, "\ncheckpoint write latency: min=%s avg=%s max=%s",
			s.CheckpointMin, s.CheckpointAvg, s.CheckpointMax)
	}
	if len(s.Stages) > 0 {
		b.WriteString("\nstage wall time:")
		for _, st := range s.Stages {
			fmt.Fprintf(&b, "\n  %-40s %-14s %d rows", st.Stage, st.WallNS, st.Rows)
		}
	}
	return b.String()
}
