package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// RuntimePipelined is the value of the histogram families' runtime label.
const RuntimePipelined = "pipelined"

// Exec is the runtime's counter set (one per runtime.Config). The exported
// atomic fields keep the original runtime.Metrics API: hot paths touch single
// atomics, while distributions (stage wall time, checkpoint write latency) go
// through labeled histograms and lost time goes through the wasted-work
// Ledger. The zero value is ready to use; methods on
// a nil *Exec are no-ops so un-instrumented executions pay nothing.
type Exec struct {
	// Batches counts vectorized batches handed from one operator of a chained
	// stage to the next: the source's slices and the chained transforms. A
	// stage that is a single operator hands its batch over whole and counts
	// nothing.
	Batches atomic.Int64
	// Rows counts rows produced at stage sinks (committed partitions).
	Rows atomic.Int64
	// CheckpointParts counts partitions handed to the checkpoint store;
	// CheckpointBytes is their exact serialized size (column-block or gob,
	// whichever encoding the store uses).
	CheckpointParts atomic.Int64
	CheckpointBytes atomic.Int64
	// Failures counts injected node failures observed by workers.
	Failures atomic.Int64
	// Recoveries counts stage partitions recomputed by fine-grained
	// recovery (the runtime analogue of lineage recomputation).
	Recoveries atomic.Int64
	// Restarts counts coarse-grained whole-query restarts.
	Restarts atomic.Int64

	once      sync.Once
	reg       *Registry
	stageHist *HistogramVec
	ckptHist  *HistogramVec
	ledger    Ledger

	mu        sync.Mutex
	stageWall map[string]time.Duration
	stageRows map[string]int64
}

// init lazily builds the registry and histogram families, so the zero value
// stays directly usable (tests construct &Exec{} / &runtime.Metrics{}).
func (m *Exec) init() {
	m.once.Do(func() {
		m.reg = NewRegistry()
		m.stageHist = m.reg.NewHistogramVec("ftpde_stage_wall_seconds",
			"Wall time of stage executions.", "seconds",
			[]string{"runtime", "stage"}, DefaultLatencyBuckets())
		m.ckptHist = m.reg.NewHistogramVec("ftpde_checkpoint_write_seconds",
			"Latency of individual checkpoint store writes.", "seconds",
			[]string{"runtime"}, DefaultLatencyBuckets())
		counter := func(name, help, unit string, v *atomic.Int64) {
			m.reg.MustRegisterFunc(Desc{Name: name, Help: help, Kind: KindCounter, Unit: unit},
				func() []Sample { return []Sample{{Value: float64(v.Load())}} })
		}
		counter("ftpde_batches_total", "Vectorized batches handed from one operator to the next inside chained stages.", "", &m.Batches)
		counter("ftpde_rows_total", "Rows produced at stage sinks (committed partitions).", "", &m.Rows)
		counter("ftpde_checkpoint_parts_total", "Partitions written to the fault-tolerant store.", "", &m.CheckpointParts)
		counter("ftpde_checkpoint_bytes_total", "Exact serialized size of written checkpoints.", "bytes", &m.CheckpointBytes)
		counter("ftpde_failures_total", "Injected node failures observed by workers.", "", &m.Failures)
		counter("ftpde_recoveries_total", "Partitions recomputed by fine-grained recovery.", "", &m.Recoveries)
		counter("ftpde_restarts_total", "Coarse-grained whole-query restarts.", "", &m.Restarts)
		m.reg.MustRegisterFunc(Desc{
			Name: "ftpde_stage_rows_total", Kind: KindCounter, Labels: []string{"stage"},
			Help: "Committed rows per stage.",
		}, func() []Sample {
			rows := m.StageRows()
			names := make([]string, 0, len(rows))
			for n := range rows {
				names = append(names, n)
			}
			sort.Strings(names)
			out := make([]Sample, 0, len(names))
			for _, n := range names {
				out = append(out, Sample{LabelValues: []string{n}, Value: float64(rows[n])})
			}
			return out
		})
		RegisterLedger(m.reg, &m.ledger)
	})
}

// Registry returns the registry exposing every Exec family (plus the ledger),
// for the /metrics endpoint and -metrics-out snapshots.
func (m *Exec) Registry() *Registry {
	if m == nil {
		return nil
	}
	m.init()
	return m.reg
}

// Ledger returns the wasted-work ledger. Nil-safe: a nil Exec yields a nil
// Ledger whose methods are no-ops.
func (m *Exec) Ledger() *Ledger {
	if m == nil {
		return nil
	}
	m.init()
	return &m.ledger
}

// ObserveStageWall accumulates wall time for one stage (keyed by the stage's
// terminal operator name) and feeds the stage latency histogram.
func (m *Exec) ObserveStageWall(runtime, stage string, d time.Duration) {
	if m == nil {
		return
	}
	m.init()
	m.stageHist.With(runtime, stage).Observe(d.Seconds())
	m.mu.Lock()
	if m.stageWall == nil {
		m.stageWall = make(map[string]time.Duration)
	}
	m.stageWall[stage] += d
	m.mu.Unlock()
}

// AddStageRows accumulates committed row counts for one stage.
func (m *Exec) AddStageRows(stage string, rows int64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	if m.stageRows == nil {
		m.stageRows = make(map[string]int64)
	}
	m.stageRows[stage] += rows
	m.mu.Unlock()
}

// ObserveCheckpointWrite records the wall time of one checkpoint store write.
func (m *Exec) ObserveCheckpointWrite(runtime string, d time.Duration) {
	if m == nil {
		return
	}
	m.init()
	m.ckptHist.With(runtime).Observe(d.Seconds())
}

// StageWall returns a copy of the per-stage wall-time table.
func (m *Exec) StageWall() map[string]time.Duration {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]time.Duration, len(m.stageWall))
	for k, v := range m.stageWall {
		out[k] = v
	}
	return out
}

// StageRows returns a copy of the per-stage committed-row table.
func (m *Exec) StageRows() map[string]int64 {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]int64, len(m.stageRows))
	for k, v := range m.stageRows {
		out[k] = v
	}
	return out
}

// ExecSnapshot is a plain-value copy of the counters for reporting. Its JSON
// shape predates the registry and is kept stable; the checkpoint min/avg/max
// fields are derived from the exact extremes the latency histograms track.
type ExecSnapshot struct {
	Batches         int64                    `json:"batches"`
	Rows            int64                    `json:"rows"`
	CheckpointParts int64                    `json:"checkpoint_parts"`
	CheckpointBytes int64                    `json:"checkpoint_bytes"`
	Failures        int64                    `json:"failures"`
	Recoveries      int64                    `json:"recoveries"`
	Restarts        int64                    `json:"restarts"`
	StageWall       map[string]time.Duration `json:"-"`
	StageRows       map[string]int64         `json:"-"`
	// Stages is the JSON form of the per-stage tables: one entry per stage,
	// name-sorted, so regenerated benchmark reports are byte-stable in
	// ordering instead of depending on map iteration or marshaller behavior.
	Stages []StageMetric `json:"stages"`
	// Checkpoint-write latency over individual store writes.
	CheckpointMin time.Duration `json:"checkpoint_min_ns"`
	CheckpointAvg time.Duration `json:"checkpoint_avg_ns"`
	CheckpointMax time.Duration `json:"checkpoint_max_ns"`
	// WastedSeconds is the ledger's total lost time; zero (and omitted) on
	// clean runs so pre-ledger reports keep their byte shape.
	WastedSeconds float64 `json:"wasted_seconds,omitempty"`
}

// StageMetric is one row of the deterministic per-stage table.
type StageMetric struct {
	Stage  string        `json:"stage"`
	WallNS time.Duration `json:"wall_ns"`
	Rows   int64         `json:"rows"`
}

// stageTable flattens the per-stage maps into a name-sorted slice.
func stageTable(wall map[string]time.Duration, rows map[string]int64) []StageMetric {
	if len(wall) == 0 && len(rows) == 0 {
		return nil
	}
	seen := make(map[string]bool, len(wall))
	names := make([]string, 0, len(wall))
	for n := range wall {
		seen[n] = true
		names = append(names, n)
	}
	for n := range rows {
		if !seen[n] {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	out := make([]StageMetric, len(names))
	for i, n := range names {
		out[i] = StageMetric{Stage: n, WallNS: wall[n], Rows: rows[n]}
	}
	return out
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
		StageWall:       m.StageWall(),
		StageRows:       m.StageRows(),
	}
	s.Stages = stageTable(s.StageWall, s.StageRows)
	// Derive the legacy min/avg/max from the histograms' exact extremes,
	// merging the labeled series.
	var merged HistogramSnapshot
	for _, sample := range m.ckptHist.snapshot() {
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

// String renders the snapshot compactly for CLI output. Sections and the
// per-stage lines inside them are stable-ordered so output is diffable.
func (s ExecSnapshot) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "batches=%d rows=%d ckpt_parts=%d ckpt_bytes=%d failures=%d recoveries=%d restarts=%d",
		s.Batches, s.Rows, s.CheckpointParts, s.CheckpointBytes, s.Failures, s.Recoveries, s.Restarts)
	if s.CheckpointParts > 0 {
		fmt.Fprintf(&b, "\ncheckpoint write latency: min=%s avg=%s max=%s",
			s.CheckpointMin, s.CheckpointAvg, s.CheckpointMax)
	}
	if len(s.StageWall) > 0 {
		names := make([]string, 0, len(s.StageWall))
		for n := range s.StageWall {
			names = append(names, n)
		}
		sort.Strings(names)
		b.WriteString("\nstage wall time:")
		for _, n := range names {
			fmt.Fprintf(&b, "\n  %-40s %-14s %d rows", n, s.StageWall[n], s.StageRows[n])
		}
	}
	return b.String()
}
