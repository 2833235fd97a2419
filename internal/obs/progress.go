package obs

import (
	"encoding/json"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ftpde/internal/obs/metrics"
)

// Progress tracks one in-flight query's execution state for live
// introspection: per-stage completed/total partitions, committed rows and
// checkpoint bytes, plus restart/failure counters. The runtime feeds it per
// stage, and the /debug/queries endpoint snapshots it without stopping the
// query.
//
// The hot path is a handful of atomic adds on a *StageProgress handle
// resolved once at plan time; every method tolerates a nil receiver so
// untracked executions pay a single nil check.
type Progress struct {
	id     int64
	tenant string
	name   string
	start  time.Time

	restarts atomic.Int64
	failures atomic.Int64

	mu      sync.Mutex
	stages  []*StageProgress
	byName  map[string]*StageProgress
	pred    map[string]float64 // per-stage predicted runtime T(c), seconds
	predTot float64            // dominant-path predicted runtime, seconds

	done    atomic.Bool
	endNS   atomic.Int64 // wall time of completion, ns since start
	lastErr atomic.Value // string
}

// StageProgress is the per-stage handle the runtimes hold: all counters are
// atomics, so recording progress never takes a lock.
type StageProgress struct {
	name  string
	total int64

	doneParts atomic.Int64
	rows      atomic.Int64
	ckptBytes atomic.Int64
}

// EnsureStage registers (or returns the existing) stage handle. totalParts is
// the partition count the stage fans out over; registration happens during
// plan setup, off the hot path.
func (p *Progress) EnsureStage(name string, totalParts int) *StageProgress {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.byName == nil {
		p.byName = make(map[string]*StageProgress)
	}
	if sp, ok := p.byName[name]; ok {
		return sp
	}
	sp := &StageProgress{name: name, total: int64(totalParts)}
	p.byName[name] = sp
	p.stages = append(p.stages, sp)
	return sp
}

// SetPrediction attaches the cost model's forecast: perStage maps collapsed
// operator names to their predicted runtime T(c) (stages pick their own name
// up; names that never become stages are ignored), total is the dominant-path
// runtime TPt. The ETA in snapshots is derived from these — the same tr/tm
// terms the optimizer used.
func (p *Progress) SetPrediction(total float64, perStage map[string]float64) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.predTot = total
	if len(perStage) > 0 {
		p.pred = make(map[string]float64, len(perStage))
		for k, v := range perStage {
			p.pred[k] = v
		}
	}
}

// StagePredictions flattens a cost-model Prediction into the per-stage map
// SetPrediction expects: every collapsed operator name inside a predicted
// group maps to that group's runtime, so whichever name a runtime picks for
// its stage finds the forecast.
func StagePredictions(pred Prediction) map[string]float64 {
	out := make(map[string]float64)
	for _, op := range pred.Ops {
		for _, name := range op.Ops {
			out[name] = op.Runtime
		}
	}
	return out
}

// PartDone records one committed partition carrying rows rows.
func (sp *StageProgress) PartDone(rows int64) {
	if sp == nil {
		return
	}
	sp.doneParts.Add(1)
	sp.rows.Add(rows)
}

// PartUndone retracts one committed partition: fine-grained recovery dropped
// it from a failed node and will recompute it.
func (sp *StageProgress) PartUndone(rows int64) {
	if sp == nil {
		return
	}
	sp.doneParts.Add(-1)
	sp.rows.Add(-rows)
}

// AddCheckpointBytes records encoded checkpoint bytes written for the stage.
func (sp *StageProgress) AddCheckpointBytes(n int64) {
	if sp == nil {
		return
	}
	sp.ckptBytes.Add(n)
}

// Reset zeroes the stage's counters (a coarse restart recomputes everything).
func (sp *StageProgress) Reset() {
	if sp == nil {
		return
	}
	sp.doneParts.Store(0)
	sp.rows.Store(0)
}

// Restart records a coarse whole-query restart and resets per-stage
// completion (checkpoint bytes persist: restored partitions were paid for).
func (p *Progress) Restart() {
	if p == nil {
		return
	}
	p.restarts.Add(1)
	p.mu.Lock()
	stages := p.stages
	p.mu.Unlock()
	for _, sp := range stages {
		sp.Reset()
	}
}

// Failure records one injected/observed node failure hitting the query.
func (p *Progress) Failure() {
	if p == nil {
		return
	}
	p.failures.Add(1)
}

// AddCheckpointBytesFor resolves the stage by name (mutex-guarded map read;
// used by the async checkpoint writer, off the compute hot path).
func (p *Progress) AddCheckpointBytesFor(stage string, n int64) {
	if p == nil {
		return
	}
	p.mu.Lock()
	sp := p.byName[stage]
	p.mu.Unlock()
	sp.AddCheckpointBytes(n)
}

// finish marks the query complete; err is recorded when non-nil.
func (p *Progress) finish(err error) {
	if p == nil {
		return
	}
	p.endNS.Store(int64(time.Since(p.start)))
	if err != nil {
		p.lastErr.Store(err.Error())
	}
	p.done.Store(true)
}

// StageSnapshot is one stage's progress at snapshot time.
type StageSnapshot struct {
	Name            string  `json:"name"`
	DoneParts       int64   `json:"done_parts"`
	TotalParts      int64   `json:"total_parts"`
	Rows            int64   `json:"rows"`
	CheckpointBytes int64   `json:"checkpoint_bytes,omitempty"`
	PredRuntime     float64 `json:"pred_runtime,omitempty"`
	Frac            float64 `json:"frac"`
}

// ProgressSnapshot is the JSON shape /debug/queries serves per query.
type ProgressSnapshot struct {
	ID             int64           `json:"id"`
	Tenant         string          `json:"tenant,omitempty"`
	Name           string          `json:"name"`
	ElapsedSeconds float64         `json:"elapsed_seconds"`
	Attempts       int64           `json:"attempts"`
	Failures       int64           `json:"failures"`
	Done           bool            `json:"done"`
	Err            string          `json:"err,omitempty"`
	Frac           float64         `json:"frac"`
	EtaSeconds     float64         `json:"eta_seconds,omitempty"`
	Stages         []StageSnapshot `json:"stages"`
}

// Snapshot captures the query's current progress. Safe to call concurrently
// with the runtimes recording into the handles.
func (p *Progress) Snapshot() ProgressSnapshot {
	if p == nil {
		return ProgressSnapshot{}
	}
	p.mu.Lock()
	stages := append([]*StageProgress(nil), p.stages...)
	pred := p.pred
	predTot := p.predTot
	p.mu.Unlock()

	snap := ProgressSnapshot{
		ID:       p.id,
		Tenant:   p.tenant,
		Name:     p.name,
		Attempts: p.restarts.Load() + 1,
		Failures: p.failures.Load(),
		Done:     p.done.Load(),
	}
	if snap.Done {
		snap.ElapsedSeconds = time.Duration(p.endNS.Load()).Seconds()
	} else {
		snap.ElapsedSeconds = time.Since(p.start).Seconds()
	}
	if e, ok := p.lastErr.Load().(string); ok {
		snap.Err = e
	}
	var doneParts, totalParts int64
	var etaKnown bool
	var eta float64
	for _, sp := range stages {
		ss := StageSnapshot{
			Name:            sp.name,
			DoneParts:       sp.doneParts.Load(),
			TotalParts:      sp.total,
			Rows:            sp.rows.Load(),
			CheckpointBytes: sp.ckptBytes.Load(),
		}
		if ss.TotalParts > 0 {
			ss.Frac = float64(ss.DoneParts) / float64(ss.TotalParts)
			if ss.Frac > 1 {
				ss.Frac = 1
			}
		}
		if pr, ok := pred[sp.name]; ok && pr > 0 {
			ss.PredRuntime = pr
			eta += pr * (1 - ss.Frac)
			etaKnown = true
		}
		doneParts += ss.DoneParts
		totalParts += ss.TotalParts
		snap.Stages = append(snap.Stages, ss)
	}
	if totalParts > 0 {
		snap.Frac = float64(doneParts) / float64(totalParts)
		if snap.Frac > 1 {
			snap.Frac = 1
		}
	}
	switch {
	case snap.Done:
		// No ETA for finished queries.
	case etaKnown:
		snap.EtaSeconds = eta
	case predTot > 0:
		snap.EtaSeconds = predTot * (1 - snap.Frac)
	}
	return snap
}

// ProgressRegistry indexes in-flight (and recently finished) queries for the
// /debug/queries endpoint. A nil registry is a no-op: Begin returns a nil
// *Progress, which every recording method tolerates.
type ProgressRegistry struct {
	mu     sync.Mutex
	nextID int64
	active map[int64]*Progress
	recent []*Progress // ring of completed queries, newest last
	keep   int

	begun     atomic.Int64
	completed atomic.Int64
}

// NewProgressRegistry returns a registry retaining the last keep completed
// queries (keep <= 0 defaults to 16).
func NewProgressRegistry(keep int) *ProgressRegistry {
	if keep <= 0 {
		keep = 16
	}
	return &ProgressRegistry{active: make(map[int64]*Progress), keep: keep}
}

// Begin registers a new in-flight query and returns its tracker. The
// returned Progress carries a registry-unique ID usable as the Span.Query
// tag.
func (r *ProgressRegistry) Begin(tenant, name string) *Progress {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextID++
	p := &Progress{id: r.nextID, tenant: tenant, name: name, start: time.Now()}
	r.active[p.id] = p
	r.begun.Add(1)
	return p
}

// ID returns the registry-assigned query ID (0 for a nil tracker).
func (p *Progress) ID() int64 {
	if p == nil {
		return 0
	}
	return p.id
}

// End marks p finished (err may be nil) and moves it from the active set to
// the recent ring.
func (r *ProgressRegistry) End(p *Progress, err error) {
	if r == nil || p == nil {
		return
	}
	p.finish(err)
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.active, p.id)
	r.recent = append(r.recent, p)
	if len(r.recent) > r.keep {
		r.recent = r.recent[len(r.recent)-r.keep:]
	}
	r.completed.Add(1)
}

// QueriesSnapshot is the /debug/queries JSON document.
type QueriesSnapshot struct {
	Active []ProgressSnapshot `json:"active"`
	Recent []ProgressSnapshot `json:"recent"`
}

// Snapshot captures all tracked queries: active sorted by ID, recent
// newest-first.
func (r *ProgressRegistry) Snapshot() QueriesSnapshot {
	if r == nil {
		return QueriesSnapshot{}
	}
	r.mu.Lock()
	active := make([]*Progress, 0, len(r.active))
	for _, p := range r.active {
		active = append(active, p)
	}
	recent := append([]*Progress(nil), r.recent...)
	r.mu.Unlock()

	sort.Slice(active, func(i, j int) bool { return active[i].id < active[j].id })
	var snap QueriesSnapshot
	for _, p := range active {
		snap.Active = append(snap.Active, p.Snapshot())
	}
	for i := len(recent) - 1; i >= 0; i-- {
		snap.Recent = append(snap.Recent, recent[i].Snapshot())
	}
	return snap
}

// ServeHTTP serves the registry snapshot as indented JSON (/debug/queries).
func (r *ProgressRegistry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(r.Snapshot())
}

// RegisterProgressMetrics exposes the registry's counters as metric families.
// Idempotent like RegisterTraceMetrics: duplicate registration is ignored.
func RegisterProgressMetrics(reg *metrics.Registry, r *ProgressRegistry) {
	_ = reg.RegisterFunc(metrics.Desc{
		Name: "ftpde_queries_inflight", Kind: metrics.KindGauge,
		Help: "Queries currently tracked as in-flight by the progress registry.",
	}, func() []metrics.Sample {
		if r == nil {
			return []metrics.Sample{{Value: 0}}
		}
		r.mu.Lock()
		n := len(r.active)
		r.mu.Unlock()
		return []metrics.Sample{{Value: float64(n)}}
	})
	_ = reg.RegisterFunc(metrics.Desc{
		Name: "ftpde_queries_tracked_total", Kind: metrics.KindCounter,
		Help: "Queries ever registered with the progress registry.",
	}, func() []metrics.Sample {
		if r == nil {
			return []metrics.Sample{{Value: 0}}
		}
		return []metrics.Sample{{Value: float64(r.begun.Load())}}
	})
}
