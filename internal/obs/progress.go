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
// checkpoint bytes, plus restart/failure counters. It is a fold over the
// runtime's events (Observe), and the /debug/queries endpoint snapshots it
// without stopping the query. A stage appears with its first event.
//
// Every method tolerates a nil receiver, so untracked executions pay a
// single nil check per event.
type Progress struct {
	id     int64
	tenant string
	name   string
	start  time.Time

	mu       sync.Mutex
	stages   []StageSnapshot // in order of first event; Frac and PredRuntime are filled at snapshot
	restarts int64
	failures int64
	pred     map[string]StagePrediction
	groups   []float64 // predicted runtime T(c) per collapsed group
	predTot  float64   // dominant-path predicted runtime, seconds
	done     bool
	elapsed  time.Duration // wall time at completion
	err      string
}

// StagePrediction is the forecast a runtime stage picks up by the name of
// its operator: the collapsed group the operator belongs to (an index into
// Prediction.Ops) and that group's predicted runtime T(c).
type StagePrediction struct {
	Group   int
	Runtime float64
}

// SetPrediction attaches the cost model's forecast: perStage maps engine
// operator names to their collapsed group (stages pick their own name up;
// names that never become stages are ignored), total is the dominant-path
// runtime TPt. The ETA in snapshots is derived from these — the same tr/tm
// terms the optimizer used.
func (p *Progress) SetPrediction(total float64, perStage map[string]StagePrediction) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.predTot = total
	p.pred = make(map[string]StagePrediction, len(perStage))
	p.groups = nil
	for name, sp := range perStage {
		p.pred[name] = sp
		for len(p.groups) <= sp.Group {
			p.groups = append(p.groups, 0)
		}
		p.groups[sp.Group] = sp.Runtime
	}
}

// StagePredictions flattens a cost-model Prediction into the per-operator
// map SetPrediction expects: every engine operator inside a predicted group
// maps to that group, so whichever name a runtime picks for its stage finds
// the forecast.
func StagePredictions(pred Prediction) map[string]StagePrediction {
	out := make(map[string]StagePrediction)
	for g, op := range pred.Ops {
		for _, name := range op.Ops {
			out[name] = StagePrediction{Group: g, Runtime: op.Runtime}
		}
	}
	return out
}

// Observe folds one runtime event: a committed or restored partition counts
// done, a lost one undone, a landed checkpoint adds its bytes to its stage,
// a recovery or restart counts a failure, and a restart resets per-stage
// completion (checkpoint bytes persist: restored partitions were paid for).
func (p *Progress) Observe(sp Span) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	switch sp.Kind {
	case KindTask, KindRestore:
		if st := p.stage(sp.Name, sp.Parts); sp.Err == "" {
			st.DoneParts++
			st.Rows += sp.Rows
		}
	case KindLost:
		st := p.stage(sp.Name, sp.Parts)
		st.DoneParts--
		st.Rows -= sp.Rows
	case KindStage:
		p.stage(sp.Name, sp.Parts)
	case KindCheckpoint:
		if i := p.index(sp.Name); i >= 0 && sp.Err == "" {
			p.stages[i].CheckpointBytes += sp.Bytes
		}
	case KindRecovery:
		p.failures++
	case KindRestart:
		p.failures++
		p.restarts++
		for i := range p.stages {
			p.stages[i].DoneParts, p.stages[i].Rows = 0, 0
		}
	}
}

// stage returns the named stage, registering it on its first event (p.mu
// held).
func (p *Progress) stage(name string, parts int) *StageSnapshot {
	i := p.index(name)
	if i < 0 {
		i = len(p.stages)
		p.stages = append(p.stages, StageSnapshot{Name: name, TotalParts: int64(parts)})
	}
	return &p.stages[i]
}

// index returns the position of the named stage, -1 before its first event
// (p.mu held).
func (p *Progress) index(name string) int {
	for i := range p.stages {
		if p.stages[i].Name == name {
			return i
		}
	}
	return -1
}

// finish marks the query complete; err is recorded when non-nil.
func (p *Progress) finish(err error) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.elapsed = time.Since(p.start)
	if err != nil {
		p.err = err.Error()
	}
	p.done = true
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
// with the runtime folding events into it.
//
// The ETA is Σ over predicted groups of T(c)·(1 − the group's done
// fraction), the fraction taken over the partitions of the group's stages
// that have reported, so a group that spans several runtime stages is
// counted once.
func (p *Progress) Snapshot() ProgressSnapshot {
	if p == nil {
		return ProgressSnapshot{}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	snap := ProgressSnapshot{
		ID:             p.id,
		Tenant:         p.tenant,
		Name:           p.name,
		ElapsedSeconds: time.Since(p.start).Seconds(),
		Attempts:       p.restarts + 1,
		Failures:       p.failures,
		Done:           p.done,
		Err:            p.err,
		Stages:         append([]StageSnapshot(nil), p.stages...),
	}
	if p.done {
		snap.ElapsedSeconds = p.elapsed.Seconds()
	}
	groupDone := make([]int64, len(p.groups))
	groupTotal := make([]int64, len(p.groups))
	var doneParts, totalParts int64
	for i := range snap.Stages {
		ss := &snap.Stages[i]
		ss.Frac = fraction(ss.DoneParts, ss.TotalParts)
		if pr, ok := p.pred[ss.Name]; ok {
			ss.PredRuntime = pr.Runtime
			groupDone[pr.Group] += ss.DoneParts
			groupTotal[pr.Group] += ss.TotalParts
		}
		doneParts += ss.DoneParts
		totalParts += ss.TotalParts
	}
	snap.Frac = fraction(doneParts, totalParts)
	switch {
	case snap.Done:
		// No ETA for finished queries.
	case len(p.groups) > 0:
		for g, runtime := range p.groups {
			snap.EtaSeconds += runtime * (1 - fraction(groupDone[g], groupTotal[g]))
		}
	case p.predTot > 0:
		snap.EtaSeconds = p.predTot * (1 - snap.Frac)
	}
	return snap
}

// fraction is done/total clamped to [0, 1]; 0 when total is 0.
func fraction(done, total int64) float64 {
	if total <= 0 {
		return 0
	}
	return max(0, min(1, float64(done)/float64(total)))
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

	begun atomic.Int64
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
