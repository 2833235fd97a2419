package service

import (
	"context"
	"errors"
	"fmt"
	"net"
	goruntime "runtime"
	"sync"
	"time"

	"ftpde/internal/cost"
	"ftpde/internal/engine"
	"ftpde/internal/exec"
	"ftpde/internal/failure"
	"ftpde/internal/obs"
	"ftpde/internal/obs/metrics"
	"ftpde/internal/runtime"
	"ftpde/internal/schemes"
	"ftpde/internal/sql"
	"ftpde/internal/stats"
	"ftpde/internal/tpch"
)

// Config parameterizes a Server. The zero value of every field selects a
// sensible default (see withDefaults); tests construct partial configs.
type Config struct {
	// SF is the TPC-H scale factor of the served catalog.
	SF float64
	// Nodes is the partition count queries execute with.
	Nodes int
	// Seed seeds the data generator.
	Seed int64
	// BatchSize is the runtime vector width (default engine.DefaultBatchSize).
	BatchSize int

	// Workers sizes the shared worker pool (default GOMAXPROCS).
	Workers int
	// MaxConcurrent bounds queries executing simultaneously (default
	// 2*Workers): each admitted query owns one slot from admission through
	// response.
	MaxConcurrent int
	// QueueDepth bounds requests parked waiting for an execution slot;
	// beyond it the server sheds load with RejectQueueFull (default
	// 2*MaxConcurrent).
	QueueDepth int

	// TenantRate is each tenant's sustained queries/second budget
	// (token-bucket refill rate); <= 0 disables rate limiting.
	TenantRate float64
	// TenantBurst is the bucket capacity (default max(TenantRate, 1) when
	// rate limiting is on).
	TenantBurst float64
	// TenantConcurrency caps one tenant's in-flight queries so a single
	// tenant cannot occupy every execution slot; <= 0 disables the cap.
	TenantConcurrency int

	// ModelMTBF/ModelMTTR parameterize the fault-tolerance cost model used
	// at plan time (defaults: one hour, 1s — the paper's constants).
	ModelMTBF float64
	ModelMTTR float64
	// CPUPerRow/WritePerRow calibrate the planner's cost units (defaults
	// 1e-6 and 1.7e-5, ftsql's constants; PR-5 calibration can refine them).
	CPUPerRow   float64
	WritePerRow float64
	// DisableLoadAware turns off utilization-scaled recovery costing, so
	// plans price recovery as if the pool were idle regardless of load.
	DisableLoadAware bool

	// InjectMTBF > 0 runs every query under failures drawn from a
	// failure.Trace with that per-node MTBF, in model seconds (the planner's
	// cost units, ≈ seconds once calibrated): the query's audited plan is
	// simulated against the trace and the task attempts it kills become the
	// runtime's kill schedule, so a query's failures replay on any host.
	InjectMTBF float64
	// InjectSeed seeds each query's trace together with the query ID
	// (default 1).
	InjectSeed int64
	// Injector overrides the schedules built from InjectMTBF —
	// deterministic failure drills (engine.ScriptedFailures) use this.
	Injector engine.FailureInjector

	// Coarse switches every query to coarse whole-query restarts and
	// MaxRestarts bounds them (0 = the runtime default of 100). Together
	// with a scripted Injector these make recovery exhaustion — and the
	// forensics bundle it dumps — deterministic.
	Coarse      bool
	MaxRestarts int

	// ForensicsDir, when non-empty, enables failure forensics: a query that
	// exhausts recovery or dies mid-flight dumps a diagnostic bundle to a
	// bounded on-disk ring there. ForensicsMax bounds the ring (default 32).
	ForensicsDir string
	ForensicsMax int

	// Registry receives the service metric families; nil allocates one.
	Registry *metrics.Registry
	// Tracer receives execution spans; nil allocates a small ring. Queries
	// execute against private tracers whose spans are folded in here tagged
	// with the query ID, so concurrent tenants' timelines stay separable.
	Tracer *obs.Tracer
}

func (cfg Config) withDefaults() Config {
	if cfg.SF <= 0 {
		cfg.SF = 0.01
	}
	if cfg.Nodes <= 0 {
		cfg.Nodes = 4
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Workers <= 0 {
		cfg.Workers = goruntime.GOMAXPROCS(0)
	}
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 2 * cfg.Workers
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 2 * cfg.MaxConcurrent
	}
	if cfg.TenantRate > 0 && cfg.TenantBurst <= 0 {
		cfg.TenantBurst = cfg.TenantRate
		if cfg.TenantBurst < 1 {
			cfg.TenantBurst = 1
		}
	}
	if cfg.ModelMTBF <= 0 {
		cfg.ModelMTBF = failure.OneHour
	}
	if cfg.ModelMTTR <= 0 {
		cfg.ModelMTTR = 1
	}
	if cfg.CPUPerRow <= 0 {
		cfg.CPUPerRow = 1e-6
	}
	if cfg.WritePerRow <= 0 {
		cfg.WritePerRow = 1.7e-5
	}
	if cfg.InjectSeed == 0 {
		cfg.InjectSeed = 1
	}
	if cfg.Registry == nil {
		cfg.Registry = metrics.NewRegistry()
	}
	if cfg.Tracer == nil {
		cfg.Tracer = obs.NewTracer(1 << 12)
	}
	return cfg
}

// Server is a multi-tenant query service: one TPC-H catalog, one shared
// bounded worker pool, many concurrent stage-DAG executions.
type Server struct {
	cfg  Config
	cat  *engine.Catalog
	cp   stats.CostParams
	base cost.Model
	pool *runtime.Pool
	met  *svcMetrics

	progress  *obs.ProgressRegistry
	drift     *obs.DriftDetector
	forensics *obs.BundleWriter

	slots chan struct{} // execution-slot semaphore (MaxConcurrent)
	queue waitQueue
	stop  chan struct{} // closed when draining begins

	mu       sync.Mutex // guards draining + wg.Add
	draining bool
	wg       sync.WaitGroup

	tmu     sync.Mutex
	tenants map[string]*tenantState

	smu    sync.Mutex
	tstats map[string]sql.TableStats

	lmu     sync.Mutex
	ewmaLat float64 // seconds, exponentially-weighted mean query latency

	nmu   sync.Mutex
	lns   []net.Listener
	conns map[net.Conn]bool
	lwg   sync.WaitGroup // accept loops + connection handlers
	debug *obs.DebugServer
}

// New builds a server: generates the catalog, sizes the shared pool and
// registers the service metric families.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	cat, err := tpch.Generate(cfg.SF, cfg.Nodes, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("service: generate catalog: %w", err)
	}
	s := &Server{
		cfg:  cfg,
		cat:  cat,
		cp:   stats.CostParams{CPUPerRow: cfg.CPUPerRow, WritePerRow: cfg.WritePerRow, Nodes: cfg.Nodes},
		base: cost.Model{MTBF: cfg.ModelMTBF, MTTR: cfg.ModelMTTR, Percentile: 0.95, PipeConst: 1, Nodes: cfg.Nodes},
		pool: runtime.NewPool(cfg.Workers),

		slots:   make(chan struct{}, cfg.MaxConcurrent),
		queue:   waitQueue{max: cfg.QueueDepth},
		stop:    make(chan struct{}),
		tenants: make(map[string]*tenantState),
		tstats:  make(map[string]sql.TableStats),
		conns:   make(map[net.Conn]bool),
	}
	s.progress = obs.NewProgressRegistry(32)
	s.drift = obs.NewDriftDetector(obs.DriftConfig{
		Nodes:     cfg.Nodes,
		ModelMTBF: cfg.ModelMTBF,
		ModelMTTR: cfg.ModelMTTR,
	})
	obs.RegisterDriftMetrics(cfg.Registry, s.drift)
	if cfg.ForensicsDir != "" {
		w, err := obs.NewBundleWriter(cfg.ForensicsDir, cfg.ForensicsMax)
		if err != nil {
			return nil, err
		}
		s.forensics = w
		obs.RegisterForensicsMetrics(cfg.Registry, w)
	}
	s.met = newSvcMetrics(cfg.Registry, s)
	return s, nil
}

// Progress exposes the live-query registry backing /debug/queries.
func (s *Server) Progress() *obs.ProgressRegistry { return s.progress }

// Drift exposes the online drift detector (tests and /debug/vars read it).
func (s *Server) Drift() *obs.DriftDetector { return s.drift }

// Pool exposes the shared worker pool (tests observe utilization).
func (s *Server) Pool() *runtime.Pool { return s.pool }

// Registry returns the metric registry backing /metrics.
func (s *Server) Registry() *metrics.Registry { return s.cfg.Registry }

// QueueDepth returns the number of requests parked for an execution slot.
func (s *Server) QueueDepth() int { return s.queue.Depth() }

// TPCHQuery names one of the service's canonical workload queries.
type TPCHQuery struct {
	Name string
	Text string
}

// TPCHQueries returns the TPC-H shapes the benchmark harness and the
// service's equivalence tests run: Q1 (scan + aggregate), Q3 (3-way join)
// and a Q5-like 6-way join — the same spread of plan depths the paper's
// experiments cover.
func TPCHQueries() []TPCHQuery {
	return []TPCHQuery{
		{"Q1", `
		SELECT l_returnflag, l_linestatus,
		       SUM(l_quantity) AS sum_qty,
		       SUM(l_extendedprice) AS sum_price,
		       COUNT(*) AS cnt
		FROM lineitem
		WHERE l_shipdate <= 1200
		GROUP BY l_returnflag, l_linestatus`},
		{"Q3", `
		SELECT l_orderkey, SUM(l_extendedprice * (1 - l_discount)) AS revenue
		FROM customer
		JOIN orders ON c_custkey = o_custkey
		JOIN lineitem ON o_orderkey = l_orderkey
		WHERE c_mktsegment = 'BUILDING' AND o_orderdate < 1200
		GROUP BY l_orderkey
		ORDER BY revenue DESC`},
		{"Q5", `
		SELECT n_name, SUM(l_extendedprice * (1 - l_discount)) AS revenue
		FROM region
		JOIN nation ON r_regionkey = n_regionkey
		JOIN supplier ON n_nationkey = s_nationkey
		JOIN lineitem ON s_suppkey = l_suppkey
		JOIN orders ON l_orderkey = o_orderkey
		JOIN customer ON o_custkey = c_custkey
		GROUP BY n_name
		ORDER BY revenue DESC`},
	}
}

// QueryError wraps a per-query failure that is not load shedding: Phase
// "plan" covers parse/plan errors (the client's query is at fault), "exec"
// covers runtime errors.
type QueryError struct {
	Phase string
	Err   error
}

func (e *QueryError) Error() string { return fmt.Sprintf("service: %s: %v", e.Phase, e.Err) }
func (e *QueryError) Unwrap() error { return e.Err }

// Submit runs one request through admission, planning and execution. Load
// shedding returns a *Reject error; query faults return a *QueryError. The
// returned Response is non-nil only on success.
func (s *Server) Submit(ctx context.Context, req Request) (*Response, error) {
	tenantName := req.Tenant
	if tenantName == "" {
		tenantName = "default"
	}

	// Draining check and in-flight registration are one atomic step so
	// Drain's wg.Wait cannot miss a query admitted concurrently.
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		rej := &Reject{Code: RejectDraining, Tenant: tenantName, RetryAfter: s.retryHint()}
		s.met.rejected.With(tenantName, string(rej.Code)).Inc()
		return nil, rej
	}
	s.wg.Add(1)
	s.mu.Unlock()
	defer s.wg.Done()

	tn := s.tenant(tenantName)
	if rej := tn.admit(time.Now(), s.retryHint()); rej != nil {
		s.met.rejected.With(tenantName, string(rej.Code)).Inc()
		return nil, rej
	}
	defer tn.release()

	release, rej, err := s.admitGlobal(ctx, tenantName)
	if err != nil {
		return nil, err
	}
	if rej != nil {
		s.met.rejected.With(tenantName, string(rej.Code)).Inc()
		return nil, rej
	}
	defer release()
	s.met.admitted.With(tenantName).Inc()

	resp, err := s.execute(ctx, req, tenantName)
	if err != nil {
		s.met.failed.With(tenantName).Inc()
		return nil, err
	}
	s.met.completed.With(tenantName).Inc()
	s.met.latency.With(tenantName).Observe(resp.ElapsedSeconds)
	s.met.wasted.With(tenantName).Add(resp.WastedSeconds)
	s.met.failures.With(tenantName).Add(int64(resp.Failures))
	s.met.recovered.With(tenantName).Add(int64(resp.Recovered))
	s.observeLatency(resp.ElapsedSeconds)
	return resp, nil
}

// planModel samples pool utilization and returns the cost model queries are
// planned with: drift-corrected when the online detector has flagged a
// failure term, then load-aware unless disabled. The correction is the
// online analogue of re-planning after `ftsql -calibrate`: once the rolling
// MTBF/MTTR estimates disagree with the configured model for K consecutive
// queries, new MatConfigs price against observed reality.
func (s *Server) planModel() (cost.Model, float64) {
	util := s.pool.Utilization()
	m := s.drift.CorrectedModel(s.base)
	if !s.cfg.DisableLoadAware {
		m = m.UnderLoad(util)
	}
	return m, util
}

// stats returns (collecting and caching on first use) table statistics for
// every table the statement references.
func (s *Server) stats(stmt *sql.SelectStmt) (map[string]sql.TableStats, error) {
	s.smu.Lock()
	defer s.smu.Unlock()
	out := make(map[string]sql.TableStats, len(stmt.From))
	for _, tr := range stmt.From {
		ts, ok := s.tstats[tr.Table]
		if !ok {
			collected, err := sql.CollectStats(s.cat, []string{tr.Table})
			if err != nil {
				return nil, err
			}
			ts = collected[tr.Table]
			s.tstats[tr.Table] = ts
		}
		out[tr.Table] = ts
	}
	return out, nil
}

// execute plans and runs one admitted query on the shared pool. A fresh
// per-query metric set keeps the wasted-work ledger attributable to this
// query's tenant (a shared ledger would interleave failure/recovery pairs
// from concurrently recovering queries), and a fresh per-query tracer keeps
// the span slice attributable to this query — its spans are recorded into
// the shared tracer tagged with the query ID, feed the drift detector on
// success, and freeze into a forensics bundle on death.
func (s *Server) execute(ctx context.Context, req Request, tenant string) (*Response, error) {
	start := time.Now()
	m, util := s.planModel()
	cp := s.drift.CorrectedParams(s.cp)

	stmt, err := sql.Parse(req.Query)
	if err != nil {
		return nil, &QueryError{Phase: "plan", Err: err}
	}
	tstats, err := s.stats(stmt)
	if err != nil {
		return nil, &QueryError{Phase: "plan", Err: err}
	}
	audit, err := sql.BuildAuditPlan(stmt, s.cat, tstats, cp, m)
	if err != nil {
		return nil, &QueryError{Phase: "plan", Err: err}
	}

	qt := obs.NewTracer(1 << 12)
	prog := s.progress.Begin(tenant, audit.Phys.Root.Name())
	prog.SetPrediction(audit.Pred.DominantRuntime, obs.StagePredictions(audit.Pred))

	exec := &runtime.Metrics{}
	rcfg := runtime.Config{
		Nodes:       s.cfg.Nodes,
		BatchSize:   s.cfg.BatchSize,
		Pool:        s.pool,
		Injector:    s.cfg.Injector,
		Metrics:     exec,
		Tracer:      qt,
		Progress:    prog,
		MaxRestarts: s.cfg.MaxRestarts,
	}
	if s.cfg.Coarse {
		rcfg.Recovery = schemes.CoarseRestart
	}
	if rcfg.Injector == nil && s.cfg.InjectMTBF > 0 {
		if rcfg.Injector, _, err = s.killSchedule(audit, m, rcfg.Recovery, prog.ID()); err != nil {
			s.progress.End(prog, err)
			return nil, &QueryError{Phase: "plan", Err: err}
		}
	}
	rt, err := runtime.New(rcfg)
	if err != nil {
		s.progress.End(prog, err)
		return nil, &QueryError{Phase: "exec", Err: err}
	}
	res, report, err := rt.Execute(ctx, audit.Phys.Root)
	spans := qt.Snapshot()
	for _, sp := range spans {
		sp.Query = int(prog.ID())
		s.cfg.Tracer.Record(sp)
	}
	if err != nil {
		s.progress.End(prog, err)
		s.dumpForensics(req, tenant, prog, audit, spans, exec, report, err)
		return nil, &QueryError{Phase: "exec", Err: err}
	}
	s.progress.End(prog, nil)
	s.drift.ObserveQuery(audit.Pred, spans)

	rows, total := formatRows(res, req.MaxRows)
	cols := make([]string, len(audit.Phys.Output))
	for i, c := range audit.Phys.Output {
		cols[i] = c.Name
	}
	snap := exec.Snapshot()
	return &Response{
		ID:             req.ID,
		Code:           CodeOK,
		Columns:        cols,
		Rows:           rows,
		RowsTotal:      total,
		Failures:       report.Failures,
		Recovered:      report.RecomputedPartitions,
		Materialized:   report.MaterializedPartitions,
		WastedSeconds:  snap.WastedSeconds,
		ElapsedSeconds: time.Since(start).Seconds(),
		Utilization:    util,
		MatConfig:      audit.Opt.Config.String(),
	}, nil
}

// killSchedule simulates query qid's audited plan against a trace drawn at
// InjectMTBF, seeded from InjectSeed and qid. The trace covers ten
// failure-free makespans, past which the query runs clean: that bounds what
// an MTBF far below the query's runtime can schedule.
func (s *Server) killSchedule(audit *sql.AuditPlan, m cost.Model, rec schemes.Recovery, qid int64) (*engine.ScriptedFailures, *exec.Result, error) {
	makespan, err := exec.FailureFreeMakespan(audit.Opt.Plan, m)
	if err != nil {
		return nil, nil, err
	}
	spec := failure.Spec{Nodes: s.cfg.Nodes, MTBF: s.cfg.InjectMTBF}
	tr := failure.NewTrace(spec, 10*makespan, s.cfg.InjectSeed^(qid+1)*0x5851F42D4C957F2D)
	return exec.KillSchedule(audit.Opt.Plan, audit.Pred, exec.Options{Cluster: spec, Model: m, Recovery: rec, MaxRestarts: s.cfg.MaxRestarts}, tr)
}

// dumpForensics freezes a dead query into a diagnostic bundle on the
// forensics ring: the plan and its MatConfig, the audit of whatever spans
// landed before death, the wasted-work ledger, the per-query metrics
// snapshot and the server's drift state. Bundle-write failures must not mask
// the query error; they are surfaced as a failed-bundle counter instead.
func (s *Server) dumpForensics(req Request, tenant string, prog *obs.Progress,
	audit *sql.AuditPlan, spans []obs.Span, exec *runtime.Metrics,
	report *engine.Report, execErr error) {
	if s.forensics == nil {
		return
	}
	reason := "exec_error"
	switch {
	case report != nil && report.Aborted:
		reason = "recovery_exhausted"
	case execErr != nil && errorsIsContext(execErr):
		reason = "rejected"
	}
	psnap := prog.Snapshot()
	b := &obs.Bundle{
		ID:        prog.ID(),
		Tenant:    tenant,
		Query:     req.Query,
		Reason:    reason,
		Error:     execErr.Error(),
		MatConfig: audit.Opt.Config.String(),
		Pred:      audit.Pred,
		Audit:     obs.BuildAudit(audit.Pred, spans, 0),
		Spans:     spans,
		Progress:  &psnap,
		Ledger:    exec.Ledger().Snapshot(),
		Registry:  exec.Registry().Snapshot(),
		Drift:     s.drift.Snapshot(),
		CreatedAt: time.Now(),
	}
	if _, err := s.forensics.Write(b); err != nil {
		s.met.bundleErrors.Add(1)
	}
}

// errorsIsContext reports whether the error chain ends in a context
// cancellation or deadline — a query killed mid-flight rather than by
// exhausted recovery.
func errorsIsContext(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// formatRows renders result rows as strings, truncated to max (0 = all).
func formatRows(res *engine.PartitionedResult, max int) ([][]string, int) {
	all := res.AllRows()
	total := len(all)
	if max > 0 && len(all) > max {
		all = all[:max]
	}
	out := make([][]string, len(all))
	for i, r := range all {
		row := make([]string, len(r))
		for j, v := range r {
			row[j] = fmt.Sprintf("%v", v)
		}
		out[i] = row
	}
	return out, total
}

// observeLatency folds one query latency into the EWMA behind retryHint.
func (s *Server) observeLatency(sec float64) {
	s.lmu.Lock()
	if s.ewmaLat == 0 {
		s.ewmaLat = sec
	} else {
		s.ewmaLat = 0.8*s.ewmaLat + 0.2*sec
	}
	s.lmu.Unlock()
}

// retryHint estimates how long a shed request should back off: roughly the
// time for one queued-behind query to finish, floored at 100ms so clients
// do not spin.
func (s *Server) retryHint() time.Duration {
	s.lmu.Lock()
	lat := s.ewmaLat
	s.lmu.Unlock()
	if lat == 0 {
		lat = 0.25
	}
	hint := time.Duration(lat * float64(time.Second) * float64(1+s.queue.Depth()))
	if hint < 100*time.Millisecond {
		hint = 100 * time.Millisecond
	}
	if hint > 30*time.Second {
		hint = 30 * time.Second
	}
	return hint
}

// Draining reports whether Drain has begun.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain gracefully shuts the query path down: new submissions are rejected
// with RejectDraining, queued-but-unadmitted requests are shed, in-flight
// queries run to completion (including any failure recovery), then the
// shared pool is closed. Idempotent; concurrent callers all block until the
// drain completes.
func (s *Server) Drain() {
	s.mu.Lock()
	first := !s.draining
	s.draining = true
	s.mu.Unlock()
	if first {
		close(s.stop)
	}
	s.wg.Wait()
	s.pool.Close()
}

// Close drains the server and tears down its listeners and connections.
func (s *Server) Close() error {
	s.nmu.Lock()
	lns := s.lns
	s.lns = nil
	debug := s.debug
	s.debug = nil
	s.nmu.Unlock()
	for _, ln := range lns {
		ln.Close()
	}
	s.Drain()
	s.nmu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.nmu.Unlock()
	if debug != nil {
		debug.Close()
	}
	s.lwg.Wait()
	return nil
}
