// Package runtime is the concurrent pipelined execution runtime: it runs a
// collapsed fault-tolerant plan as a DAG of stages. A stage is a source
// operator and everything that streams from it up to the next stage boundary
// — narrow operators, and broadcast joins probed by the stream, whose build
// sides are stages of their own that every partition reads in full. Each
// stage executes partition-parallel on a bounded worker pool, the runtime's
// only source of parallelism: a stage partition is one loop on the worker
// that holds the pool slot, pushing vectorized batches through the stage's
// operators back to back (the way the cost model prices a collapsed group),
// so an intermediate join output exists one slice at a time. Materialization
// points are blocking barriers whose output is checkpointed asynchronously to
// an engine.EncodedStore by a dedicated writer. Failures are injected live — a
// worker dies mid-stream, at a kill point that is a position in that loop —
// and a recovery manager either re-runs only the affected partitions from the
// last materialized inputs (schemes.FineGrained) or restarts the whole query
// (schemes.CoarseRestart).
//
// The package is the product executor. engine.Coordinator, the row
// interpreter in internal/engine, is its reference: both execute the same
// engine.Operator DAGs against the same stores and failure injectors and
// must produce identical results, which the equivalence and differential
// tests assert.
package runtime

import (
	"context"
	"errors"
	"fmt"
	goruntime "runtime"
	"slices"
	"sync"
	"time"

	"ftpde/internal/engine"
	"ftpde/internal/obs"
	"ftpde/internal/schemes"
)

// Config parameterizes a Runtime.
type Config struct {
	// Nodes is the cluster size (= partition count of every intermediate).
	Nodes int
	// BatchSize is the vector width of the slices a chained stage pushes
	// through its kernels (default engine.DefaultBatchSize).
	BatchSize int
	// MaxWorkers bounds concurrently executing stage-partition workers
	// (default GOMAXPROCS). Ignored when Pool is set.
	MaxWorkers int
	// Pool is an injected worker pool, shared with other concurrently
	// executing queries (the multi-tenant service runs every query on one
	// Pool). Nil allocates a private pool of MaxWorkers slots, preserving
	// per-query semantics.
	Pool *Pool
	// Injector provides live failure decisions; nil means no failures.
	Injector engine.FailureInjector
	// Recovery selects fine-grained partition recovery (default) or
	// coarse-grained whole-query restarts.
	Recovery schemes.Recovery
	// MaxRestarts bounds coarse recovery (0 = 100, as in the paper).
	MaxRestarts int
	// Store is the fault-tolerant checkpoint medium, spoken to in blocks
	// only; nil allocates a fresh in-memory MatStore.
	Store engine.EncodedStore
	// Metrics folds the execution's events into counters, histograms, the
	// per-stage table and the wasted-work ledger; nil records nothing.
	Metrics *Metrics
	// Tracer records every event of the execution; nil records nothing.
	Tracer *obs.Tracer
	// Progress folds the events into live per-stage completion for
	// /debug/queries; nil disables tracking.
	Progress *obs.Progress
	// Arena recycles batch and vector buffers across the batches of a
	// chained stage partition; nil uses a process-wide shared arena so
	// concurrent queries feed each other's freelists.
	Arena *engine.Arena
}

// sharedArena is the process-wide default buffer arena. Sharing it across
// runtimes lets the freelists stay warm between queries.
var sharedArena = engine.NewArena()

// Runtime executes operator DAGs with the pipelined concurrent runtime.
type Runtime struct {
	cfg Config
}

// New validates the configuration and fills defaults.
func New(cfg Config) (*Runtime, error) {
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("runtime: config needs at least one node")
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = engine.DefaultBatchSize
	}
	if cfg.MaxWorkers <= 0 {
		cfg.MaxWorkers = goruntime.GOMAXPROCS(0)
	}
	if cfg.Pool == nil {
		cfg.Pool = NewPool(cfg.MaxWorkers)
	}
	if cfg.Injector == nil {
		cfg.Injector = engine.NoFailures{}
	}
	if cfg.Store == nil {
		cfg.Store = engine.NewMatStore()
	}
	if cfg.MaxRestarts == 0 {
		cfg.MaxRestarts = 100
	}
	if cfg.Arena == nil {
		cfg.Arena = sharedArena
	}
	if cfg.Metrics != nil {
		engine.RegisterArenaMetrics(cfg.Metrics.Registry(), cfg.Arena)
	}
	return &Runtime{cfg: cfg}, nil
}

// Execute runs the query rooted at root and returns its partitioned result
// along with an execution report. The report type is shared with the
// reference Coordinator so recovery tests compare the two directly.
func (r *Runtime) Execute(ctx context.Context, root engine.Operator) (*engine.PartitionedResult, *engine.Report, error) {
	plan, err := buildStages(root, r.cfg.Nodes)
	if err != nil {
		return nil, nil, err
	}
	ev := &events{metrics: r.cfg.Metrics, progress: r.cfg.Progress, tracer: r.cfg.Tracer}
	report := &ev.report
	attempts := &attempts{nodes: r.cfg.Nodes, n: make([]int, plan.ops*r.cfg.Nodes)}
	writer := newCheckpointWriter(r.cfg.Store, r.cfg.Arena, ev)
	defer writer.close()

	start := time.Now()
	defer func() {
		ev.emit(obs.Span{Kind: obs.KindQuery, Name: root.Name(), Part: -1, Attempt: -1, Start: start, End: time.Now()})
	}()

	for restarts := 0; ; restarts++ {
		attemptStart := time.Now()
		rn := &run{
			cfg:      r.cfg,
			plan:     plan,
			attempts: attempts,
			events:   ev,
			writer:   writer,
			results:  make([]*engine.BatchResult, len(plan.stages)),
			done:     make([][]bool, len(plan.stages)),
		}
		for _, s := range plan.stages {
			rn.results[s.id] = engine.NewBatchResult(s.terminal().OutSchema(), r.cfg.Nodes)
			rn.done[s.id] = make([]bool, r.cfg.Nodes)
		}
		res, err := rn.execute(ctx)
		if err == nil {
			// The query is only durably complete once every checkpoint the
			// plan promised has landed.
			if err := writer.flush(root.Name(), -1); err != nil {
				return nil, report, err
			}
			// The public contract stays row-partitioned; the root result is
			// materialized once, at the very edge.
			return res.ToPartitioned(), report, nil
		}
		nf, ok := asNodeFailure(err)
		if !ok || r.cfg.Recovery != schemes.CoarseRestart {
			return nil, report, err
		}
		// The aborted attempt's elapsed time is pure waste: everything it
		// computed (minus surviving checkpoints) is thrown away.
		sp := obs.Span{Kind: obs.KindRestart, Name: nf.op, Part: nf.part, Attempt: restarts + 1, Start: attemptStart, End: time.Now()}
		if restarts+1 > r.cfg.MaxRestarts {
			sp.Err = "restart limit exceeded"
		}
		ev.emit(sp)
		if sp.Err != "" {
			return nil, report, fmt.Errorf("runtime: query aborted after %d restarts", restarts)
		}
		// Restart from scratch; checkpoints and attempts persist.
	}
}

// run is the state of one query attempt (coarse restarts create a fresh run
// over the same attempts counter and checkpoint store).
type run struct {
	cfg      Config
	plan     *stagePlan
	attempts *attempts
	events   *events
	writer   *checkpointWriter

	mu      sync.Mutex            // guards results and done
	results []*engine.BatchResult // by stage id; replaced through WithPart, never written
	done    [][]bool              // by stage id, then partition

	// recoveryMu serializes fine-grained recoveries: drops of volatile
	// lineage and the recomputation that follows happen one failure at a
	// time, like the reference Coordinator's sequential recovery.
	recoveryMu sync.Mutex
}

// execute schedules the stage DAG: every stage gets a goroutine that waits
// for its producer stages (deps and sides), then fans its partitions out to
// the worker pool.
func (rn *run) execute(ctx context.Context) (*engine.BatchResult, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	doneOf := make([]chan struct{}, len(rn.plan.stages)) // by stage id
	for i := range doneOf {
		doneOf[i] = make(chan struct{})
	}
	var firstErr error
	var once sync.Once
	fail := func(err error) {
		once.Do(func() {
			firstErr = err
			cancel()
		})
	}

	var wg sync.WaitGroup
	for _, s := range rn.plan.stages {
		wg.Add(1)
		go func(s *stage) {
			defer wg.Done()
			for _, ds := range [][]*stage{s.deps, s.sides} {
				for _, d := range ds {
					select {
					case <-doneOf[d.id]:
					case <-ctx.Done():
						return
					}
				}
			}
			if err := rn.runStage(ctx, s); err != nil {
				fail(err)
				return
			}
			close(doneOf[s.id])
		}(s)
	}
	wg.Wait()
	// Every goroutine of the run has returned, so nothing probes a join build
	// any more: give back the ones chained joins drew from the arena, on every
	// result the run published, superseded ones included.
	loc := rn.cfg.Arena.Local()
	for _, res := range rn.results {
		res.ReleaseShared(loc)
	}
	loc.Close()
	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return rn.results[rn.plan.root.id], nil
}

// runStage executes every partition of a stage on the bounded worker pool
// and emits the stage's span when it ends.
func (rn *run) runStage(ctx context.Context, s *stage) error {
	start := time.Now()
	defer func() {
		rn.events.emit(obs.Span{Kind: obs.KindStage, Name: s.name(), Part: -1, Attempt: -1,
			Start: start, End: time.Now(), Rows: rn.stageRows(s), Parts: rn.cfg.Nodes})
	}()

	var wg sync.WaitGroup
	var once sync.Once
	var firstErr error
	fail := func(err error) { once.Do(func() { firstErr = err }) }
	for part := 0; part < rn.cfg.Nodes; part++ {
		wg.Add(1)
		go func(part int) {
			defer wg.Done()
			if aerr := rn.cfg.Pool.Acquire(ctx); aerr != nil {
				// A cancelled context surfaces through ctx.Err() below, as
				// before; a closed pool is a real scheduling failure that
				// must abort the query.
				if errors.Is(aerr, ErrPoolClosed) {
					fail(aerr)
				}
				return
			}
			defer rn.cfg.Pool.Release()
			if err := rn.runStagePartition(ctx, s, part); err != nil {
				fail(err)
			}
		}(part)
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}

// runStagePartition is one worker: it computes a stage partition and, under
// fine-grained recovery, handles any injected failure locally by re-running
// the affected lineage from the last materialized inputs. Under coarse
// recovery the failure propagates and aborts the run.
func (rn *run) runStagePartition(ctx context.Context, s *stage, part int) error {
	err := rn.computePartition(ctx, s, part, false)
	if err == nil {
		return nil
	}
	nf, ok := asNodeFailure(err)
	if !ok || rn.cfg.Recovery == schemes.CoarseRestart {
		return err
	}
	return rn.recoverFine(ctx, s, part, nf)
}

// computePartition produces one stage partition: restore it from a
// checkpoint when available, otherwise pipeline it from the stage inputs.
// recovery marks calls made while recovering lost lineage (the caller holds
// recoveryMu and has already ensured the inputs).
func (rn *run) computePartition(ctx context.Context, s *stage, part int, recovery bool) error {
	if rn.isDone(s, part) {
		return nil
	}
	if s.checkpoint {
		if err := rn.writer.wait(s, part); err != nil {
			return err
		}
		start := time.Now()
		if data, ok := rn.cfg.Store.GetEncoded(s.name(), part); ok {
			// Bytes that do not decode into the stage schema (torn, another
			// format, another plan's output under the same name) are a
			// checkpoint miss: the partition is recomputed and the checkpoint
			// rewritten.
			if b, err := engine.DecodeBlock(data, s.terminal().OutSchema()); err == nil {
				rn.finish(s, part, b, obs.Span{Kind: obs.KindRestore, Name: s.name(), Part: part, Attempt: -1,
					Start: start, End: time.Now(), Parts: rn.cfg.Nodes})
				return nil
			}
		}
	}
	// A concurrent recovery may have dropped volatile input partitions; wait
	// for it and re-ensure before reading. (While recovering, the caller holds
	// recoveryMu and has ensured them already.)
	inputs, ready := rn.inputResults(s, part)
	for !ready {
		rn.recoveryMu.Lock()
		err := rn.ensureStageInputs(ctx, s, part)
		rn.recoveryMu.Unlock()
		if err != nil {
			return err
		}
		inputs, ready = rn.inputResults(s, part)
	}
	sp := obs.Span{Kind: obs.KindTask, Name: s.name(), Part: part, Attempt: rn.attempts.peek(s, len(s.ops)-1, part),
		Start: time.Now(), Parts: rn.cfg.Nodes, Recompute: recovery}
	b, err := rn.runPartition(ctx, s, part, inputs)
	sp.End = time.Now()
	if err != nil {
		sp.Err = err.Error()
	}
	rn.finish(s, part, b, sp)
	return err
}

func (rn *run) isDone(s *stage, part int) bool {
	rn.mu.Lock()
	defer rn.mu.Unlock()
	return rn.done[s.id][part]
}

// stageRows sums the rows of the stage's committed partitions (for the
// stage span; partial when the stage failed mid-flight).
func (rn *run) stageRows(s *stage) int64 {
	rn.mu.Lock()
	defer rn.mu.Unlock()
	var n int64
	for part, ok := range rn.done[s.id] {
		if ok {
			n += int64(rn.results[s.id].Parts[part].Len())
		}
	}
	return n
}

// finish ends a task (sp) that computed partition part of s, or the
// restore (sp) that read it back from a checkpoint: unless sp carries an
// error it commits b as the partition, then it emits sp and, for a computed
// materialization point, hands the partition to the asynchronous checkpoint
// writer. The batch must be plain (unpooled) — it becomes a shared,
// immutable stage result that consumers and the async checkpoint encoder
// read concurrently. It may be a view: a selection vector or column subset
// over table storage or over the stage's own committed inputs.
func (rn *run) finish(s *stage, part int, b *engine.Batch, sp obs.Span) {
	if sp.Err == "" {
		if b.Len() == 0 {
			b = nil // canonical empty-partition representation
		}
		sp.Rows = int64(b.Len())
		rn.mu.Lock()
		if rn.done[s.id][part] {
			sp.Err = errSuperseded
		} else {
			rn.results[s.id] = rn.results[s.id].WithPart(part, b, false)
			rn.done[s.id][part] = true
		}
		rn.mu.Unlock()
	}
	rn.events.emit(sp)
	if sp.Err == "" && sp.Kind == obs.KindTask && s.checkpoint {
		rn.writer.enqueue(s, part, b, rn.cfg.Nodes)
	}
}

// inputResults returns the current results of the stage's inputs — the source
// operator's, in its input order, then the sides', in chain order — and
// whether every input partition this stage partition reads is present (a
// concurrent recovery may have dropped some); ready=false means the caller
// must re-ensure the inputs.
func (rn *run) inputResults(s *stage, part int) (inputs []*engine.BatchResult, ready bool) {
	rn.mu.Lock()
	defer rn.mu.Unlock()
	for _, d := range s.deps {
		if !rn.doneLocked(d, part, s.kind == srcWide) {
			return nil, false
		}
	}
	for _, d := range s.sides {
		if !rn.doneLocked(d, part, true) {
			return nil, false
		}
	}
	inputs = make([]*engine.BatchResult, 0, len(s.deps)+len(s.sides))
	for _, d := range s.deps {
		inputs = append(inputs, rn.results[d.id])
	}
	for _, d := range s.sides {
		inputs = append(inputs, rn.results[d.id])
	}
	return inputs, true
}

// doneLocked reports whether partition part of d — every partition when all
// is set — is committed (rn.mu held).
func (rn *run) doneLocked(d *stage, part int, all bool) bool {
	if all {
		return !slices.Contains(rn.done[d.id], false)
	}
	return rn.done[d.id][part]
}
