package runtime

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"ftpde/internal/engine"
	"ftpde/internal/obs"
	"ftpde/internal/obs/prof"
)

// nodeFailure reports an injected node failure while computing op's
// partition — the runtime analogue of engine.restartFailure.
type nodeFailure struct {
	op   string
	part int
}

func (e *nodeFailure) Error() string {
	return fmt.Sprintf("runtime: node %d failed while computing %s", e.part, e.op)
}

func asNodeFailure(err error) (*nodeFailure, bool) {
	var nf *nodeFailure
	if errors.As(err, &nf) {
		return nf, true
	}
	return nil, false
}

// channelDepth is the buffering of inter-operator channels: one batch in
// flight while the producer fills the next, so neighbours overlap without
// queueing more than a double buffer per hop.
const channelDepth = 2

// maxAttemptsPerPartition bounds retries of one (operator, partition) pair,
// matching the reference Coordinator's limit.
const maxAttemptsPerPartition = 1000

// attempts tracks per-(operator, partition) attempt numbers across the whole
// query (including coarse restarts), so scripted failure traces advance.
type attempts struct {
	mu sync.Mutex
	m  map[string]int
}

func newAttempts() *attempts { return &attempts{m: make(map[string]int)} }

// take returns the current attempt number for (op, part) and advances it.
func (a *attempts) take(op string, part int) int {
	key := fmt.Sprintf("%s/%d", op, part)
	a.mu.Lock()
	defer a.mu.Unlock()
	n := a.m[key]
	a.m[key] = n + 1
	return n
}

// peek returns the attempt number the next take would hand out, without
// advancing it — the task span's attempt label.
func (a *attempts) peek(op string, part int) int {
	key := fmt.Sprintf("%s/%d", op, part)
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.m[key]
}

// runPipeline executes one partition of a stage as a chain of goroutines
// connected by buffered channels of typed columnar batches: the source
// computes its output and streams it batch-at-a-time; every chained operator
// transforms batches concurrently through a fresh kernel; the calling
// goroutine is the sink, draining the stream column-wise into one committed
// batch. Sending a batch down a channel transfers ownership: each stage of
// the chain releases consumed batches into its own arena Local, so buffers
// recycle batch over batch. An injected failure kills the worker mid-stream
// by cancelling the partition context, which tears down the whole chain
// (batches in flight then simply leak to the GC, which is always safe).
func (rn *run) runPipeline(ctx context.Context, s *stage, part int, inputs []*engine.BatchResult) (*engine.Batch, error) {
	pctx, cancel := context.WithCancel(ctx)
	defer cancel()

	nops := len(s.ops)
	errCh := make(chan error, nops)
	ch := make(chan *engine.Batch, channelDepth)
	go func() { errCh <- rn.runSource(pctx, cancel, s, part, inputs, ch) }()
	in := ch
	for i := 1; i < len(s.ops); i++ {
		out := make(chan *engine.Batch, channelDepth)
		go func(op engine.Operator, in <-chan *engine.Batch, out chan<- *engine.Batch) {
			errCh <- rn.runChainOp(pctx, cancel, op, part, in, out)
		}(s.ops[i], in, out)
		in = out
	}

	loc := rn.cfg.Arena.Local()
	defer loc.Close()
	bb := engine.NewBatchBuilder(s.terminal().OutSchema())
	for open := true; open; {
		select {
		case b, ok := <-in:
			if !ok {
				open = false
				break
			}
			bb.Append(b)
			b.Release(loc)
		case <-pctx.Done():
			open = false
		}
	}

	// The first non-cancellation error wins; node failures outrank the
	// cancellations they caused.
	var firstErr error
	var firstFailure *nodeFailure
	for i := 0; i < nops; i++ {
		err := <-errCh
		if err == nil || errors.Is(err, context.Canceled) {
			continue
		}
		if nf, ok := asNodeFailure(err); ok {
			if firstFailure == nil {
				firstFailure = nf
			}
			continue
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	if firstFailure != nil {
		return nil, firstFailure
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return bb.Finish(), nil
}

// runSource computes the stage's source operator for one partition and
// streams the result in batches. When the failure injector fires for this
// attempt, the worker emits its first batch and then dies mid-stream. Its
// failure events surface as a nodeFailure the stage worker resolves.
//
// Pipeline chain goroutines do not inherit the stage worker's pprof labels
// (labels are goroutine-local), so each hop re-applies the query and stage
// labels carried by pctx and adds its own op/attempt pair.
func (rn *run) runSource(pctx context.Context, cancel context.CancelFunc, s *stage, part int, inputs []*engine.BatchResult, out chan<- *engine.Batch) error {
	op := s.source()
	n := rn.attempts.take(op.Name(), part)
	if n > maxAttemptsPerPartition {
		cancel()
		return fmt.Errorf("runtime: partition %d of %s exceeded %d attempts", part, op.Name(), maxAttemptsPerPartition)
	}
	var err error
	prof.Do(pctx, prof.Labels{Op: op.Name(), Attempt: prof.AttemptLabel(n)}, func(pctx context.Context) {
		err = rn.sourceStream(pctx, cancel, s, part, n, inputs, out)
	})
	return err
}

// sourceStream is runSource's labeled body: compute, slice, and stream the
// source partition (dying mid-stream when the injector fired for attempt n).
//
//lint:spanpair recoverFine
func (rn *run) sourceStream(pctx context.Context, cancel context.CancelFunc, s *stage, part, n int, inputs []*engine.BatchResult, out chan<- *engine.Batch) error {
	op := s.source()
	fail := rn.cfg.Injector.FailCompute(op.Name(), part, n)
	// buildStages admitted only batch-native operators (engine.CheckColumnar).
	b, err := op.(engine.BatchOperator).ComputeBatch(part, inputs)
	if err != nil {
		cancel()
		return err
	}
	total := b.Len()
	// Slices share the source batch's column storage (which may itself be a
	// shared table partition or committed input), so only their shells draw
	// from the arena; the storage is never released downstream.
	loc := rn.cfg.Arena.Local()
	defer loc.Close()
	size := rn.cfg.BatchSize
	for start, i := 0, 0; start < total; start, i = start+size, i+1 {
		if fail && i >= 1 {
			rn.tracer.Event(obs.KindFailure, op.Name(), part, n)
			rn.metrics.Ledger().Fail(op.Name(), part)
			cancel()
			return &nodeFailure{op: op.Name(), part: part}
		}
		end := start + size
		if end > total {
			end = total
		}
		rn.metrics.Batches.Add(1)
		select {
		case out <- b.SliceLocal(start, end, loc):
		case <-pctx.Done():
			return pctx.Err()
		}
	}
	if fail {
		rn.tracer.Event(obs.KindFailure, op.Name(), part, n)
		rn.metrics.Ledger().Fail(op.Name(), part)
		cancel()
		return &nodeFailure{op: op.Name(), part: part}
	}
	close(out)
	return nil
}

// runChainOp transforms batches for one pipelined operator through a fresh
// kernel instance (stateful kernels like partition-wise aggregation flush
// their state at end of stream). A scripted failure kills the worker after
// its first processed batch (or at stream end when the stream is shorter),
// cancelling the partition context. Its failure events surface as a
// nodeFailure the stage worker resolves.
//
// Like runSource, the chain hop re-applies pctx's inherited labels with its
// own operator and attempt before doing any work.
func (rn *run) runChainOp(pctx context.Context, cancel context.CancelFunc, op engine.Operator, part int, in <-chan *engine.Batch, out chan<- *engine.Batch) error {
	n := rn.attempts.take(op.Name(), part)
	if n > maxAttemptsPerPartition {
		cancel()
		return fmt.Errorf("runtime: partition %d of %s exceeded %d attempts", part, op.Name(), maxAttemptsPerPartition)
	}
	var err error
	prof.Do(pctx, prof.Labels{Op: op.Name(), Attempt: prof.AttemptLabel(n)}, func(pctx context.Context) {
		err = rn.chainStream(pctx, cancel, op, part, n, in, out)
	})
	return err
}

// chainStream is runChainOp's labeled body: drive the kernel batch by batch
// until end of stream, flush, and die on the scripted attempt.
//
//lint:spanpair recoverFine
func (rn *run) chainStream(pctx context.Context, cancel context.CancelFunc, op engine.Operator, part, n int, in <-chan *engine.Batch, out chan<- *engine.Batch) error {
	// The kernel owns every batch it consumes: it recycles input buffers into
	// this goroutine's Local and draws its outputs from the same freelists,
	// so a steady-state chain reuses one working set of buffers.
	loc := rn.cfg.Arena.Local()
	defer loc.Close()
	kern, ok := engine.NewOperatorKernelLocal(op, loc)
	if !ok {
		cancel()
		return fmt.Errorf("runtime: operator %s has no batch kernel", op.Name())
	}
	fail := rn.cfg.Injector.FailCompute(op.Name(), part, n)
	processed := 0
	for {
		select {
		case b, chOpen := <-in:
			if !chOpen {
				if fail {
					rn.tracer.Event(obs.KindFailure, op.Name(), part, n)
					rn.metrics.Ledger().Fail(op.Name(), part)
					cancel()
					return &nodeFailure{op: op.Name(), part: part}
				}
				fb, err := kern.Flush()
				if err != nil {
					cancel()
					return err
				}
				if fb != nil && fb.Len() > 0 {
					select {
					case out <- fb:
					case <-pctx.Done():
						return pctx.Err()
					}
				}
				close(out)
				return nil
			}
			if fail && processed >= 1 {
				rn.tracer.Event(obs.KindFailure, op.Name(), part, n)
				rn.metrics.Ledger().Fail(op.Name(), part)
				cancel()
				return &nodeFailure{op: op.Name(), part: part}
			}
			res, err := kern.Process(b)
			if err != nil {
				cancel()
				return err
			}
			processed++
			rn.metrics.Batches.Add(1)
			if res.Len() == 0 {
				res.Release(loc)
				continue
			}
			select {
			case out <- res:
			case <-pctx.Done():
				return pctx.Err()
			}
		case <-pctx.Done():
			return pctx.Err()
		}
	}
}
