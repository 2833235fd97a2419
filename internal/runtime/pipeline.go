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
	m  map[partKey]int
}

// partKey identifies one partition of one operator's output.
type partKey struct {
	op   string
	part int
}

func newAttempts() *attempts { return &attempts{m: make(map[partKey]int)} }

// take returns the current attempt number for (op, part) and advances it.
func (a *attempts) take(op string, part int) int {
	key := partKey{op, part}
	a.mu.Lock()
	defer a.mu.Unlock()
	n := a.m[key]
	a.m[key] = n + 1
	return n
}

// peek returns the attempt number the next take would hand out, without
// advancing it — the task span's attempt label.
func (a *attempts) peek(op string, part int) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.m[partKey{op, part}]
}

// attempt takes op's next attempt number for the partition, enforces the retry
// bound, and runs body under the attempt's pprof labels. Labels are
// goroutine-local, so every goroutine that works for an operator — the stage
// worker of a single-operator stage, each hop of a pipeline — re-applies the
// query and stage labels ctx carries with its own op/attempt pair on top.
func (rn *run) attempt(ctx context.Context, op engine.Operator, part int, body func(ctx context.Context, n int) error) error {
	n := rn.attempts.take(op.Name(), part)
	if n > maxAttemptsPerPartition {
		return fmt.Errorf("runtime: partition %d of %s exceeded %d attempts", part, op.Name(), maxAttemptsPerPartition)
	}
	var err error
	prof.Do(ctx, prof.Labels{Op: op.Name(), Attempt: prof.AttemptLabel(n)}, func(ctx context.Context) {
		err = body(ctx, n)
	})
	return err
}

// die records the injected death of the node computing (op, part) on attempt
// n — one failure event, one open ledger entry — and returns the nodeFailure
// the stage worker resolves.
//
//lint:spanpair recoverFine
func (rn *run) die(op engine.Operator, part, n int) *nodeFailure {
	rn.tracer.Event(obs.KindFailure, op.Name(), part, n)
	rn.metrics.Ledger().Fail(op.Name(), part)
	return &nodeFailure{op: op.Name(), part: part}
}

// runPartition computes one partition of a stage. A stage that is just its
// source has nothing to stream to, so the batch ComputeBatch returned is the
// partition — no goroutine, channel or copy, and possibly a view over table
// or input storage. When the failure injector fires for the attempt the node
// dies with the work done and nothing handed over, the point at which a
// streaming source dies. A chained stage runs as a pipeline.
func (rn *run) runPartition(ctx context.Context, s *stage, part int, inputs []*engine.BatchResult) (*engine.Batch, error) {
	if len(s.ops) > 1 {
		return rn.runPipeline(ctx, s, part, inputs)
	}
	op := s.source()
	var b *engine.Batch
	err := rn.attempt(ctx, op, part, func(_ context.Context, n int) (err error) {
		fail := rn.cfg.Injector.FailCompute(op.Name(), part, n)
		// buildStages admitted only batch-native operators (engine.CheckColumnar).
		b, err = op.(engine.BatchOperator).ComputeBatch(part, inputs)
		if err == nil && fail {
			err = rn.die(op, part, n)
		}
		return err
	})
	if err == nil {
		err = ctx.Err()
	}
	return b, err
}

// runPipeline executes one partition of a chained stage as a chain of
// goroutines connected by buffered channels of typed columnar batches: the
// source computes its output and streams it batch-at-a-time; every chained
// operator transforms batches concurrently through a fresh kernel; the calling
// goroutine is the sink, collecting the stream and concatenating it once, at
// its exact size, into the committed batch. Sending a batch down a channel
// transfers ownership: each stage of the chain releases consumed batches into
// its own arena Local, so buffers recycle batch over batch. A hop that fails —
// an injected death mid-stream, or a real error — cancels the partition
// context, which tears down the whole chain (batches in flight then simply
// leak to the GC, which is always safe).
func (rn *run) runPipeline(ctx context.Context, s *stage, part int, inputs []*engine.BatchResult) (*engine.Batch, error) {
	pctx, cancel := context.WithCancel(ctx)
	defer cancel()

	nops := len(s.ops)
	errCh := make(chan error, nops)
	hop := func(op engine.Operator, body func(pctx context.Context, n int) error) {
		err := rn.attempt(pctx, op, part, body)
		if err != nil {
			cancel()
		}
		errCh <- err
	}
	src := make(chan *engine.Batch, channelDepth)
	go hop(s.source(), func(pctx context.Context, n int) error {
		return rn.sourceStream(pctx, s.source(), part, n, inputs, src)
	})
	var in <-chan *engine.Batch = src
	for _, op := range s.ops[1:] {
		from, out := in, make(chan *engine.Batch, channelDepth)
		go hop(op, func(pctx context.Context, n int) error {
			return rn.chainStream(pctx, op, part, n, from, out)
		})
		in = out
	}

	var outs []*engine.Batch
	total := 0
	for open := true; open; {
		select {
		case b, ok := <-in:
			if !ok {
				open = false
				break
			}
			outs = append(outs, b)
			total += b.Len()
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
	loc := rn.cfg.Arena.Local()
	defer loc.Close()
	bb := engine.NewBatchBuilder(s.terminal().OutSchema())
	bb.Grow(total)
	for _, b := range outs {
		bb.Append(b)
		b.Release(loc)
	}
	return bb.Finish(), nil
}

// sourceStream computes the stage's source operator for one partition and
// streams the result in batches. When the failure injector fired for attempt
// n, the worker emits its first batch and then dies mid-stream.
func (rn *run) sourceStream(pctx context.Context, op engine.Operator, part, n int, inputs []*engine.BatchResult, out chan<- *engine.Batch) error {
	fail := rn.cfg.Injector.FailCompute(op.Name(), part, n)
	// buildStages admitted only batch-native operators (engine.CheckColumnar).
	b, err := op.(engine.BatchOperator).ComputeBatch(part, inputs)
	if err != nil {
		return err
	}
	total := b.Len()
	// Slices share the source batch's column storage (which may itself be a
	// shared table partition or committed input), so only their shells draw
	// from the arena; the storage is never released downstream.
	loc := rn.cfg.Arena.Local()
	defer loc.Close()
	size := rn.cfg.BatchSize
	for start, i := 0, 0; start < total && !(fail && i >= 1); start, i = start+size, i+1 {
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
		return rn.die(op, part, n)
	}
	close(out)
	return nil
}

// chainStream transforms batches for one pipelined operator through a fresh
// kernel instance (stateful kernels like partition-wise aggregation flush
// their state at end of stream). A scripted failure kills the worker after
// its first processed batch (or at stream end when the stream is shorter).
func (rn *run) chainStream(pctx context.Context, op engine.Operator, part, n int, in <-chan *engine.Batch, out chan<- *engine.Batch) error {
	// The kernel owns every batch it consumes: it recycles input buffers into
	// this goroutine's Local and draws its outputs from the same freelists,
	// so a steady-state chain reuses one working set of buffers.
	loc := rn.cfg.Arena.Local()
	defer loc.Close()
	kern, ok := engine.NewOperatorKernelLocal(op, loc)
	if !ok {
		return fmt.Errorf("runtime: operator %s has no batch kernel", op.Name())
	}
	fail := rn.cfg.Injector.FailCompute(op.Name(), part, n)
	processed := 0
	for {
		select {
		case b, chOpen := <-in:
			if fail && (!chOpen || processed >= 1) {
				return rn.die(op, part, n)
			}
			if !chOpen {
				fb, err := kern.Flush()
				if err != nil {
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
			res, err := kern.Process(b)
			if err != nil {
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
