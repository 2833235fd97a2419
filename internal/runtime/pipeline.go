package runtime

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"ftpde/internal/engine"
	"ftpde/internal/obs"
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

// die emits the injected death of the node computing (op, part) on attempt
// n and returns the nodeFailure the stage worker resolves.
func (rn *run) die(op engine.Operator, part, n int) *nodeFailure {
	now := time.Now()
	rn.events.emit(obs.Span{Kind: obs.KindFailure, Name: op.Name(), Part: part, Attempt: n, Start: now, End: now})
	return &nodeFailure{op: op.Name(), part: part}
}

// task is one operator's share of a stage-partition attempt.
type task struct {
	op   engine.Operator
	n    int                // attempt number
	fail bool               // the injector kills this attempt
	kern engine.BatchKernel // chained operators only, fresh per attempt
	seen int                // batches received (chained operators)
}

// runPartition computes one partition of a stage, start to finish, on the
// pool worker that holds the slot: the operators of a collapsed stage run back
// to back, which is what the cost model prices (tr(c) = Σ tr(o) · CONST_pipe).
//
// Every operator's attempt number and failure decision are taken up front. A
// stage that is just its source commits the batch ComputeBatch returned — no
// slicing or copy, possibly a view over table or input storage. A chained
// stage cuts the source's batch into BatchSize slices, pushes each through the
// chained operators' kernels in order, flushes the kernels in order at end of
// stream (a flushed batch goes through the kernels after it) and concatenates
// what fell out of the last kernel once, at its exact size. A chained join's
// kernel probes each slice against its side — inputs holds the source's
// inputs, then one side result per chained join — so an intermediate join
// output exists one slice at a time. Every consumed batch is released into one
// arena Local, so buffers recycle slice over slice.
//
// The kill points are part of the schedule: a killed source dies with the work
// done — after handing over its first slice when it streams, with nothing
// handed over when it is the whole stage; a killed chained operator dies on
// receiving its second batch, or at end of stream when the stream was shorter.
// The first death ends the attempt (batches in flight leak to the GC, which is
// always safe), and the source's comes first.
func (rn *run) runPartition(ctx context.Context, s *stage, part int, inputs []*engine.BatchResult) (*engine.Batch, error) {
	tasks := make([]task, len(s.ops))
	for i, op := range s.ops {
		n := rn.attempts.take(op.Name(), part)
		if n > maxAttemptsPerPartition {
			return nil, fmt.Errorf("runtime: partition %d of %s exceeded %d attempts", part, op.Name(), maxAttemptsPerPartition)
		}
		tasks[i] = task{op: op, n: n, fail: rn.cfg.Injector.FailCompute(op.Name(), part, n)}
	}

	src := &tasks[0]
	// buildStages admitted only batch-native operators (engine.CheckColumnar).
	b, err := src.op.(engine.BatchOperator).ComputeBatch(part, inputs)
	if err != nil {
		return nil, err
	}
	if len(tasks) == 1 {
		if src.fail {
			return nil, rn.die(src.op, part, src.n)
		}
		return b, ctx.Err()
	}

	loc := rn.cfg.Arena.Local()
	defer loc.Close()
	sides := inputs[len(src.op.Inputs()):]
	for i := 1; i < len(tasks); i++ {
		// buildStages chained only operators that have a kernel, and one side
		// per join.
		if j, ok := tasks[i].op.(*engine.HashJoin); ok {
			tasks[i].kern, sides = j.JoinKernel(sides[0], loc), sides[1:]
		} else {
			tasks[i].kern, _ = engine.NewOperatorKernelLocal(tasks[i].op, loc)
		}
	}
	var outs []*engine.Batch
	rows := 0
	// push hands b to the chained operators from tasks[from] on. A kernel owns
	// the batch it consumes; what falls out of the last one is collected.
	push := func(from int, b *engine.Batch) error {
		for i := from; i < len(tasks); i++ {
			t := &tasks[i]
			if t.fail && t.seen == 1 {
				return rn.die(t.op, part, t.n)
			}
			t.seen++
			res, err := t.kern.Process(b)
			if err != nil {
				return err
			}
			rn.cfg.Metrics.Batches.Add(1)
			if res.Len() == 0 {
				res.Release(loc)
				return nil
			}
			b = res
		}
		outs = append(outs, b)
		rows += b.Len()
		return nil
	}

	// Slices share the source batch's column storage (which may itself be a
	// shared table partition or committed input), so only their shells draw
	// from the arena; the storage is never released downstream.
	total, size := b.Len(), rn.cfg.BatchSize
	for start := 0; start < total && !(src.fail && start > 0); start += size {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		rn.cfg.Metrics.Batches.Add(1)
		if err := push(1, b.SliceLocal(start, min(start+size, total), loc)); err != nil {
			return nil, err
		}
	}
	if src.fail {
		return nil, rn.die(src.op, part, src.n)
	}
	for i := 1; i < len(tasks); i++ {
		t := &tasks[i]
		if t.fail {
			return nil, rn.die(t.op, part, t.n)
		}
		fb, err := t.kern.Flush()
		if err != nil {
			return nil, err
		}
		if fb.Len() > 0 {
			if err := push(i+1, fb); err != nil {
				return nil, err
			}
		}
	}
	bb := engine.NewBatchBuilder(s.terminal().OutSchema())
	bb.Grow(rows)
	for _, ob := range outs {
		bb.Append(ob)
		ob.Release(loc)
	}
	return bb.Finish(), ctx.Err()
}
