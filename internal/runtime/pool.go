package runtime

import (
	"context"
	"errors"
	goruntime "runtime"
	"sync"
)

// ErrPoolClosed is returned by Pool.Acquire once the pool has begun shutting
// down. Queries racing with a service drain observe it as an ordinary
// execution error instead of hanging on a dead semaphore.
var ErrPoolClosed = errors.New("runtime: worker pool closed")

// Pool is a bounded worker pool shared by concurrently executing queries: the
// multi-tenant service runs every stage-partition worker of every in-flight
// query on one Pool, so total execution parallelism is capped cluster-wide
// rather than per query. A Runtime without an injected Pool allocates a
// private one, preserving the original per-query MaxWorkers semantics.
//
// The pool also measures its own contention: Utilization folds held slots
// and workers parked in Acquire into one load signal, which the service
// exports as a gauge.
//
// Shutdown is graceful by construction: Close stops admission immediately
// (parked and future Acquires fail with ErrPoolClosed) but blocks until every
// held slot — including those of *other* queries still finishing or
// recovering from failures — has been released.
type Pool struct {
	sem  chan struct{}
	stop chan struct{}

	mu      sync.Mutex
	busy    int
	waiting int
	closed  bool
	drained chan struct{}
}

// NewPool returns a pool with the given number of worker slots
// (GOMAXPROCS when non-positive).
func NewPool(maxWorkers int) *Pool {
	if maxWorkers <= 0 {
		maxWorkers = goruntime.GOMAXPROCS(0)
	}
	return &Pool{
		sem:     make(chan struct{}, maxWorkers),
		stop:    make(chan struct{}),
		drained: make(chan struct{}),
	}
}

// Acquire blocks until a worker slot is free, the context is cancelled, or
// the pool is closed. Every successful Acquire must be paired with Release.
func (p *Pool) Acquire(ctx context.Context) error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return ErrPoolClosed
	}
	p.waiting++
	p.mu.Unlock()

	var err error
	select {
	case p.sem <- struct{}{}:
	case <-p.stop:
		err = ErrPoolClosed
	case <-ctx.Done():
		err = ctx.Err()
	}

	p.mu.Lock()
	p.waiting--
	if err == nil {
		if p.closed {
			// Lost the race with Close: the slot must not keep the drain
			// waiting, and the caller must not start new work.
			err = ErrPoolClosed
			p.mu.Unlock()
			<-p.sem
			return err
		}
		p.busy++
	}
	p.mu.Unlock()
	return err
}

// Release returns a slot acquired with Acquire.
func (p *Pool) Release() {
	p.mu.Lock()
	p.busy--
	if p.closed && p.busy == 0 {
		p.signalDrainedLocked()
	}
	p.mu.Unlock()
	<-p.sem
}

func (p *Pool) signalDrainedLocked() {
	select {
	case <-p.drained:
	default:
		close(p.drained)
	}
}

// Close stops admission and waits for the pool to drain: in-flight stage
// workers of every query sharing the pool run to completion (or recovery)
// and release their slots; only then does Close return. Idempotent — a
// second Close just waits for the same drain.
func (p *Pool) Close() {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		close(p.stop)
		if p.busy == 0 {
			p.signalDrainedLocked()
		}
	}
	p.mu.Unlock()
	<-p.drained
}

// Capacity returns the number of worker slots.
func (p *Pool) Capacity() int { return cap(p.sem) }

// Utilization returns the pool's instantaneous demand (held slots plus
// parked acquirers) relative to capacity. Values above 1 mean the pool is
// oversubscribed.
func (p *Pool) Utilization() float64 {
	p.mu.Lock()
	demand := p.busy + p.waiting
	p.mu.Unlock()
	return float64(demand) / float64(cap(p.sem))
}
