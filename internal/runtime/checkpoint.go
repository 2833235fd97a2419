package runtime

import (
	"context"
	"fmt"
	"sync"
	"time"

	"ftpde/internal/engine"
	"ftpde/internal/obs"
	"ftpde/internal/obs/metrics"
	"ftpde/internal/obs/prof"
)

// checkpointWriter persists materialized partitions to the fault-tolerant
// store off the stage workers' critical path: every enqueued partition gets
// one persist call on a goroutine of its own — serialize to block-file bytes
// (per-column compression included), write, settle. flush is the barrier:
// recovery and query completion wait for all enqueued writes to land before
// reading the store.
type checkpointWriter struct {
	store    blockSink
	metrics  *Metrics
	tracer   *obs.Tracer
	progress *obs.Progress
	// pctx carries the query-level pprof labels; persist re-applies them with
	// the checkpointed operator on top, so asynchronous checkpoint CPU joins
	// to the operator that caused it.
	pctx context.Context

	// encMu and writeMu are the double buffer, taken hand over hand: encMu is
	// held from the start of an encode until that partition owns writeMu,
	// writeMu for the store write. Encoding partition k overlaps the write of
	// partition k-1, and at most one encoded partition waits while another is
	// on disk.
	encMu, writeMu sync.Mutex

	mu      sync.Mutex
	cond    *sync.Cond
	pending int
	written map[partKey]bool
	closed  bool
	// err latches the first encode or store write failure; flush and close
	// surface it so the query result is never reported durable on top of a
	// torn checkpoint.
	err error
}

// blockSink is the half of engine.EncodedStore the writer uses.
type blockSink interface {
	PutEncoded(op string, part int, data []byte, parts int) error
}

func newCheckpointWriter(pctx context.Context, store blockSink, metrics *Metrics, tracer *obs.Tracer, progress *obs.Progress) *checkpointWriter {
	w := &checkpointWriter{
		store:    store,
		metrics:  metrics,
		tracer:   tracer,
		progress: progress,
		pctx:     pctx,
		written:  make(map[partKey]bool),
	}
	w.cond = sync.NewCond(&w.mu)
	return w
}

// enqueue schedules one partition write. It returns false when the partition
// was already written (or enqueued) by this writer, so callers can keep
// materialization counters exact across recovery re-commits, and after close.
// The batch must be a committed (immutable, unpooled) result — persist reads
// it asynchronously.
func (w *checkpointWriter) enqueue(op string, part int, b *engine.Batch, parts int) bool {
	key := partKey{op, part}
	w.mu.Lock()
	if w.closed || w.written[key] {
		w.mu.Unlock()
		return false
	}
	w.written[key] = true
	w.pending++
	w.mu.Unlock()
	go w.persist(op, part, b, parts)
	return true
}

// persist is one checkpoint, start to finish, under the checkpointed
// operator's labels: serialize, write, settle. Its goroutine ends when the
// write has settled; flush and close wait for it through the pending count.
func (w *checkpointWriter) persist(op string, part int, b *engine.Batch, parts int) {
	prof.Do(w.pctx, prof.Labels{Stage: op, Op: op}, func(context.Context) {
		err := w.write(op, part, b, parts)
		w.mu.Lock()
		if err != nil && w.err == nil {
			w.err = fmt.Errorf("runtime: checkpoint %s/%d: %w", op, part, err)
		}
		w.pending--
		w.cond.Broadcast()
		w.mu.Unlock()
	})
}

// write serializes one partition, typed vectors to block bytes, and hands the
// block to the store.
func (w *checkpointWriter) write(op string, part int, b *engine.Batch, parts int) error {
	w.encMu.Lock()
	data, err := engine.EncodeBlock(b)
	if err != nil {
		w.encMu.Unlock()
		return err
	}
	w.writeMu.Lock()
	w.encMu.Unlock()
	defer w.writeMu.Unlock()

	sp := w.tracer.Begin(obs.KindCheckpoint, op, part, -1)
	defer sp.End()
	start := time.Now()
	if err = w.store.PutEncoded(op, part, data, parts); err != nil {
		sp.Fail(err.Error())
		return err
	}
	w.metrics.ObserveCheckpointWrite(metrics.RuntimePipelined, time.Since(start))
	w.metrics.CheckpointParts.Add(1)
	n := int64(len(data))
	w.metrics.CheckpointBytes.Add(n)
	w.progress.AddCheckpointBytesFor(op, n)
	sp.SetBytes(n)
	sp.SetRows(int64(b.Len()))
	return nil
}

// flush blocks until every enqueued write has reached the store and returns
// the first write error, if any. The time the caller actually spent blocked
// is the checkpoint stall, booked to the ledger against (op, part); a flush
// that finds nothing pending books nothing and does not read the clock.
func (w *checkpointWriter) flush(op string, part int) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.pending > 0 {
		start := time.Now()
		for w.pending > 0 {
			w.cond.Wait()
		}
		w.metrics.Ledger().Attribute(metrics.CauseCheckpointStall, op, part, time.Since(start))
	}
	return w.err
}

// close waits for every enqueued write, refuses further ones, and returns the
// first write error.
func (w *checkpointWriter) close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.pending > 0 {
		w.cond.Wait()
	}
	w.closed = true
	return w.err
}
