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

// checkpointReq is one partition to persist, carried as the committed batch so
// the encode stage serializes straight from columnar storage.
type checkpointReq struct {
	op    string
	part  int
	b     *engine.Batch
	parts int
}

// encodedReq is one partition already serialized to block-file bytes, waiting
// for the write stage. rows is the decoded fallback for stores that cannot
// accept pre-encoded bytes.
type encodedReq struct {
	op    string
	part  int
	data  []byte
	rows  []engine.Row
	nrows int
	parts int
}

// checkpointWriter persists materialized partitions to the fault-tolerant
// store off the pipeline's critical path, as a two-stage pipeline of its own:
// an encode goroutine serializes each partition to block-file bytes
// (per-column compression included) while a write goroutine persists the
// previous partition's bytes — encoding partition k overlaps the disk write
// of partition k-1, double-buffered through a one-slot channel. flush() is
// the barrier: recovery and query completion wait for all enqueued writes to
// land before reading the store.
type checkpointWriter struct {
	store    engine.Store
	metrics  *Metrics
	tracer   *obs.Tracer
	progress *obs.Progress
	// pctx carries the query-level pprof labels; the encode and write stages
	// re-apply them per request with the checkpointed operator on top, so
	// asynchronous checkpoint CPU joins to the operator that caused it.
	pctx    context.Context
	queue   chan checkpointReq
	writeCh chan encodedReq
	// stop unblocks enqueuers and terminates both stage goroutines once the
	// writer is closed, so no caller can park forever on a full queue.
	stop chan struct{}

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

func newCheckpointWriter(pctx context.Context, store engine.Store, metrics *Metrics, tracer *obs.Tracer, progress *obs.Progress) *checkpointWriter {
	w := &checkpointWriter{
		store:    store,
		metrics:  metrics,
		tracer:   tracer,
		progress: progress,
		pctx:     pctx,
		queue:    make(chan checkpointReq, 64),
		writeCh:  make(chan encodedReq, 1),
		stop:     make(chan struct{}),
		written:  make(map[partKey]bool),
	}
	w.cond = sync.NewCond(&w.mu)
	//lint:ignore chanproto encodeLoop's writeCh send always completes: close() drains the write stage before the stop channel fires (see the ctxleak ignore at the send site)
	go w.encodeLoop()
	go w.writeLoop()
	return w
}

// encodeLoop is the first stage: it serializes each queued partition to the
// exact bytes the store's file format uses and hands them to the write stage.
// The one-slot writeCh is the double buffer — at most one encoded partition
// waits while another is on disk.
func (w *checkpointWriter) encodeLoop() {
	for {
		select {
		case req := <-w.queue:
			w.encode(req)
		case <-w.stop:
			// Drain requests that raced with close; flush has already
			// ensured the common case is an empty queue.
			for {
				select {
				case req := <-w.queue:
					w.encode(req)
				default:
					close(w.writeCh)
					return
				}
			}
		}
	}
}

// encode serializes one partition and forwards it to the write stage; encode
// failures settle the request immediately. The serialization CPU runs under
// the checkpointed operator's label.
func (w *checkpointWriter) encode(req checkpointReq) {
	var data []byte
	var rows []engine.Row
	var err error
	prof.Do(w.pctx, prof.Labels{Stage: req.op, Op: req.op}, func(context.Context) {
		if req.b != nil {
			rows = req.b.ToRows()
		}
		data, err = engine.EncodeBlockBytes(rows)
	})
	if err != nil {
		w.settle(fmt.Errorf("runtime: checkpoint %s/%d: %w", req.op, req.part, err))
		return
	}
	er := encodedReq{op: req.op, part: req.part, data: data, rows: rows, nrows: req.b.Len(), parts: req.parts}
	// The send blocks until the write stage frees its slot; stop is not
	// selected because close() always drains pending requests before the
	// stage goroutines exit, so the send cannot park forever.
	//lint:ignore ctxleak close() drains the write stage before stopping, so this send always completes
	w.writeCh <- er
}

// writeLoop is the second stage: it persists encoded partitions in arrival
// order and settles their pending counts.
func (w *checkpointWriter) writeLoop() {
	for req := range w.writeCh {
		w.write(req)
	}
}

// write persists one encoded partition and settles its pending count.
func (w *checkpointWriter) write(req encodedReq) {
	prof.Do(w.pctx, prof.Labels{Stage: req.op, Op: req.op}, func(context.Context) {
		w.writeLabeled(req)
	})
}

func (w *checkpointWriter) writeLabeled(req encodedReq) {
	sp := w.tracer.Begin(obs.KindCheckpoint, req.op, req.part, -1)
	start := time.Now()
	var err error
	if es, ok := w.store.(engine.EncodedStore); ok {
		err = es.PutEncoded(req.op, req.part, req.data, req.parts)
	} else {
		err = w.store.Put(req.op, req.part, req.rows, req.parts)
	}
	if err != nil {
		sp.Fail(err.Error())
		sp.End()
		w.settle(fmt.Errorf("runtime: checkpoint %s/%d: %w", req.op, req.part, err))
		return
	}
	w.metrics.ObserveCheckpointWrite(metrics.RuntimePipelined, time.Since(start))
	w.metrics.CheckpointParts.Add(1)
	n := int64(len(req.data))
	w.metrics.CheckpointBytes.Add(n)
	w.progress.AddCheckpointBytesFor(req.op, n)
	sp.SetBytes(n)
	sp.SetRows(int64(req.nrows))
	sp.End()
	w.settle(nil)
}

// settle decrements the pending count, latching err when it is the first
// failure, and wakes flushers.
func (w *checkpointWriter) settle(err error) {
	w.mu.Lock()
	if err != nil && w.err == nil {
		w.err = err
	}
	w.pending--
	w.cond.Broadcast()
	w.mu.Unlock()
}

// enqueue schedules one partition write. It returns false when the partition
// was already written (or enqueued) by this writer, so callers can keep
// materialization counters exact across recovery re-commits. The batch must
// be a committed (immutable, unpooled) result — the encode stage reads it
// asynchronously.
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
	select {
	case w.queue <- checkpointReq{op: op, part: part, b: b, parts: parts}:
		return true
	case <-w.stop:
		// Writer shut down while we were parked on a full queue: roll the
		// reservation back so flush cannot wait on a write nobody will do.
		w.mu.Lock()
		delete(w.written, key)
		w.pending--
		w.cond.Broadcast()
		w.mu.Unlock()
		return false
	}
}

// flush blocks until every enqueued write has reached the store and returns
// the first write error, if any.
func (w *checkpointWriter) flush() error {
	_, err := w.flushWait()
	return err
}

// flushWait is flush plus the time the caller actually spent blocked — the
// checkpoint-stall waste the ledger books. A flush that finds no pending
// writes reports zero without reading the clock.
func (w *checkpointWriter) flushWait() (time.Duration, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.pending == 0 {
		return 0, w.err
	}
	start := time.Now()
	for w.pending > 0 {
		w.cond.Wait()
	}
	return time.Since(start), w.err
}

// close flushes, stops the stage goroutines, and returns the first write
// error. It must not race with enqueue for new partitions.
func (w *checkpointWriter) close() error {
	err := w.flush()
	w.mu.Lock()
	if !w.closed {
		w.closed = true
		close(w.stop)
	}
	w.mu.Unlock()
	return err
}
