package runtime

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"ftpde/internal/engine"
	"ftpde/internal/obs"
)

// checkpointWriter persists materialized partitions to the fault-tolerant
// store off the stage workers' critical path, a stage at a time: every
// enqueued partition is serialized to block-file bytes (per-column
// compression included) on a goroutine of its own and buffered in its
// operator's group, which goes to the store in one write when it holds the
// whole stage. A barrier writes what is buffered short of that: flush waits
// for everything enqueued — query completion does — and wait for a single
// partition, before the restore probe.
type checkpointWriter struct {
	store  engine.EncodedStore
	events *events

	mu   sync.Mutex
	cond *sync.Cond
	// inFlight holds every partition enqueue has accepted, true until its
	// write has settled; pending counts the true ones.
	inFlight map[partKey]bool
	pending  int
	groups   []*group // one per operator, in the order they first committed
	closed   bool
	// err latches the first encode or store write failure; the barriers
	// surface it so the query result is never reported durable on top of a
	// torn checkpoint.
	err error
}

// group buffers the encoded partitions of one operator until one store write
// takes them all. A kill in the middle of a stage therefore leaves a partial
// group — the restore probe's barrier writes it — and, after the restart, a
// second one with the rest.
type group struct {
	op       string
	parts    int // the stage's partition count: that many blocks are a write
	encoding int // partitions accepted and not yet encoded
	blocks   []engine.PartBlock
	rows     int64
}

func newCheckpointWriter(store engine.EncodedStore, events *events) *checkpointWriter {
	w := &checkpointWriter{
		store:    store,
		events:   events,
		inFlight: make(map[partKey]bool),
	}
	w.cond = sync.NewCond(&w.mu)
	return w
}

// enqueue schedules one partition write. It returns false when the partition
// was already written (or enqueued) by this writer, and after close.
// The batch must be a committed (immutable, unpooled) result — persist reads
// it asynchronously.
func (w *checkpointWriter) enqueue(op string, part int, b *engine.Batch, parts int) bool {
	key := partKey{op, part}
	w.mu.Lock()
	if _, dup := w.inFlight[key]; dup || w.closed {
		w.mu.Unlock()
		return false
	}
	w.inFlight[key] = true
	w.pending++
	i := slices.IndexFunc(w.groups, func(g *group) bool { return g.op == op })
	if i < 0 {
		i = len(w.groups)
		w.groups = append(w.groups, &group{op: op, parts: parts})
	}
	g := w.groups[i]
	g.encoding++
	w.mu.Unlock()
	go w.persist(g, part, b)
	return true
}

// persist serializes one partition, typed vectors to block bytes, adds the
// block to the operator's group and writes the group if that completed the
// stage. Its goroutine ends there; the barriers wait for it through the
// pending count.
func (w *checkpointWriter) persist(g *group, part int, b *engine.Batch) {
	data, err := engine.EncodeBlock(b)
	w.mu.Lock()
	defer w.mu.Unlock()
	g.encoding--
	if err != nil {
		w.settle(g.op, []engine.PartBlock{{Part: part}}, fmt.Errorf("partition %d: %w", part, err))
	} else {
		g.blocks = append(g.blocks, engine.PartBlock{Part: part, Data: data})
		g.rows += int64(b.Len())
	}
	if len(g.blocks) == g.parts {
		w.write(g)
	}
	w.cond.Broadcast() // a barrier waits for the encode before it writes the group
}

// write empties g into the store, one call for all it held, and settles those
// partitions. mu is held, and released for the call.
func (w *checkpointWriter) write(g *group) {
	op := g.op
	blocks, rows := g.blocks, g.rows
	g.blocks, g.rows = nil, 0
	w.mu.Unlock()
	start := time.Now()
	err := w.store.PutGroup(op, g.parts, blocks)
	sp := obs.Span{Kind: obs.KindCheckpoint, Name: op, Part: -1, Attempt: -1, Start: start, End: time.Now(), Parts: len(blocks)}
	if err != nil {
		sp.Err = err.Error()
	} else {
		for _, b := range blocks {
			sp.Bytes += int64(len(b.Data))
		}
		sp.Rows = rows
	}
	w.events.emit(sp)
	w.mu.Lock()
	w.settle(op, blocks, err)
}

// settle ends the flight of the given partitions of op, latching err if it
// is the first (mu held).
func (w *checkpointWriter) settle(op string, blocks []engine.PartBlock, err error) {
	if err != nil && w.err == nil {
		w.err = fmt.Errorf("runtime: checkpoint %s: %w", op, err)
	}
	for _, b := range blocks {
		w.inFlight[partKey{op, b.Part}] = false
	}
	w.pending -= len(blocks)
	w.cond.Broadcast()
}

// await blocks until done holds, writing on the way the group of op that
// holds part — every operator's group when op is "" — once its partitions are
// all encoded, however few they are (mu held).
func (w *checkpointWriter) await(op string, part int, done func() bool) {
	holds := func(b engine.PartBlock) bool { return b.Part == part }
	for !done() {
		wrote := false
		for _, g := range w.groups {
			if g.encoding == 0 && len(g.blocks) > 0 && (op == "" || g.op == op && slices.ContainsFunc(g.blocks, holds)) {
				w.write(g)
				wrote = true
				break // the lock was released: look at the groups afresh
			}
		}
		if !wrote {
			w.cond.Wait()
		}
	}
}

// barrier is await with the books kept: the time the caller actually spent
// blocked is a checkpoint stall of (op, part); a barrier that finds nothing
// to wait for emits nothing and does not read the clock. It returns the
// first write error, if any.
func (w *checkpointWriter) barrier(groupOf string, done func() bool, op string, part int) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if !done() {
		start := time.Now()
		w.await(groupOf, part, done)
		w.events.emit(obs.Span{Kind: obs.KindStall, Name: op, Part: part, Attempt: -1, Start: start, End: time.Now()})
	}
	return w.err
}

func (w *checkpointWriter) idle() bool { return w.pending == 0 }

// flush blocks until every enqueued partition has reached the store.
func (w *checkpointWriter) flush(op string, part int) error {
	return w.barrier("", w.idle, op, part)
}

// wait blocks while this writer has (op, part) in flight — committed before a
// coarse restart, its group still filling or being written: a probe of the
// store now would miss it, and the partition would be computed and counted
// twice. No other operator's write is waited for.
func (w *checkpointWriter) wait(op string, part int) error {
	key := partKey{op, part}
	return w.barrier(op, func() bool { return !w.inFlight[key] }, op, part)
}

// close waits for every enqueued partition, refuses further ones, and returns
// the first write error.
func (w *checkpointWriter) close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.await("", -1, w.idle)
	w.closed = true
	return w.err
}
