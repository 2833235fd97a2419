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
// compression included), into an arena buffer, on a goroutine of its own and
// buffered in its stage's group, which goes to the store in one write when it
// holds the whole stage. A barrier writes what is buffered short of that:
// flush waits for everything enqueued — query completion does — and wait for
// a single partition, before the restore probe.
type checkpointWriter struct {
	store  engine.EncodedStore
	arena  *engine.Arena
	events *events

	mu   sync.Mutex
	cond *sync.Cond
	// pending counts the partitions enqueue has accepted whose write has not
	// settled.
	pending int
	groups  []*group // one per stage, in the order they first committed
	closed  bool
	// err latches the first encode or store write failure; the barriers
	// surface it so the query result is never reported durable on top of a
	// torn checkpoint.
	err error
}

// group buffers the encoded partitions of one stage until one store write
// takes them all. A kill in the middle of a stage therefore leaves a partial
// group — the restore probe's barrier writes it — and, after the restart, a
// second one with the rest.
type group struct {
	s *stage
	// flight is where each partition stands with the writer: by partition,
	// as many as the stage has, and that many blocks are a write.
	flight   []flight
	encoding int // partitions accepted and not yet encoded
	blocks   []engine.PartBlock
	rows     int64
}

// flight is one partition's standing with the writer.
type flight uint8

const (
	unsent  flight = iota // never enqueued
	flying                // accepted, its write not settled
	settled               // its write landed or failed
)

func newCheckpointWriter(store engine.EncodedStore, arena *engine.Arena, events *events) *checkpointWriter {
	w := &checkpointWriter{store: store, arena: arena, events: events}
	w.cond = sync.NewCond(&w.mu)
	return w
}

// groupOf returns s's group, nil before s first committed (mu held).
func (w *checkpointWriter) groupOf(s *stage) *group {
	for _, g := range w.groups {
		if g.s == s {
			return g
		}
	}
	return nil
}

// enqueue schedules one partition write. It returns false when the partition
// was already written (or enqueued) by this writer, and after close.
// The batch must be a committed (immutable, unpooled) result — persist reads
// it asynchronously.
func (w *checkpointWriter) enqueue(s *stage, part int, b *engine.Batch, parts int) bool {
	w.mu.Lock()
	g := w.groupOf(s)
	if g == nil && !w.closed {
		g = &group{s: s, flight: make([]flight, parts)}
		w.groups = append(w.groups, g)
	}
	if w.closed || g.flight[part] != unsent {
		w.mu.Unlock()
		return false
	}
	g.flight[part] = flying
	w.pending++
	g.encoding++
	w.mu.Unlock()
	go w.persist(g, part, b)
	return true
}

// persist serializes one partition, typed vectors to block bytes, adds the
// block to the stage's group and writes the group if that completed the
// stage. Its goroutine ends there; the barriers wait for it through the
// pending count.
func (w *checkpointWriter) persist(g *group, part int, b *engine.Batch) {
	loc := w.arena.Local()
	data, err := loc.EncodeBlock(b)
	loc.Close()
	w.mu.Lock()
	defer w.mu.Unlock()
	g.encoding--
	if err != nil {
		w.settle(g, []engine.PartBlock{{Part: part}}, fmt.Errorf("partition %d: %w", part, err))
	} else {
		g.blocks = append(g.blocks, engine.PartBlock{Part: part, Data: data})
		g.rows += int64(b.Len())
	}
	if len(g.blocks) == len(g.flight) {
		w.write(g)
	}
	w.cond.Broadcast() // a barrier waits for the encode before it writes the group
}

// write empties g into the store, one call for all it held, gives the buffers
// back and settles those partitions. mu is held, and released for the call.
func (w *checkpointWriter) write(g *group) {
	op := g.s.name()
	blocks, rows := g.blocks, g.rows
	g.blocks, g.rows = nil, 0
	w.mu.Unlock()
	start := time.Now()
	err := w.store.PutGroup(op, len(g.flight), blocks)
	sp := obs.Span{Kind: obs.KindCheckpoint, Name: op, Part: -1, Attempt: -1, Start: start, End: time.Now(), Parts: len(blocks)}
	var size int64
	loc := w.arena.Local()
	for _, b := range blocks {
		size += int64(len(b.Data))
		loc.ReleaseBlock(b.Data)
	}
	loc.Close()
	if err != nil {
		sp.Err = err.Error()
	} else {
		sp.Bytes, sp.Rows = size, rows
	}
	w.events.emit(sp)
	w.mu.Lock()
	w.settle(g, blocks, err)
}

// settle ends the flight of the given partitions of g, latching err if it is
// the first (mu held).
func (w *checkpointWriter) settle(g *group, blocks []engine.PartBlock, err error) {
	if err != nil && w.err == nil {
		w.err = fmt.Errorf("runtime: checkpoint %s: %w", g.s.name(), err)
	}
	for _, b := range blocks {
		g.flight[b.Part] = settled
	}
	w.pending -= len(blocks)
	w.cond.Broadcast()
}

// await blocks until done holds, writing on the way s's group if it holds
// part — every stage's group when s is nil — once its partitions are all
// encoded, however few they are (mu held).
func (w *checkpointWriter) await(s *stage, part int, done func() bool) {
	holds := func(b engine.PartBlock) bool { return b.Part == part }
	for !done() {
		wrote := false
		for _, g := range w.groups {
			if g.encoding == 0 && len(g.blocks) > 0 && (s == nil || g.s == s && slices.ContainsFunc(g.blocks, holds)) {
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
func (w *checkpointWriter) barrier(s *stage, done func() bool, op string, part int) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if !done() {
		start := time.Now()
		w.await(s, part, done)
		w.events.emit(obs.Span{Kind: obs.KindStall, Name: op, Part: part, Attempt: -1, Start: start, End: time.Now()})
	}
	return w.err
}

func (w *checkpointWriter) idle() bool { return w.pending == 0 }

// flush blocks until every enqueued partition has reached the store.
func (w *checkpointWriter) flush(op string, part int) error {
	return w.barrier(nil, w.idle, op, part)
}

// wait blocks while this writer has partition part of s in flight —
// committed before a coarse restart, its group still filling or being
// written: a probe of the store now would miss it, and the partition would be
// computed and counted twice. No other stage's write is waited for.
func (w *checkpointWriter) wait(s *stage, part int) error {
	notFlying := func() bool { g := w.groupOf(s); return g == nil || g.flight[part] != flying }
	return w.barrier(s, notFlying, s.name(), part)
}

// close waits for every enqueued partition, refuses further ones, and returns
// the first write error.
func (w *checkpointWriter) close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.await(nil, -1, w.idle)
	w.closed = true
	return w.err
}
