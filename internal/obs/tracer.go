package obs

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultCapacity is the default total span capacity of a Tracer, split
// across its shards. When a shard overflows, its oldest spans are
// overwritten and Dropped advances — tracing never blocks execution.
const DefaultCapacity = 1 << 14

// Tracer collects spans into per-worker ring buffers. Emission takes one
// shard mutex (shards are sized to GOMAXPROCS, so contention is low); a ring
// grows by appending until it reaches its capacity and then wraps, so a
// tracer that records a few dozen spans never pays for thousands. A nil
// *Tracer is a valid no-op tracer, which is the disabled fast path:
// Begin/Event return before reading the clock.
type Tracer struct {
	shards  []*ring
	next    atomic.Uint64 // round-robin shard cursor
	ids     atomic.Int64
	dropped atomic.Int64
	epoch   time.Time
}

// ring is one circular span buffer of fixed capacity with its own lock. It
// appends until it holds capacity spans; after that head is the oldest span,
// which the next commit overwrites.
type ring struct {
	mu       sync.Mutex
	buf      []Span
	capacity int
	head     int
}

// NewTracer returns a tracer with the given total span capacity
// (DefaultCapacity when <= 0), sharded across GOMAXPROCS ring buffers.
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	shards := runtime.GOMAXPROCS(0)
	if shards < 1 {
		shards = 1
	}
	per := capacity / shards
	if per < 64 {
		per = 64
	}
	t := &Tracer{epoch: time.Now(), shards: make([]*ring, shards)}
	for i := range t.shards {
		t.shards[i] = &ring{capacity: per}
	}
	return t
}

// Epoch returns the tracer's creation time — the zero point of exported
// timelines. Zero for a nil tracer.
func (t *Tracer) Epoch() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.epoch
}

// Dropped returns how many spans were overwritten by ring overflow.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	return t.dropped.Load()
}

// SpanScope is an open span returned by Begin; call End (or Fail) exactly
// once. The zero SpanScope (from a nil tracer) is a no-op.
type SpanScope struct {
	t    *Tracer
	span Span
}

// Begin opens a span. part and attempt may be -1 when not applicable. On a
// nil tracer it returns a no-op scope without reading the clock.
func (t *Tracer) Begin(kind Kind, name string, part, attempt int) SpanScope {
	if t == nil {
		return SpanScope{}
	}
	return SpanScope{t: t, span: Span{
		Kind:    kind,
		Name:    name,
		Part:    part,
		Attempt: attempt,
		Start:   time.Now(),
	}}
}

// SetBytes attaches an encoded-size payload (checkpoint spans).
func (s *SpanScope) SetBytes(n int64) {
	if s.t != nil {
		s.span.Bytes = n
	}
}

// SetRows attaches a row count (task/stage spans).
func (s *SpanScope) SetRows(n int64) {
	if s.t != nil {
		s.span.Rows = n
	}
}

// Fail records an error label and closes the span.
func (s *SpanScope) Fail(errMsg string) {
	if s.t == nil {
		return
	}
	s.span.Err = errMsg
	s.End()
}

// End closes the span and commits it to a ring buffer.
func (s *SpanScope) End() {
	if s.t == nil {
		return
	}
	s.span.End = time.Now()
	s.t.commit(s.span)
	s.t = nil // guard against double End
}

// Event records an instant event (failure, restart).
func (t *Tracer) Event(kind Kind, name string, part, attempt int) {
	if t == nil {
		return
	}
	now := time.Now()
	t.commit(Span{Kind: kind, Name: name, Part: part, Attempt: attempt, Start: now, End: now})
}

// commit assigns an ID, picks a shard round-robin and appends, overwriting
// the oldest span once the ring holds its capacity.
func (t *Tracer) commit(sp Span) {
	sp.ID = t.ids.Add(1)
	idx := int(t.next.Add(1)-1) % len(t.shards)
	sp.Worker = idx
	r := t.shards[idx]
	r.mu.Lock()
	if len(r.buf) < r.capacity {
		r.buf = append(r.buf, sp)
	} else {
		t.dropped.Add(1)
		r.buf[r.head] = sp
		r.head = (r.head + 1) % r.capacity
	}
	r.mu.Unlock()
}

// Ingest commits pre-built spans (e.g. the simulator's synthetic timeline)
// into the rings so Snapshot and the debug endpoints serve them.
func (t *Tracer) Ingest(spans []Span) {
	if t == nil {
		return
	}
	for _, sp := range spans {
		t.commit(sp)
	}
}

// Snapshot merges all ring buffers into one timeline sorted by start time
// (ties broken by emission ID). It copies under the shard locks and does not
// consume the buffers, so it is safe to call concurrently with emission —
// the collector's drain path and the debug endpoint share it.
func (t *Tracer) Snapshot() []Span {
	if t == nil {
		return nil
	}
	var out []Span
	for _, r := range t.shards {
		r.mu.Lock()
		out = append(out, r.buf[r.head:]...)
		out = append(out, r.buf[:r.head]...)
		r.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Start.Equal(out[j].Start) {
			return out[i].Start.Before(out[j].Start)
		}
		return out[i].ID < out[j].ID
	})
	return out
}
