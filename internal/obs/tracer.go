package obs

import (
	"sort"
	"sync"
	"time"
)

// DefaultCapacity is the default span capacity of a Tracer. Once the ring
// holds that many spans, each new one overwrites the oldest and Dropped
// advances — tracing never blocks execution.
const DefaultCapacity = 1 << 14

// Tracer records spans into a ring buffer. The ring grows by appending until
// it holds its capacity and then wraps, so a tracer that records a few dozen
// spans never pays for thousands. A nil *Tracer is a valid no-op tracer.
type Tracer struct {
	mu       sync.Mutex
	buf      []Span
	capacity int
	head     int // the oldest span, once the ring is full
	ids      int64
	dropped  int64
	epoch    time.Time
}

// NewTracer returns a tracer with the given span capacity (DefaultCapacity
// when <= 0, at least 64).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Tracer{epoch: time.Now(), capacity: max(capacity, 64)}
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
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Record assigns the span the next ID and appends it, overwriting the
// oldest span once the ring holds its capacity.
func (t *Tracer) Record(sp Span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ids++
	sp.ID = t.ids
	if len(t.buf) < t.capacity {
		t.buf = append(t.buf, sp)
		return
	}
	t.dropped++
	t.buf[t.head] = sp
	t.head = (t.head + 1) % t.capacity
}

// Snapshot returns the recorded timeline sorted by start time (ties in
// emission order). It copies under the lock and does not consume the ring,
// so it is safe to call concurrently with recording — the collector's drain
// path and the debug endpoint share it.
func (t *Tracer) Snapshot() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := append(append([]Span(nil), t.buf[t.head:]...), t.buf[:t.head]...)
	t.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	return out
}
