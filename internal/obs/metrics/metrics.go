// Package metrics is a dependency-free telemetry layer: atomic counters,
// gauges and fixed-bucket latency histograms with a lock-free hot path,
// grouped into labeled families by a Registry that produces deterministic,
// mergeable snapshots and Prometheus text exposition.
//
// The package deliberately depends on nothing but the standard library so
// every layer of the system (engine, runtime, simulator, CLIs) can share one
// metric vocabulary without import cycles. The runtime's counter set lives
// in Exec; the wasted-work ledger — the measured
// counterpart of the paper's w(c) and a(c)·MTTR terms — lives in Ledger.
package metrics

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// atomicFloat is a float64 updated with compare-and-swap on its bit pattern,
// so histograms can track exact sums and extremes without a lock.
type atomicFloat struct {
	bits atomic.Uint64
}

func (f *atomicFloat) Load() float64 { return math.Float64frombits(f.bits.Load()) }

func (f *atomicFloat) Store(v float64) { f.bits.Store(math.Float64bits(v)) }

func (f *atomicFloat) Add(v float64) {
	for {
		old := f.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// setMin lowers the value to v if v is smaller.
func (f *atomicFloat) setMin(v float64) {
	for {
		old := f.bits.Load()
		if v >= math.Float64frombits(old) {
			return
		}
		if f.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// setMax raises the value to v if v is larger.
func (f *atomicFloat) setMax(v float64) {
	for {
		old := f.bits.Load()
		if v <= math.Float64frombits(old) {
			return
		}
		if f.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Counter is a monotonically increasing value.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n (n must be >= 0 for meaningful rates; the
// type does not enforce it).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a value that can go up and down.
type Gauge struct {
	v atomicFloat
}

// Set stores the gauge value.
func (g *Gauge) Set(v float64) { g.v.Store(v) }

// Add moves the gauge by delta.
func (g *Gauge) Add(delta float64) { g.v.Add(delta) }

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return g.v.Load() }

// Histogram observes a distribution over fixed bucket upper bounds. Observe
// is lock-free: one atomic add on the bucket, plus CAS updates of the exact
// sum/min/max. Construct with NewHistogram (or a Registry helper); the zero
// value is not usable because min/max need sentinel initialization.
type Histogram struct {
	bounds []float64 // sorted inclusive upper bounds ("le")
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    atomicFloat
	min    atomicFloat
	max    atomicFloat
}

// NewHistogram returns a histogram over the given sorted upper bounds. An
// implicit +Inf overflow bucket is always appended.
func NewHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	h := &Histogram{
		bounds: b,
		counts: make([]atomic.Uint64, len(b)+1),
	}
	h.min.Store(math.Inf(1))
	h.max.Store(math.Inf(-1))
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v; len(bounds) = +Inf
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	h.min.setMin(v)
	h.max.setMax(v)
}

// Snapshot returns a point-in-time copy. Concurrent Observe calls may be
// partially included (count and buckets are read independently), which is the
// usual monitoring trade-off; totals are never lost.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]uint64, len(h.counts)),
		Count:  h.count.Load(),
		Sum:    h.sum.Load(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	if s.Count > 0 {
		s.Min = h.min.Load()
		s.Max = h.max.Load()
	}
	return s
}

// HistogramSnapshot is the plain-value form of a histogram. Counts has one
// entry per bound plus the +Inf overflow bucket; Min and Max are zero when
// the histogram is empty (so the struct always marshals to valid JSON).
type HistogramSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
	Count  uint64    `json:"count"`
	Sum    float64   `json:"sum"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
}

// Merge adds another snapshot of a histogram with identical bounds into s.
// Mismatched bounds keep s's shape and fold the other's totals in, so merged
// aggregates (count/sum/min/max) stay exact even when bucket detail cannot.
func (s HistogramSnapshot) Merge(o HistogramSnapshot) HistogramSnapshot {
	out := HistogramSnapshot{
		Bounds: append([]float64(nil), s.Bounds...),
		Counts: append([]uint64(nil), s.Counts...),
		Count:  s.Count + o.Count,
		Sum:    s.Sum + o.Sum,
	}
	if len(o.Counts) == len(s.Counts) && sameBounds(s.Bounds, o.Bounds) {
		for i, c := range o.Counts {
			out.Counts[i] += c
		}
	} else if len(out.Counts) > 0 {
		out.Counts[len(out.Counts)-1] += o.Count
	}
	switch {
	case s.Count == 0:
		out.Min, out.Max = o.Min, o.Max
	case o.Count == 0:
		out.Min, out.Max = s.Min, s.Max
	default:
		out.Min = math.Min(s.Min, o.Min)
		out.Max = math.Max(s.Max, o.Max)
	}
	return out
}

func sameBounds(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		// Bucket layouts come from shared constructors, so bit equality is
		// the right test (no arithmetic is involved).
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// HistogramVec is a histogram family partitioned by label values.
type HistogramVec struct {
	bounds []float64
	labels []string

	mu     sync.RWMutex
	series map[string]*Histogram
	keys   map[string][]string
}

const labelSep = "\x1f"

// NewHistogramVec returns a histogram family keyed by len(labels) values.
func NewHistogramVec(labels []string, bounds []float64) *HistogramVec {
	return &HistogramVec{
		bounds: append([]float64(nil), bounds...),
		labels: append([]string(nil), labels...),
		series: make(map[string]*Histogram),
		keys:   make(map[string][]string),
	}
}

// With returns the histogram for the given label values, creating it on first
// use. The read path is a shared-lock map hit; creation takes the write lock.
func (v *HistogramVec) With(values ...string) *Histogram {
	key := joinKey(values)
	v.mu.RLock()
	h, ok := v.series[key]
	v.mu.RUnlock()
	if ok {
		return h
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if h, ok = v.series[key]; ok {
		return h
	}
	h = NewHistogram(v.bounds)
	v.series[key] = h
	v.keys[key] = append([]string(nil), values...)
	return h
}

// snapshot returns label-sorted samples for every series.
func (v *HistogramVec) snapshot() []Sample {
	v.mu.RLock()
	keys := make([]string, 0, len(v.series))
	for k := range v.series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]Sample, 0, len(keys))
	for _, k := range keys {
		hs := v.series[k].Snapshot()
		out = append(out, Sample{LabelValues: append([]string(nil), v.keys[k]...), Hist: &hs})
	}
	v.mu.RUnlock()
	return out
}

func joinKey(values []string) string {
	switch len(values) {
	case 0:
		return ""
	case 1:
		return values[0]
	}
	n := len(values) - 1
	for _, s := range values {
		n += len(s)
	}
	b := make([]byte, 0, n)
	for i, s := range values {
		if i > 0 {
			b = append(b, labelSep...)
		}
		b = append(b, s...)
	}
	return string(b)
}

// ExpBuckets returns n exponentially growing upper bounds starting at start
// and multiplying by factor.
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// DefaultLatencyBuckets spans 1µs to ~67s in powers of four — wide enough for
// checkpoint writes and stage wall times across scale factors without
// per-query tuning.
func DefaultLatencyBuckets() []float64 { return ExpBuckets(1e-6, 4, 14) }
