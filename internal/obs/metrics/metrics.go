// Package metrics is a dependency-free telemetry layer: a fixed-bucket
// latency Histogram with a lock-free hot path, the wasted-work Ledger (the
// measured counterpart of the paper's w(c) and a(c)·MTTR terms), and a
// Registry of collectors that produces deterministic snapshots and
// Prometheus text exposition.
//
// The registry holds no values of its own. Each family is a collector over
// a record its owner keeps (the runtime's obs.Exec, a service tenant, a
// tracer), read at collection time, so every number has one home.
//
// The package deliberately depends on nothing but the standard library so
// every layer of the system (engine, runtime, simulator, CLIs) can share one
// metric vocabulary without import cycles.
package metrics

import (
	"math"
	"sort"
	"sync/atomic"
)

// atomicFloat is a float64 updated with compare-and-swap on its bit pattern,
// so histograms can track exact sums and extremes without a lock.
type atomicFloat struct {
	bits atomic.Uint64
}

func (f *atomicFloat) load() float64 { return math.Float64frombits(f.bits.Load()) }

func (f *atomicFloat) store(v float64) { f.bits.Store(math.Float64bits(v)) }

func (f *atomicFloat) add(v float64) {
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

// Histogram observes a distribution over fixed bucket upper bounds. Observe
// is lock-free: one atomic add on the bucket, plus CAS updates of the exact
// sum/min/max. Construct with NewHistogram; the zero value is not usable
// because min/max need sentinel initialization.
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
	h.min.store(math.Inf(1))
	h.max.store(math.Inf(-1))
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v; len(bounds) = +Inf
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.add(v)
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
		Sum:    h.sum.load(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	if s.Count > 0 {
		s.Min = h.min.load()
		s.Max = h.max.load()
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

// expBuckets returns n exponentially growing upper bounds starting at start
// and multiplying by factor.
func expBuckets(start, factor float64, n int) []float64 {
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
func DefaultLatencyBuckets() []float64 { return expBuckets(1e-6, 4, 14) }
