package metrics

import (
	"sort"
	"sync"
)

// CounterVec is a counter family partitioned by label values — the labeled
// sibling of Counter, used for per-tenant accounting in the query service.
type CounterVec struct {
	labels []string

	mu     sync.RWMutex
	series map[string]*Counter
	keys   map[string][]string
}

// NewCounterVec returns a counter family keyed by len(labels) values.
func NewCounterVec(labels []string) *CounterVec {
	return &CounterVec{
		labels: append([]string(nil), labels...),
		series: make(map[string]*Counter),
		keys:   make(map[string][]string),
	}
}

// With returns the counter for the given label values, creating it on first
// use. The read path is a shared-lock map hit; creation takes the write lock.
func (v *CounterVec) With(values ...string) *Counter {
	key := joinKey(values)
	v.mu.RLock()
	c, ok := v.series[key]
	v.mu.RUnlock()
	if ok {
		return c
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if c, ok = v.series[key]; ok {
		return c
	}
	c = &Counter{}
	v.series[key] = c
	v.keys[key] = append([]string(nil), values...)
	return c
}

// snapshot returns label-sorted samples for every series.
func (v *CounterVec) snapshot() []Sample {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return sortedSamples(v.keys, func(key string) float64 {
		return float64(v.series[key].Value())
	})
}

// GaugeVec is a gauge family partitioned by label values. Because Gauge.Add
// accumulates a float, a GaugeVec also backs monotone fractional totals
// (e.g. wasted seconds per tenant) that a Registry may expose with
// KindCounter semantics via RegisterFunc.
type GaugeVec struct {
	labels []string

	mu     sync.RWMutex
	series map[string]*Gauge
	keys   map[string][]string
}

// NewGaugeVec returns a gauge family keyed by len(labels) values.
func NewGaugeVec(labels []string) *GaugeVec {
	return &GaugeVec{
		labels: append([]string(nil), labels...),
		series: make(map[string]*Gauge),
		keys:   make(map[string][]string),
	}
}

// With returns the gauge for the given label values, creating it on first use.
func (v *GaugeVec) With(values ...string) *Gauge {
	key := joinKey(values)
	v.mu.RLock()
	g, ok := v.series[key]
	v.mu.RUnlock()
	if ok {
		return g
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if g, ok = v.series[key]; ok {
		return g
	}
	g = &Gauge{}
	v.series[key] = g
	v.keys[key] = append([]string(nil), values...)
	return g
}

// snapshot returns label-sorted samples for every series.
func (v *GaugeVec) snapshot() []Sample {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return sortedSamples(v.keys, func(key string) float64 {
		return v.series[key].Value()
	})
}

// Samples returns the family's current label-sorted samples, for callers
// composing a vec with RegisterFunc under a custom Desc (e.g. exposing a
// monotone GaugeVec with counter semantics).
func (v *CounterVec) Samples() []Sample { return v.snapshot() }

// Samples returns the family's current label-sorted samples.
func (v *GaugeVec) Samples() []Sample { return v.snapshot() }

// Samples returns the histogram vector's series, label-sorted.
func (v *HistogramVec) Samples() []Sample { return v.snapshot() }

// sortedSamples flattens a key table into deterministic scalar samples.
func sortedSamples(keys map[string][]string, value func(key string) float64) []Sample {
	sorted := make([]string, 0, len(keys))
	for k := range keys {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)
	out := make([]Sample, 0, len(sorted))
	for _, k := range sorted {
		out = append(out, Sample{
			LabelValues: append([]string(nil), keys[k]...),
			Value:       value(k),
		})
	}
	return out
}

// NewCounterVec registers and returns a labeled counter family.
func (r *Registry) NewCounterVec(name, help string, labels []string) *CounterVec {
	v := NewCounterVec(labels)
	r.MustRegisterFunc(Desc{Name: name, Help: help, Kind: KindCounter, Labels: labels}, v.snapshot)
	return v
}

// NewGaugeVec registers and returns a labeled gauge family.
func (r *Registry) NewGaugeVec(name, help, unit string, labels []string) *GaugeVec {
	v := NewGaugeVec(labels)
	r.MustRegisterFunc(Desc{Name: name, Help: help, Kind: KindGauge, Unit: unit, Labels: labels}, v.snapshot)
	return v
}
