package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Kind classifies a metric family.
type Kind string

// The three family kinds in the exposition vocabulary.
const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// Desc documents one metric family: its exposition name, kind, unit, label
// names and a one-line help string. Descs are what `ftsql -list-metrics`
// renders, so every registered family is self-documenting.
type Desc struct {
	Name   string   `json:"name"`
	Help   string   `json:"help"`
	Kind   Kind     `json:"kind"`
	Unit   string   `json:"unit,omitempty"`
	Labels []string `json:"labels,omitempty"`
}

// Sample is one series of a family at collection time: its label values (in
// Desc.Labels order) and either a scalar value or a histogram snapshot.
type Sample struct {
	LabelValues []string
	Value       float64
	Hist        *HistogramSnapshot
}

// family pairs a Desc with its collector. Instrument-backed families close
// over their instrument; func-backed families read foreign state (an Exec's
// atomics, a tracer's counters) at collection time.
type family struct {
	desc    Desc
	collect func() []Sample
}

// Registry holds metric families and produces deterministic snapshots. All
// methods are safe for concurrent use; collection never blocks Observe paths.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// RegisterFunc registers a family whose samples are produced by collect at
// snapshot time. It fails on duplicate names so two subsystems cannot
// silently shadow each other's series.
func (r *Registry) RegisterFunc(d Desc, collect func() []Sample) error {
	if d.Name == "" {
		return fmt.Errorf("metrics: family needs a name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.families[d.Name]; ok {
		return fmt.Errorf("metrics: family %q already registered", d.Name)
	}
	r.families[d.Name] = &family{desc: d, collect: collect}
	return nil
}

// MustRegisterFunc is RegisterFunc for static wiring; it panics on conflict,
// which can only be a programming error.
func (r *Registry) MustRegisterFunc(d Desc, collect func() []Sample) {
	if err := r.RegisterFunc(d, collect); err != nil {
		panic(err)
	}
}

// NewCounter registers and returns a single-series counter family.
func (r *Registry) NewCounter(name, help string) *Counter {
	c := &Counter{}
	r.MustRegisterFunc(Desc{Name: name, Help: help, Kind: KindCounter}, func() []Sample {
		return []Sample{{Value: float64(c.Value())}}
	})
	return c
}

// NewHistogramVec registers and returns a labeled histogram family.
func (r *Registry) NewHistogramVec(name, help, unit string, labels []string, bounds []float64) *HistogramVec {
	v := NewHistogramVec(labels, bounds)
	r.MustRegisterFunc(Desc{Name: name, Help: help, Kind: KindHistogram, Unit: unit, Labels: labels}, v.snapshot)
	return v
}

// Describe returns every registered Desc, name-sorted.
func (r *Registry) Describe() []Desc {
	r.mu.RLock()
	out := make([]Desc, 0, len(r.families))
	for _, f := range r.families {
		out = append(out, f.desc)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Snapshot collects every family into a deterministic (name- and
// label-sorted) plain-value snapshot suitable for JSON output and tests.
func (r *Registry) Snapshot() RegistrySnapshot {
	r.mu.RLock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.RUnlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].desc.Name < fams[j].desc.Name })

	var snap RegistrySnapshot
	for _, f := range fams {
		fs := FamilySnapshot{Desc: f.desc}
		samples := f.collect()
		series := make([]SeriesSnapshot, 0, len(samples))
		for _, s := range samples {
			series = append(series, SeriesSnapshot{
				LabelValues: s.LabelValues,
				Value:       s.Value,
				Hist:        s.Hist,
			})
		}
		sort.Slice(series, func(i, j int) bool {
			return joinKey(series[i].LabelValues) < joinKey(series[j].LabelValues)
		})
		fs.Series = series
		snap.Families = append(snap.Families, fs)
	}
	return snap
}

// RegistrySnapshot is a point-in-time copy of every family.
type RegistrySnapshot struct {
	Families []FamilySnapshot `json:"families"`
}

// FamilySnapshot is one family's Desc plus its collected series.
type FamilySnapshot struct {
	Desc
	Series []SeriesSnapshot `json:"series"`
}

// SeriesSnapshot is one series: label values plus a scalar or histogram.
type SeriesSnapshot struct {
	LabelValues []string           `json:"label_values,omitempty"`
	Value       float64            `json:"value"`
	Hist        *HistogramSnapshot `json:"histogram,omitempty"`
}

// Family returns the named family snapshot, or nil.
func (s RegistrySnapshot) Family(name string) *FamilySnapshot {
	for i := range s.Families {
		if s.Families[i].Name == name {
			return &s.Families[i]
		}
	}
	return nil
}

// Get returns the series with the given label values, or nil.
func (f *FamilySnapshot) Get(values ...string) *SeriesSnapshot {
	if f == nil {
		return nil
	}
	key := joinKey(values)
	for i := range f.Series {
		if joinKey(f.Series[i].LabelValues) == key {
			return &f.Series[i]
		}
	}
	return nil
}

// DescribeTable renders a fixed-width table of the registry's families — the
// body of `ftsql -list-metrics`.
func DescribeTable(descs []Desc) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-36s %-10s %-8s %-22s %s\n", "NAME", "KIND", "UNIT", "LABELS", "HELP")
	for _, d := range descs {
		unit := d.Unit
		if unit == "" {
			unit = "-"
		}
		labels := strings.Join(d.Labels, ",")
		if labels == "" {
			labels = "-"
		}
		fmt.Fprintf(&b, "%-36s %-10s %-8s %-22s %s\n", d.Name, d.Kind, unit, labels, d.Help)
	}
	return b.String()
}
