package metrics

import (
	"math"
	"slices"
	"sync"
	"testing"
)

// familyOf returns the named family snapshot, or nil.
func familyOf(s RegistrySnapshot, name string) *FamilySnapshot {
	for i := range s.Families {
		if s.Families[i].Name == name {
			return &s.Families[i]
		}
	}
	return nil
}

// series returns f's series with the given label values, or nil.
func series(f *FamilySnapshot, values ...string) *SeriesSnapshot {
	if f == nil {
		return nil
	}
	for i := range f.Series {
		if slices.Equal(f.Series[i].LabelValues, values) {
			return &f.Series[i]
		}
	}
	return nil
}

func TestHistogramObserveAndSnapshot(t *testing.T) {
	h := NewHistogram([]float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 50, 500} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 5 {
		t.Fatalf("count = %d, want 5", s.Count)
	}
	// Bucket bounds are inclusive upper bounds: {<=1: 0.5, 1}, {<=10: 5},
	// {<=100: 50}, {+Inf: 500}.
	want := []uint64{2, 1, 1, 1}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d (counts %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Sum != 556.5 {
		t.Errorf("sum = %g, want 556.5", s.Sum)
	}
	if s.Min != 0.5 || s.Max != 500 {
		t.Errorf("min/max = %g/%g, want 0.5/500", s.Min, s.Max)
	}
}

func TestEmptyHistogramSnapshotIsFinite(t *testing.T) {
	s := NewHistogram(DefaultLatencyBuckets()).Snapshot()
	if s.Count != 0 || s.Sum != 0 || s.Min != 0 || s.Max != 0 {
		t.Errorf("empty snapshot not zeroed: %+v", s)
	}
	if math.IsInf(s.Min, 0) || math.IsInf(s.Max, 0) {
		t.Error("empty snapshot leaks the min/max sentinels")
	}
}

func TestBucketConstructors(t *testing.T) {
	exp := expBuckets(1, 2, 4)
	for i, want := range []float64{1, 2, 4, 8} {
		if exp[i] != want {
			t.Errorf("expBuckets[%d] = %g, want %g", i, exp[i], want)
		}
	}
	db := DefaultLatencyBuckets()
	if db[0] != 1e-6 || db[len(db)-1] < 60 {
		t.Errorf("default latency buckets do not span 1µs..>60s: %v", db)
	}
}

func TestRegistryDuplicateRegistration(t *testing.T) {
	r := NewRegistry()
	value(r, Desc{Name: "x_total", Help: "first", Kind: KindCounter}, new(float64))
	if err := r.RegisterFunc(Desc{Name: "x_total", Kind: KindCounter}, nil); err == nil {
		t.Error("duplicate registration did not error")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustRegisterFunc did not panic on duplicate")
		}
	}()
	r.MustRegisterFunc(Desc{Name: "x_total", Kind: KindCounter}, nil)
}

func TestRegistrySnapshotDeterministicOrder(t *testing.T) {
	r := NewRegistry()
	value(r, Desc{Name: "zzz", Kind: KindGauge}, new(float64))
	value(r, Desc{Name: "aaa_total", Kind: KindCounter}, new(float64))
	hs := map[string]*Histogram{"b": NewHistogram([]float64{1}), "a": NewHistogram([]float64{1})}
	histFamily(r, Desc{Name: "hist", Kind: KindHistogram, Unit: "seconds", Labels: []string{"l"}}, hs)
	hs["b"].Observe(0.1)
	hs["a"].Observe(0.2)

	snap := r.Snapshot()
	if snap.Families[0].Name != "aaa_total" || snap.Families[2].Name != "zzz" {
		t.Errorf("families not name-sorted: %v, %v, %v",
			snap.Families[0].Name, snap.Families[1].Name, snap.Families[2].Name)
	}
	hist := familyOf(snap, "hist")
	if hist == nil || len(hist.Series) != 2 {
		t.Fatalf("hist family missing or wrong arity: %+v", hist)
	}
	if hist.Series[0].LabelValues[0] != "a" {
		t.Errorf("series not label-sorted: %v", hist.Series)
	}
	if got := series(hist, "b"); got == nil || got.Hist == nil || got.Hist.Count != 1 {
		t.Errorf("Get(b) = %+v", got)
	}
}

// TestConcurrentObserveSnapshot is the race-detector coverage for the
// histogram hot path: writers hammer Observe while a reader snapshots.
func TestConcurrentObserveSnapshot(t *testing.T) {
	stages := []*Histogram{
		NewHistogram(DefaultLatencyBuckets()),
		NewHistogram(DefaultLatencyBuckets()),
		NewHistogram(DefaultLatencyBuckets()),
	}
	const writers = 8
	const perWriter = 2000

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				stages[i%len(stages)].Observe(float64(i%100) * 1e-5)
			}
		}(w)
	}
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, h := range stages {
				if s := h.Snapshot(); s.Count > writers*perWriter {
					t.Errorf("snapshot counts %d observations, more than were made", s.Count)
				}
			}
		}
	}()
	wg.Wait()
	close(stop)
	readers.Wait()

	var total uint64
	for _, h := range stages {
		total += h.Snapshot().Count
	}
	if total != writers*perWriter {
		t.Errorf("observations lost under concurrency: %d, want %d", total, writers*perWriter)
	}
}

// value registers a single-series family that reads *v.
func value(r *Registry, d Desc, v *float64) {
	r.MustRegisterFunc(d, func() []Sample { return []Sample{{Value: *v}} })
}

// histFamily registers a histogram family with one series per entry of hs,
// keyed by its one label value (or by "" when the family has no labels).
func histFamily(r *Registry, d Desc, hs map[string]*Histogram) {
	r.MustRegisterFunc(d, func() []Sample {
		var out []Sample
		for lv, h := range hs {
			s := h.Snapshot()
			smp := Sample{Hist: &s}
			if len(d.Labels) > 0 {
				smp.LabelValues = []string{lv}
			}
			out = append(out, smp)
		}
		return out
	})
}
