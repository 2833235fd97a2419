package metrics

import (
	"math"
	"sync"
	"testing"
)

func TestCounterAndGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
	var g Gauge
	g.Set(2.5)
	g.Add(-1)
	if g.Value() != 1.5 {
		t.Errorf("gauge = %g, want 1.5", g.Value())
	}
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

func TestHistogramSnapshotMergeSameBounds(t *testing.T) {
	a := NewHistogram([]float64{1, 10})
	b := NewHistogram([]float64{1, 10})
	a.Observe(0.5)
	a.Observe(5)
	b.Observe(20)
	m := a.Snapshot().Merge(b.Snapshot())
	if m.Count != 3 || m.Sum != 25.5 {
		t.Errorf("merged count/sum = %d/%g, want 3/25.5", m.Count, m.Sum)
	}
	if got, want := m.Counts, []uint64{1, 1, 1}; got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Errorf("merged counts = %v, want %v", got, want)
	}
	if m.Min != 0.5 || m.Max != 20 {
		t.Errorf("merged min/max = %g/%g, want 0.5/20", m.Min, m.Max)
	}
}

func TestHistogramSnapshotMergeMismatchedBounds(t *testing.T) {
	a := NewHistogram([]float64{1})
	b := NewHistogram([]float64{2, 4})
	a.Observe(0.5)
	b.Observe(3)
	b.Observe(100)
	m := a.Snapshot().Merge(b.Snapshot())
	// Shape of the receiver; the other's observations fold into overflow.
	if len(m.Counts) != 2 {
		t.Fatalf("merged bucket count = %d, want 2", len(m.Counts))
	}
	if m.Count != 3 || m.Counts[1] != 2 {
		t.Errorf("mismatched merge lost totals: %+v", m)
	}
	if m.Min != 0.5 || m.Max != 100 {
		t.Errorf("merged min/max = %g/%g, want 0.5/100", m.Min, m.Max)
	}
}

func TestHistogramSnapshotMergeEmptySides(t *testing.T) {
	empty := NewHistogram([]float64{1}).Snapshot()
	full := NewHistogram([]float64{1})
	full.Observe(7)
	if m := empty.Merge(full.Snapshot()); m.Min != 7 || m.Max != 7 {
		t.Errorf("empty.Merge(full) min/max = %g/%g, want 7/7", m.Min, m.Max)
	}
	if m := full.Snapshot().Merge(empty); m.Min != 7 || m.Max != 7 {
		t.Errorf("full.Merge(empty) min/max = %g/%g, want 7/7", m.Min, m.Max)
	}
}

func TestHistogramVecSeriesIdentity(t *testing.T) {
	v := NewHistogramVec([]string{"runtime", "stage"}, []float64{1})
	h1 := v.With("pipelined", "scan")
	h2 := v.With("pipelined", "scan")
	if h1 != h2 {
		t.Error("same label values produced distinct series")
	}
	if v.With("staged", "scan") == h1 {
		t.Error("distinct label values share a series")
	}
	h1.Observe(0.5)
	samples := v.snapshot()
	if len(samples) != 2 {
		t.Fatalf("series = %d, want 2", len(samples))
	}
	// snapshot() must be label-sorted for deterministic output.
	if samples[0].LabelValues[0] != "pipelined" || samples[1].LabelValues[0] != "staged" {
		t.Errorf("snapshot not label-sorted: %v then %v", samples[0].LabelValues, samples[1].LabelValues)
	}
}

func TestBucketConstructors(t *testing.T) {
	exp := ExpBuckets(1, 2, 4)
	for i, want := range []float64{1, 2, 4, 8} {
		if exp[i] != want {
			t.Errorf("ExpBuckets[%d] = %g, want %g", i, exp[i], want)
		}
	}
	db := DefaultLatencyBuckets()
	if db[0] != 1e-6 || db[len(db)-1] < 60 {
		t.Errorf("default latency buckets do not span 1µs..>60s: %v", db)
	}
}

func TestRegistryDuplicateRegistration(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("x_total", "first")
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
	r.NewGaugeVec("zzz", "", "", nil)
	r.NewCounter("aaa_total", "")
	v := r.NewHistogramVec("hist", "", "seconds", []string{"l"}, []float64{1})
	v.With("b").Observe(0.1)
	v.With("a").Observe(0.2)

	snap := r.Snapshot()
	if snap.Families[0].Name != "aaa_total" || snap.Families[2].Name != "zzz" {
		t.Errorf("families not name-sorted: %v, %v, %v",
			snap.Families[0].Name, snap.Families[1].Name, snap.Families[2].Name)
	}
	hist := snap.Family("hist")
	if hist == nil || len(hist.Series) != 2 {
		t.Fatalf("hist family missing or wrong arity: %+v", hist)
	}
	if hist.Series[0].LabelValues[0] != "a" {
		t.Errorf("series not label-sorted: %v", hist.Series)
	}
	if got := hist.Get("b"); got == nil || got.Hist == nil || got.Hist.Count != 1 {
		t.Errorf("Get(b) = %+v", got)
	}
}

// TestConcurrentObserveSnapshotMerge is the race-detector coverage for the
// histogram hot path: writers hammer Observe while readers snapshot and merge.
func TestConcurrentObserveSnapshotMerge(t *testing.T) {
	v := NewHistogramVec([]string{"stage"}, DefaultLatencyBuckets())
	stages := []string{"scan", "join", "agg"}
	const writers = 8
	const perWriter = 2000

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				v.With(stages[i%len(stages)]).Observe(float64(i%100) * 1e-5)
			}
		}(w)
	}
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		acc := HistogramSnapshot{}
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, s := range v.snapshot() {
				acc = acc.Merge(*s.Hist)
			}
		}
	}()
	wg.Wait()
	close(stop)
	readers.Wait()

	var total uint64
	for _, s := range v.snapshot() {
		total += s.Hist.Count
	}
	if total != writers*perWriter {
		t.Errorf("observations lost under concurrency: %d, want %d", total, writers*perWriter)
	}
}
