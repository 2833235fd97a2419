package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func uniformValues(n int, lo, hi float64, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	for i := range out {
		out[i] = lo + rng.Float64()*(hi-lo)
	}
	return out
}

func TestBuildHistogramValidation(t *testing.T) {
	if _, err := BuildHistogram(nil, 4); err == nil {
		t.Error("empty values accepted")
	}
	if _, err := BuildHistogram([]float64{1}, 0); err == nil {
		t.Error("zero buckets accepted")
	}
	h, err := BuildHistogram([]float64{5}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if h.Total != 1 || h.DistinctEst != 1 {
		t.Errorf("singleton histogram wrong: %+v", h)
	}
}

func TestHistogramEquiDepth(t *testing.T) {
	vals := uniformValues(10000, 0, 100, 1)
	h, err := BuildHistogram(vals, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Counts) != 10 {
		t.Fatalf("want 10 buckets, got %d", len(h.Counts))
	}
	for _, c := range h.Counts {
		if c != 1000 {
			t.Errorf("bucket count %d, want 1000 (equi-depth)", c)
		}
	}
}

func TestHistogramUniformSelectivities(t *testing.T) {
	vals := uniformValues(50000, 0, 100, 2)
	h, err := BuildHistogram(vals, 20)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		op   string
		v    float64
		want float64
	}{
		{"<", 25, 0.25}, {"<", 50, 0.50}, {"<", 90, 0.90},
		{">", 75, 0.25}, {"<", -5, 0}, {"<", 200, 1},
	}
	for _, c := range cases {
		got, err := h.Selectivity(c.op, c.v)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-c.want) > 0.02 {
			t.Errorf("sel(col %s %g) = %.3f, want ~%.2f", c.op, c.v, got, c.want)
		}
	}
}

func TestHistogramSkewedData(t *testing.T) {
	// 90% of values are 0, the rest uniform in (0,100]: a fixed 1/3
	// range-selectivity guess would be badly wrong, the histogram is not.
	var vals []float64
	for i := 0; i < 9000; i++ {
		vals = append(vals, 0)
	}
	vals = append(vals, uniformValues(1000, 0.001, 100, 3)...)
	h, err := BuildHistogram(vals, 20)
	if err != nil {
		t.Fatal(err)
	}
	got := h.selectivityGreater(1)
	want := 0.099 // ~990 of 10000
	if math.Abs(got-want) > 0.03 {
		t.Errorf("sel(col > 1) = %.3f, want ~%.2f on skewed data", got, want)
	}
}

func TestHistogramEqUsesDistinct(t *testing.T) {
	vals := []float64{1, 1, 2, 2, 3, 3, 4, 4}
	h, err := BuildHistogram(vals, 4)
	if err != nil {
		t.Fatal(err)
	}
	if h.DistinctEst != 4 {
		t.Fatalf("distinct = %g, want 4", h.DistinctEst)
	}
	if got := h.selectivityEq(2); got != 0.25 {
		t.Errorf("eq selectivity = %g, want 0.25", got)
	}
	if got := h.selectivityEq(99); got != 0 {
		t.Errorf("out-of-range eq = %g, want 0", got)
	}
}

func TestHistogramUnknownOperator(t *testing.T) {
	h, _ := BuildHistogram([]float64{1, 2, 3}, 2)
	if _, err := h.Selectivity("~", 1); err == nil {
		t.Error("unknown operator accepted")
	}
}

// Property: selectivities are always within [0,1], and complementary ops sum
// to ~1.
func TestHistogramProperties(t *testing.T) {
	vals := uniformValues(5000, -50, 50, 4)
	h, err := BuildHistogram(vals, 16)
	if err != nil {
		t.Fatal(err)
	}
	f := func(raw int16) bool {
		v := float64(raw) / 100
		lt := h.selectivityLess(v)
		eq := h.selectivityEq(v)
		gt := h.selectivityGreater(v)
		if lt < 0 || lt > 1 || eq < 0 || eq > 1 || gt < 0 || gt > 1 {
			return false
		}
		return math.Abs(lt+eq+gt-1) < 0.02
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: selectivityLess is monotone.
func TestHistogramMonotone(t *testing.T) {
	vals := uniformValues(2000, 0, 10, 5)
	h, err := BuildHistogram(vals, 8)
	if err != nil {
		t.Fatal(err)
	}
	prev := -1.0
	for v := -1.0; v <= 11; v += 0.1 {
		s := h.selectivityLess(v)
		if s < prev-1e-12 {
			t.Fatalf("selectivityLess not monotone at %g", v)
		}
		prev = s
	}
}
