package failure

import (
	"math"
	"reflect"
	"testing"
)

func TestTraceDeterministic(t *testing.T) {
	spec := Spec{Nodes: 5, MTBF: 100, MTTR: 1}
	a := NewTrace(spec, 10000, 42)
	b := NewTrace(spec, 10000, 42)
	if a.TotalFailures() != b.TotalFailures() {
		t.Fatal("same seed produced different traces")
	}
	for i := range a.PerNode {
		for j := range a.PerNode[i] {
			if a.PerNode[i][j] != b.PerNode[i][j] {
				t.Fatal("same seed produced different failure times")
			}
		}
	}
	c := NewTrace(spec, 10000, 43)
	if a.TotalFailures() == c.TotalFailures() && a.TotalFailures() > 0 {
		same := true
		for i := range a.PerNode {
			if len(a.PerNode[i]) != len(c.PerNode[i]) {
				same = false
				break
			}
			for j := range a.PerNode[i] {
				if a.PerNode[i][j] != c.PerNode[i][j] {
					same = false
				}
			}
		}
		if same {
			t.Fatal("different seeds produced identical traces")
		}
	}
}

func TestTraceValidateAndRate(t *testing.T) {
	spec := Spec{Nodes: 20, MTBF: 50, MTTR: 1}
	horizon := 100000.0
	tr := NewTrace(spec, horizon, 7)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// Expected failures per node = horizon/MTBF = 2000; allow 10% slack.
	want := horizon / spec.MTBF * float64(spec.Nodes)
	got := float64(tr.TotalFailures())
	if math.Abs(got-want)/want > 0.10 {
		t.Errorf("empirical failure count %g deviates from expectation %g by >10%%", got, want)
	}
}

func TestNextFailure(t *testing.T) {
	tr := &Trace{PerNode: [][]float64{{1, 5, 9}, {2}}}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		node int
		t    float64
		want float64
	}{
		{0, 0, 1}, {0, 1, 1}, {0, 1.5, 5}, {0, 9.5, math.Inf(1)},
		{1, 0, 2}, {1, 3, math.Inf(1)},
		{5, 0, math.Inf(1)}, // out of range node
	}
	for _, c := range cases {
		if got := tr.NextFailure(c.node, c.t); got != c.want {
			t.Errorf("NextFailure(%d,%g)=%g want %g", c.node, c.t, got, c.want)
		}
	}
	ft, node := tr.NextClusterFailure(1.5)
	if ft != 2 || node != 1 {
		t.Errorf("NextClusterFailure(1.5)=(%g,%d) want (2,1)", ft, node)
	}
	ft, node = tr.NextClusterFailure(100)
	if !math.IsInf(ft, 1) || node != -1 {
		t.Errorf("NextClusterFailure(100)=(%g,%d) want (+Inf,-1)", ft, node)
	}
}

func TestNewTraces(t *testing.T) {
	spec := Spec{Nodes: 3, MTBF: 10, MTTR: 0}
	traces := NewTraces(spec, 1000, 1, 10)
	if len(traces) != 10 {
		t.Fatalf("want 10 traces, got %d", len(traces))
	}
	for i, tr := range traces {
		if tr.Nodes() != 3 {
			t.Errorf("trace %d has %d nodes", i, tr.Nodes())
		}
		if err := tr.Validate(); err != nil {
			t.Errorf("trace %d: %v", i, err)
		}
	}
}

func TestTraceInvalid(t *testing.T) {
	tr := &Trace{PerNode: [][]float64{{3, 2}}}
	if err := tr.Validate(); err == nil {
		t.Error("non-increasing trace accepted")
	}
}

func TestWeibullTraceMeanMatchesMTBF(t *testing.T) {
	spec := Spec{Nodes: 8, MTBF: 50, MTTR: 1}
	horizon := 100000.0
	for _, shape := range []float64{0.7, 1.0, 1.5, 3.0} {
		tr, err := NewWeibullTrace(spec, horizon, 11, shape)
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Validate(); err != nil {
			t.Fatal(err)
		}
		want := horizon / spec.MTBF * float64(spec.Nodes)
		got := float64(tr.TotalFailures())
		if math.Abs(got-want)/want > 0.10 {
			t.Errorf("shape %g: %g failures, want ~%g (mean must stay MTBF)", shape, got, want)
		}
	}
}

func TestWeibullShapeOneMatchesExponentialStatistics(t *testing.T) {
	spec := Spec{Nodes: 4, MTBF: 20, MTTR: 1}
	tr, err := NewWeibullTrace(spec, 50000, 3, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	// Coefficient of variation of inter-arrival gaps ~1 for exponential.
	var gaps []float64
	for _, times := range tr.PerNode {
		prev := 0.0
		for _, ft := range times {
			gaps = append(gaps, ft-prev)
			prev = ft
		}
	}
	mean, varsum := 0.0, 0.0
	for _, g := range gaps {
		mean += g
	}
	mean /= float64(len(gaps))
	for _, g := range gaps {
		varsum += (g - mean) * (g - mean)
	}
	cv := math.Sqrt(varsum/float64(len(gaps))) / mean
	if math.Abs(cv-1) > 0.1 {
		t.Errorf("shape=1 coefficient of variation = %g, want ~1", cv)
	}
}

func TestWeibullShapeThreeIsRegular(t *testing.T) {
	// Wear-out failures are more regular: CV well below 1.
	spec := Spec{Nodes: 4, MTBF: 20, MTTR: 1}
	tr, err := NewWeibullTrace(spec, 50000, 3, 3.0)
	if err != nil {
		t.Fatal(err)
	}
	var gaps []float64
	for _, times := range tr.PerNode {
		prev := 0.0
		for _, ft := range times {
			gaps = append(gaps, ft-prev)
			prev = ft
		}
	}
	mean, varsum := 0.0, 0.0
	for _, g := range gaps {
		mean += g
	}
	mean /= float64(len(gaps))
	for _, g := range gaps {
		varsum += (g - mean) * (g - mean)
	}
	cv := math.Sqrt(varsum/float64(len(gaps))) / mean
	if cv > 0.6 {
		t.Errorf("shape=3 coefficient of variation = %g, want < 0.6", cv)
	}
}

func TestWeibullValidation(t *testing.T) {
	spec := Spec{Nodes: 2, MTBF: 10, MTTR: 1}
	if _, err := NewWeibullTrace(spec, 100, 1, 0); err == nil {
		t.Error("shape 0 accepted")
	}
	if _, err := NewWeibullTraces(spec, 100, 1, 3, -1); err == nil {
		t.Error("negative shape accepted")
	}
	trs, err := NewWeibullTraces(spec, 100, 1, 3, 1.2)
	if err != nil || len(trs) != 3 {
		t.Errorf("NewWeibullTraces failed: %v", err)
	}
}

func TestTraceFrom(t *testing.T) {
	tr := &Trace{PerNode: [][]float64{{1, 3, 5}, {}, {2}}}
	got := tr.From(3)
	want := [][]float64{{0, 2}, nil, nil}
	if !reflect.DeepEqual(got.PerNode, want) {
		t.Fatalf("From(3) = %v, want %v", got.PerNode, want)
	}
	if n := tr.From(0).TotalFailures(); n != 4 {
		t.Errorf("From(0) kept %d arrivals, want 4", n)
	}
}
