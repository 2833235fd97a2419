package failure

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool {
	return math.Abs(a-b) <= eps
}

// attempts is AttemptsLn at success percentile s.
func attempts(t, mtbf, s float64) float64 { return AttemptsLn(t, mtbf, math.Log(1-s)) }

// cumulativeSuccess returns S(A <= N) = 1 - eta^(N+1), the probability that
// an operator with per-attempt failure probability eta succeeds within N
// additional attempts (Equation 5's closed form).
func cumulativeSuccess(eta float64, n float64) float64 {
	if eta <= 0 {
		return 1
	}
	if eta >= 1 {
		return 0
	}
	return 1 - math.Pow(eta, n+1)
}

func TestProbFailureWithinBounds(t *testing.T) {
	cases := []struct {
		t, mtbf float64
	}{
		{0, 100}, {1, 100}, {100, 100}, {1e6, 100}, {5, 0.1},
	}
	for _, c := range cases {
		p := probFailureWithin(c.t, c.mtbf)
		if p < 0 || p > 1 {
			t.Errorf("ProbFailureWithin(%g,%g)=%g out of [0,1]", c.t, c.mtbf, p)
		}
	}
}

func TestProbSuccessComplement(t *testing.T) {
	for _, tt := range []float64{0, 0.5, 10, 1000} {
		s := ProbSuccess(tt, 60)
		f := probFailureWithin(tt, 60)
		if !almostEqual(s+f, 1, 1e-12) {
			t.Errorf("gamma+eta != 1 for t=%g: %g", tt, s+f)
		}
	}
}

// The paper's Table 2 example: MTBF=60, t({1,2,3})=4 gives gamma≈0.94.
func TestTable2Probabilities(t *testing.T) {
	cases := []struct {
		t, want float64
	}{
		{4, 0.94}, {3, 0.95}, {1, 0.98}, {2, 0.96},
	}
	for _, c := range cases {
		got := ProbSuccess(c.t, 60)
		// Paper rounds to two decimals (and rounds 0.9672 down to 0.96).
		if !almostEqual(got, c.want, 0.0101) {
			t.Errorf("ProbSuccess(%g,60)=%g want ~%g", c.t, got, c.want)
		}
	}
}

func TestProbClusterSuccessFigure1Shape(t *testing.T) {
	// Figure 1: cluster 1 (MTBF=1h, n=100) has a very low success probability
	// even for short queries; cluster 4 (MTBF=1w, n=10) is always high.
	tenMin := 10.0 * 60
	c1 := ProbClusterSuccess(tenMin, OneHour, 100)
	c4 := ProbClusterSuccess(tenMin, OneWeek, 10)
	if c1 > 0.01 {
		t.Errorf("cluster1 10-min success = %g, want < 1%%", c1)
	}
	if c4 < 0.99 {
		t.Errorf("cluster4 10-min success = %g, want > 99%%", c4)
	}
	// Monotone decreasing in t.
	prev := 1.0
	for m := 0; m <= 160; m += 10 {
		p := ProbClusterSuccess(float64(m)*60, OneHour, 10)
		if p > prev {
			t.Fatalf("success probability not monotone at t=%dmin", m)
		}
		prev = p
	}
}

func TestWastedRuntimeExactLimit(t *testing.T) {
	// Limit analysis (Eq. 4): w(c) -> t/2 for MTBF -> inf.
	tOp := 10.0
	w := WastedRuntimeExact(tOp, 1e12)
	if !almostEqual(w, tOp/2, 1e-3) {
		t.Errorf("w -> t/2 limit violated: got %g", w)
	}
	// Already for MTBF > t the exact value is close to t/2 (paper text).
	w2 := WastedRuntimeExact(tOp, 2*tOp)
	if math.Abs(w2-tOp/2)/(tOp/2) > 0.25 {
		t.Errorf("w at MTBF=2t = %g, not within 25%% of t/2", w2)
	}
}

func TestWastedRuntimeExactSmallX(t *testing.T) {
	// The series branch and closed form must agree around the switch point.
	mtbf := 1.0
	for _, x := range []float64{1e-7, 9.9e-7, 1.01e-6, 1e-5} {
		tt := x * mtbf
		w := WastedRuntimeExact(tt, mtbf)
		if !almostEqual(w, tt/2, tt*1e-3) {
			t.Errorf("w(%g,%g)=%g want ~t/2=%g", tt, mtbf, w, tt/2)
		}
	}
}

func TestWastedRuntimeProperties(t *testing.T) {
	// 0 <= w(c) <= t/2 for all positive t, mtbf (failures arrive memoryless,
	// so the expected loss is at most half the operator runtime).
	f := func(tRaw, mRaw uint16) bool {
		tt := float64(tRaw)/100 + 0.01
		mtbf := float64(mRaw)/10 + 0.01
		w := WastedRuntimeExact(tt, mtbf)
		return w >= 0 && w <= tt/2+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAttemptsTable2(t *testing.T) {
	// Exact arithmetic: t=4, MTBF=60, S=0.95 -> a = ln(0.05)/ln(eta) - 1.
	a := attempts(4, 60, 0.95)
	if !almostEqual(a, 0.0928, 0.001) {
		t.Errorf("attempts(4,60,.95)=%g want ~0.0928 (paper reports 0.0648 from rounded gamma)", a)
	}
	// With the paper's rounded eta=0.06 we reproduce their 0.0648.
	aPaper := math.Log(0.05)/math.Log(0.06) - 1
	if !almostEqual(aPaper, 0.0648, 0.0001) {
		t.Errorf("rounded-eta attempts = %g want 0.0648", aPaper)
	}
	// Short operators need no additional attempts at this percentile.
	for _, tt := range []float64{3, 1, 2} {
		if a := attempts(tt, 60, 0.95); a != 0 {
			t.Errorf("attempts(%g,60,.95)=%g want 0", tt, a)
		}
	}
}

func TestAttemptsMonotone(t *testing.T) {
	prev := -1.0
	for tt := 1.0; tt < 500; tt += 7 {
		a := attempts(tt, 60, 0.95)
		if a < prev {
			t.Fatalf("Attempts not monotone in t at t=%g: %g < %g", tt, a, prev)
		}
		prev = a
	}
}

func TestCumulativeSuccessClosedForm(t *testing.T) {
	// Compare the closed form against the explicit geometric series.
	eta := 0.3
	gamma := 1 - eta
	for n := 0; n < 10; n++ {
		sum := 0.0
		for k := 0; k <= n; k++ {
			sum += math.Pow(eta, float64(k)) * gamma
		}
		if !almostEqual(sum, cumulativeSuccess(eta, float64(n)), 1e-12) {
			t.Errorf("closed form mismatch at N=%d", n)
		}
	}
	// N -> inf: every operator eventually succeeds.
	if !almostEqual(cumulativeSuccess(0.99, 1e6), 1, 1e-6) {
		t.Error("cumulative success should approach 1")
	}
}

func TestAttemptsReachTargetPercentile(t *testing.T) {
	// Property: after ceil(a) attempts the cumulative success is >= S.
	f := func(tRaw, mRaw uint8) bool {
		tt := float64(tRaw) + 1
		mtbf := float64(mRaw) + 1
		s := 0.95
		eta := probFailureWithin(tt, mtbf)
		if eta >= 1-1e-12 {
			// Degenerate regime: eta rounds to 1 in float64 and no finite
			// number of attempts reaches the percentile.
			return true
		}
		a := attempts(tt, mtbf, s)
		return cumulativeSuccess(eta, a) >= s-1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSpecValidate(t *testing.T) {
	good := Spec{Nodes: 10, MTBF: OneDay, MTTR: 1}
	if err := good.Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
	bad := []Spec{
		{Nodes: 0, MTBF: 1},
		{Nodes: 1, MTBF: 0},
		{Nodes: 1, MTBF: 1, MTTR: -1},
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("invalid spec accepted: %+v", s)
		}
	}
}

func TestFormatDuration(t *testing.T) {
	cases := map[float64]string{
		OneWeek:       "1w",
		OneDay:        "1d",
		OneHour:       "1h",
		ThirtyMinutes: "30min",
		OneMonth:      "1mo",
		90:            "90s",
	}
	for in, want := range cases {
		if got := FormatDuration(in); got != want {
			t.Errorf("FormatDuration(%g)=%q want %q", in, got, want)
		}
	}
}

func TestExpectedRestartRuntime(t *testing.T) {
	// No failures expected: E[T] -> t for MTBF >> t.
	if got := ExpectedRestartRuntime(10, 1e12, 1, 1); math.Abs(got-10) > 0.01 {
		t.Errorf("E[T] = %g, want ~10", got)
	}
	// Known value: t=905.33, MTBF=3600, n=10, MTTR=1:
	// lambda=1/360, e^2.5148=12.36 -> (12.36-1)*(361) ~ 4103.
	got := ExpectedRestartRuntime(905.33, 3600, 1, 10)
	if math.Abs(got-4102) > 5 {
		t.Errorf("E[T] = %g, want ~4102", got)
	}
	// Monotone in t and in n.
	if ExpectedRestartRuntime(100, 1000, 1, 1) >= ExpectedRestartRuntime(200, 1000, 1, 1) {
		t.Error("E[T] not monotone in t")
	}
	if ExpectedRestartRuntime(100, 1000, 1, 1) >= ExpectedRestartRuntime(100, 1000, 1, 10) {
		t.Error("E[T] not monotone in n")
	}
	if ExpectedRestartRuntime(0, 1000, 1, 1) != 0 {
		t.Error("zero-length task should take no time")
	}
	// n < 1 clamps to 1.
	if ExpectedRestartRuntime(100, 1000, 1, 0) != ExpectedRestartRuntime(100, 1000, 1, 1) {
		t.Error("n=0 should behave like n=1")
	}
}
