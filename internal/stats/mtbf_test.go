package stats

import (
	"math"
	"math/rand"
	"testing"
)

func TestMTBFRecoversExponentialRate(t *testing.T) {
	// Cluster of 10 nodes with per-node MTBF 3600s: cluster inter-arrivals
	// are exponential with mean 360s.
	const nodes, perNode = 10, 3600.0
	rng := rand.New(rand.NewSource(42))
	gaps := make([]float64, 800)
	for i := range gaps {
		gaps[i] = rng.ExpFloat64() * perNode / nodes
	}
	est := FitMTBF(gaps, nodes).WithInterval()
	if !est.Valid() {
		t.Fatalf("estimate invalid: %+v", est)
	}
	if rel := math.Abs(est.PerNode-perNode) / perNode; rel > 0.10 {
		t.Errorf("per-node MTBF = %g, want %g within 10%% (rel %.3f)", est.PerNode, perNode, rel)
	}
	if est.Lo >= est.Hi {
		t.Errorf("CI inverted: [%g, %g]", est.Lo, est.Hi)
	}
	if perNode < est.Lo || perNode > est.Hi {
		t.Errorf("true MTBF %g outside 95%% CI [%g, %g]", perNode, est.Lo, est.Hi)
	}
	// With n=800 the CI must be reasonably tight (relative width well under
	// the ±20% acceptance band).
	if width := (est.Hi - est.Lo) / est.PerNode; width > 0.30 {
		t.Errorf("CI too wide for n=800: relative width %.3f", width)
	}
}

func TestChiSquareQuantileAccuracy(t *testing.T) {
	// Reference values: R's qchisq(p, df), printed to 7 significant digits.
	// df 2, 4 and 6 are the MTBF interval after one, two and three
	// inter-arrivals, where a normal approximation is off by up to 48%.
	cases := []struct {
		p    float64
		df   int
		want float64
	}{
		{0.025, 2, 0.05063562},
		{0.975, 2, 7.377759},
		{0.025, 4, 0.4844186},
		{0.975, 4, 11.14329},
		{0.025, 6, 1.237344},
		{0.975, 6, 14.44938},
		{0.975, 10, 20.48318},
		{0.025, 10, 3.246973},
		{0.975, 100, 129.5612},
		{0.025, 100, 74.22193},
		// 32,000 inter-arrivals: e^{-x/2} underflows, so only a sum kept in
		// log space gets here. Wilson–Hilferty agrees to 1e-7 at this df.
		{0.025, 64000, 63300.68},
		{0.975, 64000, 64703.11},
	}
	for _, c := range cases {
		got := chiSquareQuantile(c.p, c.df)
		if rel := math.Abs(got-c.want) / c.want; rel > 1e-5 {
			t.Errorf("chi2(%g, %d) = %.7g, want %.7g (rel %.2g)", c.p, c.df, got, c.want, rel)
		}
	}
}
