package stats

import (
	"fmt"
	"math"
)

// MTBFEstimate is the exponential fit of a cluster's failure inter-arrival
// times (the paper's failure model).
type MTBFEstimate struct {
	// PerNode is the estimated per-node MTBF in seconds (the cost.Model
	// parameter): cluster mean inter-arrival × nodes, by the superposition
	// property of independent Poisson processes.
	PerNode float64 `json:"per_node"`
	// Lo and Hi bound PerNode at 95% confidence; both are zero until
	// WithInterval fills them.
	Lo float64 `json:"lo"`
	Hi float64 `json:"hi"`
	// Samples is the number of inter-arrival observations.
	Samples int `json:"samples"`
}

// Valid reports whether enough samples back the estimate.
func (m MTBFEstimate) Valid() bool { return m.Samples > 0 && m.PerNode > 0 }

// String renders the estimate as "2.029s (95% CI [1.895, 2.179], 784
// inter-arrivals)".
func (m MTBFEstimate) String() string {
	return fmt.Sprintf("%.4gs (95%% CI [%.4g, %.4g], %d inter-arrivals)", m.PerNode, m.Lo, m.Hi, m.Samples)
}

// FitMTBF fits an exponential to a cluster-level inter-arrival sample
// (seconds) for a cluster of the given size: the MLE of the mean is the
// sample mean. The interval is left to WithInterval, which costs two
// quantile inversions a rolling point estimate does not need.
func FitMTBF(interarrivals []float64, nodes int) MTBFEstimate {
	n := len(interarrivals)
	if n == 0 {
		return MTBFEstimate{}
	}
	var total float64
	for _, d := range interarrivals {
		total += d
	}
	return MTBFEstimate{PerNode: total / float64(n) * float64(max(nodes, 1)), Samples: n}
}

// WithInterval returns m with its exact 95% confidence interval: for n
// samples with sum T, 2T/θ is chi-square with 2n degrees of freedom, so
// θ ∈ [2T/χ²(0.975, 2n), 2T/χ²(0.025, 2n)], and 2T/θ̂ = 2n.
func (m MTBFEstimate) WithInterval() MTBFEstimate {
	if m.Samples == 0 {
		return m
	}
	df := 2 * m.Samples
	m.Lo = m.PerNode * float64(df) / chiSquareQuantile(0.975, df)
	m.Hi = m.PerNode * float64(df) / chiSquareQuantile(0.025, df)
	return m
}

// chiSquareQuantile inverts chiSquareCDF for an even df by bisection, to a
// relative width of 1e-12.
func chiSquareQuantile(p float64, df int) float64 {
	n := df / 2
	lo, hi := 0.0, float64(df)
	for chiSquareCDF(hi, n) < p {
		lo, hi = hi, 2*hi
	}
	for hi-lo > 1e-12*hi {
		mid := (lo + hi) / 2
		if chiSquareCDF(mid, n) < p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// chiSquareCDF is P(X ≤ x) for X chi-square with 2n degrees of freedom:
// 1 − Σ_{j<n} e^{−λ}λ^j/j! with λ = x/2. The Poisson terms are summed
// outward from the largest one, relative to it, and scaled back in log
// space, so n in the tens of thousands neither underflows nor walks all n
// terms.
func chiSquareCDF(x float64, n int) float64 {
	if x <= 0 {
		return 0
	}
	lambda := x / 2
	top := min(n-1, int(lambda))
	lg, _ := math.Lgamma(float64(top + 1))
	logTop := -lambda + float64(top)*math.Log(lambda) - lg
	sum, t := 1.0, 1.0
	for j := top; j > 0 && t > 1e-17*sum; j-- {
		t *= float64(j) / lambda
		sum += t
	}
	t = 1
	for j := top + 1; j < n && t > 1e-17*sum; j++ {
		t *= lambda / float64(j)
		sum += t
	}
	return 1 - math.Exp(logTop+math.Log(sum))
}
