package cost

import "math"

// The expected-runtime formulas multiply long chains of probabilities and
// exponentials (paper §5), so two costs computed along different routes
// rarely agree to the last bit. ApproxEq is the comparison for such values;
// a cost recomputed along the same route is compared exactly, since the
// optimizer's determinism is bit for bit.

// epsilon is the tolerance ApproxEq uses: generous enough to absorb
// accumulated rounding across a plan-sized product of probabilities, tight
// enough to distinguish genuinely different costs.
const epsilon = 1e-9

// ApproxEq reports whether two cost-model values are equal within
// epsilon, absolutely for small magnitudes and relatively for large
// ones.
func ApproxEq(a, b float64) bool {
	return approxEqEps(a, b, epsilon)
}

// approxEqEps is ApproxEq with an explicit tolerance.
func approxEqEps(a, b, eps float64) bool {
	// Fast path for identical values, including ±Inf.
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	if diff <= eps {
		return true
	}
	return diff <= eps*math.Max(math.Abs(a), math.Abs(b))
}
