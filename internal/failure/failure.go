// Package failure implements the failure model of Salama et al. (SIGMOD'15):
// exponential inter-arrival times between independent node failures, modeled
// as a Poisson process per node.
//
// All durations in this package are expressed as abstract cost units. In the
// paper, MTBFcost = MTBF * CONSTcost transforms wall-clock MTBF into the
// engine's internal cost scale; with CONSTcost = 1 (as used in the paper's
// evaluation) cost units are seconds.
package failure

import (
	"fmt"
	"math"
)

// DefaultPercentile is the success percentile S used throughout the paper's
// evaluation ("we use S = 0.95, i.e. the 95th percentile, that is often used
// in literature to represent the worst case").
const DefaultPercentile = 0.95

// probFailureWithin returns F(t) = 1 - e^(-t/mtbf), the probability that a
// single node fails at least once within time interval t.
func probFailureWithin(t, mtbf float64) float64 {
	if t <= 0 {
		return 0
	}
	if mtbf <= 0 {
		return 1
	}
	return 1 - math.Exp(-t/mtbf)
}

// ProbSuccess returns gamma(t) = e^(-t/mtbf), the probability that a single
// node survives time interval t without failure.
func ProbSuccess(t, mtbf float64) float64 {
	return 1 - probFailureWithin(t, mtbf)
}

// ProbClusterSuccess returns the probability that none of n nodes with
// independent failure rates fails within time t:
//
//	P(N^n_t = 0) = e^(-t*n/MTBF)
//
// This is the quantity plotted in Figure 1 of the paper.
func ProbClusterSuccess(t, mtbf float64, n int) float64 {
	if n <= 0 {
		return 1
	}
	return math.Exp(-t * float64(n) / mtbf)
}

// WastedRuntimeExact returns w(c), the expected runtime lost by a single
// failure that occurs during the execution of an operator with total runtime
// t (Equation 3 in the paper):
//
//	w(c) = MTBF - t / (e^(t/MTBF) - 1)
//
// The result does not depend on the operator's start time because the failure
// process is stationary.
func WastedRuntimeExact(t, mtbf float64) float64 {
	if t <= 0 {
		return 0
	}
	if mtbf <= 0 {
		return 0
	}
	x := t / mtbf
	// For very small x, e^x-1 ~ x + x^2/2 and the closed form cancels badly;
	// use the series expansion w = t/2 - t*x/12 + O(x^3) instead.
	if x < 1e-6 {
		return t/2 - t*x/12
	}
	return mtbf - t/(math.Expm1(x))
}

// WastedRuntimeApprox returns the t/2 approximation of w(c) (Equation 4).
// The paper shows that already for MTBF > t the exact value is close to t/2,
// and uses this approximation in the cost model for speed.
func WastedRuntimeApprox(t float64) float64 {
	if t <= 0 {
		return 0
	}
	return t / 2
}

// AttemptsLn returns a(c), the number of additional attempts (beyond the
// first) needed for an operator with total runtime t to reach the desired
// cumulative success probability S under the given MTBF (Equation 6):
//
//	a(c) = max(ln(1-S)/ln(eta) - 1, 0)
//
// where eta = 1 - e^(-t/MTBF) is the per-attempt failure probability. The
// caller evaluates many t at one S and passes lnMiss = ln(1-S) once.
func AttemptsLn(t, mtbf, lnMiss float64) float64 {
	if t <= 0 {
		return 0
	}
	eta := probFailureWithin(t, mtbf)
	if eta <= 0 {
		return 0
	}
	if eta >= 1 {
		return math.Inf(1)
	}
	a := lnMiss/math.Log(eta) - 1
	if a < 0 || math.IsNaN(a) {
		return 0
	}
	return a
}

// ExpectedRestartRuntime returns the expected completion time of a task of
// length t under restart-on-failure recovery on n nodes, where any node's
// failure restarts the task and repair takes mttr:
//
//	E[T] = (e^(t*n/MTBF) - 1) * (MTBF/n + MTTR)
//
// This is the classic closed form for restarted execution under Poisson
// failures; it models the coarse-grained no-mat(restart) scheme exactly.
func ExpectedRestartRuntime(t, mtbf, mttr float64, n int) float64 {
	if t <= 0 {
		return 0
	}
	if n < 1 {
		n = 1
	}
	lambda := float64(n) / mtbf
	return math.Expm1(lambda*t) * (1/lambda + mttr)
}

// Spec describes a homogeneous shared-nothing cluster for the purposes of the
// failure model: the number of nodes participating in query execution, the
// per-node mean time between failures, and the mean time to repair (redeploy)
// a failed sub-plan. MTBF and MTTR are in cost units (seconds when
// CONSTcost = 1).
type Spec struct {
	Nodes int
	MTBF  float64
	MTTR  float64
}

// Validate reports whether the spec is usable.
func (s Spec) Validate() error {
	if s.Nodes <= 0 {
		return fmt.Errorf("failure: cluster must have at least one node, got %d", s.Nodes)
	}
	if s.MTBF <= 0 {
		return fmt.Errorf("failure: MTBF must be positive, got %g", s.MTBF)
	}
	if s.MTTR < 0 {
		return fmt.Errorf("failure: MTTR must be non-negative, got %g", s.MTTR)
	}
	return nil
}

// String implements fmt.Stringer.
func (s Spec) String() string {
	return fmt.Sprintf("cluster{n=%d, MTBF=%s, MTTR=%s}", s.Nodes, FormatDuration(s.MTBF), FormatDuration(s.MTTR))
}

// Common MTBF values used across the paper's experiments, in seconds.
const (
	ThirtyMinutes = 30 * 60
	OneHour       = 60 * 60
	OneDay        = 24 * OneHour
	OneWeek       = 7 * OneDay
	OneMonth      = 30 * OneDay
)

// FormatDuration renders a cost-unit duration (seconds at CONSTcost=1) using
// the units the paper uses in its figures.
func FormatDuration(sec float64) string {
	switch {
	case sec >= OneMonth && math.Mod(sec, OneMonth) == 0:
		return fmt.Sprintf("%gmo", sec/OneMonth)
	case sec >= OneWeek && math.Mod(sec, OneWeek) == 0:
		return fmt.Sprintf("%gw", sec/OneWeek)
	case sec >= OneDay && math.Mod(sec, OneDay) == 0:
		return fmt.Sprintf("%gd", sec/OneDay)
	case sec >= OneHour && math.Mod(sec, OneHour) == 0:
		return fmt.Sprintf("%gh", sec/OneHour)
	case sec >= 60 && math.Mod(sec, 60) == 0:
		return fmt.Sprintf("%gmin", sec/60)
	default:
		return fmt.Sprintf("%gs", sec)
	}
}
