// Package cost implements the cost model of the cost-based fault-tolerance
// scheme (Section 3 of Salama et al., SIGMOD'15): collapsed-plan
// construction, per-operator runtime estimation under mid-query failures
// (wasted runtime, attempts for a target success percentile), execution-path
// costs and dominant-path selection.
package cost

import (
	"fmt"

	"ftpde/internal/failure"
	"ftpde/internal/plan"
)

// Model carries the statistics and constants the cost function needs
// (paper Listing 1, getCostStats): cluster MTBF/MTTR transformed to cost
// units, the target success percentile S, and CONSTpipe.
type Model struct {
	// MTBF is MTBFcost = MTBF * CONSTcost, the per-node mean time between
	// failures in cost units.
	MTBF float64
	// MTTR is MTTRcost, the mean time to repair (redeploy a sub-plan).
	MTTR float64
	// Percentile is S, the desired cumulative probability of success used to
	// size the number of attempts (paper: 0.95).
	Percentile float64
	// PipeConst is CONSTpipe in (0,1]: discounts the runtime of a collapsed
	// operator to reflect pipeline parallelism inside the collapsed sub-plan.
	// The paper calibrates it per engine; its XDB calibration yields 1.0.
	PipeConst float64
	// Nodes is the number of cluster nodes executing the plan. It is used by
	// pruning rule 2 (high probability of success), which requires the
	// collapsed operator to finish without failure on any node; 0 means 1.
	Nodes int
	// ExactWasted selects the exact Equation 3 for w(c) instead of the t/2
	// approximation of Equation 4 the paper uses. Kept for ablation.
	ExactWasted bool
	// RecoveryStretch scales the recovery-time terms w(c) and MTTR to price
	// recomputation against a loaded shared worker pool instead of an idle
	// cluster (set via UnderLoad; see load.go). Zero and 1 both mean
	// unscaled, keeping the zero value paper-faithful.
	RecoveryStretch float64
	// ClusterAware is an extension beyond the paper: it divides the MTBF by
	// the node count when estimating failure probabilities and attempts,
	// reflecting that a partition-parallel operator is delayed when any of
	// the n nodes fails. The paper's formulas use the per-node MTBF
	// directly (and consequently underestimate runtimes at low MTBFs, its
	// Figure 12a); this flag trades paper fidelity for accuracy.
	ClusterAware bool
}

// effMTBF returns the MTBF used for probability estimates.
func (m Model) effMTBF() float64 {
	if m.ClusterAware && m.Nodes > 1 {
		return m.MTBF / float64(m.Nodes)
	}
	return m.MTBF
}

// DefaultModel returns a model with the paper's evaluation constants
// (S = 0.95, CONSTpipe = 1, CONSTcost = 1) for the given cluster.
func DefaultModel(spec failure.Spec) Model {
	return Model{
		MTBF:       spec.MTBF,
		MTTR:       spec.MTTR,
		Percentile: failure.DefaultPercentile,
		PipeConst:  1.0,
		Nodes:      spec.Nodes,
	}
}

// Validate reports whether the model parameters are usable.
func (m Model) Validate() error {
	if m.MTBF <= 0 {
		return fmt.Errorf("cost: MTBF must be positive, got %g", m.MTBF)
	}
	if m.MTTR < 0 {
		return fmt.Errorf("cost: MTTR must be non-negative, got %g", m.MTTR)
	}
	if m.Percentile <= 0 || m.Percentile >= 1 {
		return fmt.Errorf("cost: percentile must be in (0,1), got %g", m.Percentile)
	}
	if m.PipeConst <= 0 || m.PipeConst > 1 {
		return fmt.Errorf("cost: CONSTpipe must be in (0,1], got %g", m.PipeConst)
	}
	if m.Nodes < 0 {
		return fmt.Errorf("cost: nodes must be non-negative, got %d", m.Nodes)
	}
	if m.RecoveryStretch < 0 {
		return fmt.Errorf("cost: recovery stretch must be non-negative, got %g", m.RecoveryStretch)
	}
	return nil
}

// OpCost is the per-collapsed-operator cost breakdown of Table 2.
type OpCost struct {
	// Total is t(c) = tr(c) + tm(c)*m(c).
	Total float64
	// Wasted is w(c), the expected runtime lost per failure (Eq. 3/4).
	Wasted float64
	// Gamma is the per-attempt success probability (Eq. 5 context).
	Gamma float64
	// Attempts is a(c), additional attempts to reach the percentile (Eq. 6).
	Attempts float64
	// Runtime is T(c) = t(c) + a(c)*w(c) + a(c)*MTTR (Eq. 8).
	Runtime float64
}

// OperatorCost evaluates the failure-aware runtime of one collapsed operator
// with total cost t (Equations 4, 5, 6 and 8).
func (m Model) OperatorCost(t float64) OpCost {
	mtbf := m.effMTBF()
	var w float64
	if m.ExactWasted {
		w = failure.WastedRuntimeExact(t, mtbf)
	} else {
		w = failure.WastedRuntimeApprox(t)
	}
	// Under shared-pool contention every recovery runs stretched: the lost
	// work and the repair both take longer when they compete for workers.
	if m.RecoveryStretch > 1 {
		w *= m.RecoveryStretch
	}
	mttr := m.MTTR
	if m.RecoveryStretch > 1 {
		mttr *= m.RecoveryStretch
	}
	gamma := failure.ProbSuccess(t, mtbf)
	a := failure.Attempts(t, mtbf, m.Percentile)
	return OpCost{
		Total:    t,
		Wasted:   w,
		Gamma:    gamma,
		Attempts: a,
		Runtime:  t + a*w + a*mttr,
	}
}

// PathCost aggregates the cost of one execution path through a collapsed
// plan.
type PathCost struct {
	// Path holds the collapsed-operator IDs (IDs in the collapsed plan).
	Path []plan.OpID
	// RunCost is RPt = sum of t(c), the path runtime without failures.
	RunCost float64
	// Runtime is TPt = sum of T(c), the path runtime under failures (Eq. 7).
	Runtime float64
	// Ops holds the per-operator breakdown aligned with Path.
	Ops []OpCost
}

// Estimate collapses p under its current materialization configuration and
// returns the dominant path cost (the maximal TPt over all source-to-sink
// paths of the collapsed plan) together with all path costs.
func (m Model) Estimate(p *plan.Plan) (dominant PathCost, all []PathCost, err error) {
	c, err := Collapse(p, m)
	if err != nil {
		return PathCost{}, nil, err
	}
	dom, all := m.EstimateCollapsed(c)
	return dom, all, nil
}

// EstimateCollapsed scores every execution path of an already-collapsed plan
// (Equations 7/8) and returns the dominant one. T(c) is evaluated once per
// collapsed operator, however many paths run through it.
func (m Model) EstimateCollapsed(c *Collapsed) (dominant PathCost, all []PathCost) {
	ops := make(map[plan.OpID]OpCost, c.P.Len())
	for _, op := range c.P.Operators() {
		ops[op.ID] = m.OperatorCost(op.TotalCost())
	}
	for _, path := range c.P.Paths() {
		pc := PathCost{Path: path}
		for _, id := range path {
			oc := ops[id]
			pc.Ops = append(pc.Ops, oc)
			pc.RunCost += oc.Total
			pc.Runtime += oc.Runtime
		}
		all = append(all, pc)
		if pc.Runtime > dominant.Runtime {
			dominant = pc
		}
	}
	return dominant, all
}

// EstimateRuntime is a convenience that returns only the dominant TPt.
func (m Model) EstimateRuntime(p *plan.Plan) (float64, error) {
	dom, _, err := m.Estimate(p)
	if err != nil {
		return 0, err
	}
	return dom.Runtime, nil
}
