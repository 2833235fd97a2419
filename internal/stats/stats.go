// Package stats provides the statistics layer the cost-based fault-tolerance
// optimizer depends on: histogram selectivities, derivation of operator cost
// estimates tr(o)/tm(o) from cardinalities (paper Section 2.1: "typically
// these estimates are calculated based on input/output cardinalities of each
// operator"), the MTBF fit, and the perturbation helpers used by the
// robustness experiment (paper Table 3).
package stats

import (
	"fmt"

	"ftpde/internal/plan"
)

// CostParams converts cardinalities into partition-parallel cost estimates.
// All costs are "accumulated" per the paper: the wall time the operator
// contributes when executed in parallel over all partitions.
type CostParams struct {
	// CPUPerRow is the processing cost per input/output row touched, summed
	// over the cluster (seconds per row at CONSTcost = 1). The drift
	// detector's tr term (failure-free task wall against tr(c)) corrects it
	// online when live execution disagrees.
	CPUPerRow float64
	// WritePerRow is the cost per row written to the fault-tolerant storage
	// medium. The paper's setup writes to a shared iSCSI target over 1 GbE,
	// which is why this typically exceeds CPUPerRow by an order of magnitude.
	WritePerRow float64
	// Nodes is the partition parallelism: per-row costs are divided by it.
	Nodes int
}

// DefaultCostParams returns the uncalibrated per-row costs ftsql and ftserve
// plan with on a cluster of the given size; calibration (ftsql -calibrate,
// ftserve's drift detector) refines them.
func DefaultCostParams(nodes int) CostParams {
	return CostParams{CPUPerRow: 1e-6, WritePerRow: 1.7e-5, Nodes: nodes}
}

// Validate reports whether the parameters are usable.
func (c CostParams) Validate() error {
	if c.CPUPerRow <= 0 {
		return fmt.Errorf("stats: CPUPerRow must be positive, got %g", c.CPUPerRow)
	}
	if c.WritePerRow <= 0 {
		return fmt.Errorf("stats: WritePerRow must be positive, got %g", c.WritePerRow)
	}
	if c.Nodes <= 0 {
		return fmt.Errorf("stats: Nodes must be positive, got %d", c.Nodes)
	}
	return nil
}

// OpCosts derives (tr, tm) for an operator that touches workRows rows
// (inputs plus outputs) and emits outRows rows.
func (c CostParams) OpCosts(workRows, outRows float64) (tr, tm float64) {
	n := float64(c.Nodes)
	return workRows * c.CPUPerRow / n, outRows * c.WritePerRow / n
}

// ScaleRunCosts multiplies every operator's tr by factor. Combined with
// ScaleMatCosts it implements Table 3's "Compute & I/O costs x f"
// perturbation.
func ScaleRunCosts(p *plan.Plan, factor float64) {
	for _, op := range p.Operators() {
		op.RunCost *= factor
	}
}

// ScaleMatCosts multiplies every operator's tm by factor — Table 3's
// "I/O costs x f" perturbation.
func ScaleMatCosts(p *plan.Plan, factor float64) {
	for _, op := range p.Operators() {
		op.MatCost *= factor
	}
}

// CriticalPath returns the longest source-to-sink path length weighted by
// tr(o) only — the failure-free makespan of a fully pipelined plan under
// inter-operator parallelism, which serves as the baseline runtime in the
// paper's overhead metric.
func CriticalPath(p *plan.Plan) float64 {
	longest := make(map[plan.OpID]float64)
	order, err := p.TopoOrder()
	if err != nil {
		return 0
	}
	best := 0.0
	for _, id := range order {
		l := 0.0
		for _, pa := range p.Inputs(id) {
			if longest[pa] > l {
				l = longest[pa]
			}
		}
		l += p.Op(id).RunCost
		longest[id] = l
		if l > best {
			best = l
		}
	}
	return best
}

// NormalizeBaseline rescales all operator costs uniformly so the plan's
// critical path equals target. Used to calibrate synthetic TPC-H plans to
// the baseline runtimes the paper reports (e.g. Q5@SF100 = 905.33 s).
func NormalizeBaseline(p *plan.Plan, target float64) error {
	cur := CriticalPath(p)
	if cur <= 0 {
		return fmt.Errorf("stats: plan has zero critical path")
	}
	if target <= 0 {
		return fmt.Errorf("stats: target baseline must be positive, got %g", target)
	}
	f := target / cur
	ScaleRunCosts(p, f)
	ScaleMatCosts(p, f)
	return nil
}
