package sql

import (
	"ftpde/internal/core"
	"ftpde/internal/cost"
	"ftpde/internal/engine"
	"ftpde/internal/obs"
	"ftpde/internal/plan"
	"ftpde/internal/stats"
)

// AuditPlan couples a compiled physical plan with the fault-tolerance
// optimizer's forecast for it. Both are built from one resolved statement,
// slot by slot: each operator of the cost plan is one slot (a scan, a join,
// the aggregate, the sort/limit), and Ops holds the engine operators that
// execute it. The physical plan carries the optimizer's materialization
// choice, and Pred is the plan-time capture of the cost model's
// per-collapsed-operator predictions, with the engine operator names
// obs.BuildAudit joins against observed spans.
type AuditPlan struct {
	// Phys is the executable plan with the optimizer's MatConfig applied.
	Phys *PhysicalPlan
	// Opt is the optimizer's result over the written-order cost plan.
	Opt *core.Result
	// Pred is the prediction capture for obs.BuildAudit.
	Pred obs.Prediction
	// Ops maps each operator of Opt.Plan to the engine operators of Phys it
	// executes as: the unpriced post-join filter and projection placed with
	// it, then its own in execution order. The last carries its
	// materialization flag.
	Ops map[plan.OpID][]engine.Operator
}

// BuildAuditPlan compiles stmt and predicts its execution: the written-order
// cost plan (the shape Compile produces) is run through the fault-tolerance
// optimizer, the winning materialization configuration is applied to the
// physical operators, and every collapsed operator's tr/tm/t/a/T forecast is
// captured with the engine operators it will execute as.
//
// The audit deliberately scores the written join order rather than phase 1's
// enumerated orders: -explain-analyze audits the plan that actually runs,
// and Compile always builds the left-deep chain in written order.
func BuildAuditPlan(stmt *SelectStmt, cat *engine.Catalog, tstats map[string]TableStats, cp stats.CostParams, m cost.Model) (*AuditPlan, error) {
	r, err := resolve(stmt, cat)
	if err != nil {
		return nil, err
	}
	pr, err := r.priced(tstats, cp)
	if err != nil {
		return nil, err
	}
	p, ids := pr.writtenOrder()
	res, err := core.Optimize(p, core.Options{Model: m, MemoizePaths: true})
	if err != nil {
		return nil, err
	}
	pp, slots, err := r.compile()
	if err != nil {
		return nil, err
	}
	ops := make(map[plan.OpID][]engine.Operator, len(ids))
	for i, id := range ids {
		ops[id] = slots[i].ops
		if res.Plan.Op(id).Materialize {
			slots[i].mat.SetMaterialize(true)
		}
	}
	pred, err := buildPrediction(res.Plan, m, ops)
	if err != nil {
		return nil, err
	}
	return &AuditPlan{Phys: pp, Opt: res, Pred: pred, Ops: ops}, nil
}

// buildPrediction collapses the optimized cost plan and captures every
// collapsed operator's forecast together with the dominant path.
func buildPrediction(p *plan.Plan, m cost.Model, ops map[plan.OpID][]engine.Operator) (obs.Prediction, error) {
	c, err := cost.Collapse(p, m)
	if err != nil {
		return obs.Prediction{}, err
	}
	dom, _ := m.EstimateCollapsed(c)
	onDominant := make(map[plan.OpID]bool, len(dom.Path))
	for _, cid := range dom.Path {
		onDominant[cid] = true
	}
	order, err := c.P.TopoOrder()
	if err != nil {
		return obs.Prediction{}, err
	}
	pred := obs.Prediction{DominantRuntime: dom.Runtime, MTTR: m.MTTR}
	for _, cid := range order {
		op := c.P.Op(cid)
		oc := m.OperatorCost(op.TotalCost())
		var engNames []string
		for _, member := range c.Members[cid] {
			for _, op := range ops[member] {
				engNames = append(engNames, op.Name())
			}
		}
		pred.Ops = append(pred.Ops, obs.OpPrediction{
			Name:        op.Name,
			Ops:         engNames,
			TR:          op.RunCost,
			TM:          op.MatCost,
			Total:       oc.Total,
			Wasted:      oc.Wasted,
			Attempts:    oc.Attempts,
			Runtime:     oc.Runtime,
			Materialize: op.Materialize,
			Dominant:    onDominant[cid],
		})
	}
	return pred, nil
}
