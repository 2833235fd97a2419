package join

import (
	"ftpde/internal/plan"
)

// Coster derives operator cost estimates (tr, tm) from cardinalities when a
// join tree is converted into an execution plan. Implementations typically
// scale per-row CPU and I/O constants (see the stats package).
type Coster interface {
	// ScanCosts returns (tr, tm) for scanning the relation.
	ScanCosts(rel Relation) (run, mat float64)
	// JoinCosts returns (tr, tm) for a join producing outCard rows from
	// inputs of leftCard and rightCard rows.
	JoinCosts(leftCard, rightCard, outCard float64) (run, mat float64)
}

// ToPlan converts a join tree into a DAG-structured execution plan: one scan
// operator per leaf, one hash-join operator per inner node, all free and
// non-materialized (the fault-tolerance optimizer decides materialization).
// It returns the plan and the root operator's ID so callers can stack
// aggregations or sinks on top.
func ToPlan(t *Tree, g *Graph, c Coster) (*plan.Plan, plan.OpID) {
	p := plan.New()
	root, _ := addTree(p, t, g, c)
	return p, root
}

// addTree adds t's operators to p and returns t's root operator and its
// rendering (Tree.render with g), which names the join above it.
func addTree(p *plan.Plan, t *Tree, g *Graph, c Coster) (plan.OpID, string) {
	if t.IsLeaf() {
		rel := g.rels[t.Rel]
		run, mat := c.ScanCosts(rel)
		return p.Add(plan.Operator{
			Name: "Scan " + rel.Name, Kind: plan.KindScan,
			RunCost: run, MatCost: mat, Rows: rel.Rows,
		}), rel.Name
	}
	l, ln := addTree(p, t.Left, g, c)
	r, rn := addTree(p, t.Right, g, c)
	name := "Join (" + ln + " JOIN " + rn + ")"
	run, mat := c.JoinCosts(t.Left.Card, t.Right.Card, t.Card)
	id := p.Add(plan.Operator{
		Name: name, Kind: plan.KindHashJoin,
		RunCost: run, MatCost: mat, Rows: t.Card,
	})
	p.MustConnect(l, id)
	p.MustConnect(r, id)
	return id, name[len("Join "):]
}
