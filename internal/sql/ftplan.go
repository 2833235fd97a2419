package sql

import (
	"fmt"
	"math"

	"ftpde/internal/core"
	"ftpde/internal/cost"
	"ftpde/internal/engine"
	"ftpde/internal/join"
	"ftpde/internal/plan"
	"ftpde/internal/stats"
)

// FTPlan implements the paper's full enumFTPlans pipeline for a SQL query:
// phase 1 enumerates the top-k join orders with a dynamic-programming
// enumerator over the query's join graph; phase 2 runs the cost-based
// fault-tolerance optimizer (materialization-configuration enumeration with
// pruning rules 1-3) over those candidates and returns the fault-tolerant
// plan with the shortest dominant path under failures.
//
// Queries over a single table skip phase 1 and optimize the straight cost
// plan.
func FTPlan(stmt *SelectStmt, cat *engine.Catalog, tstats map[string]TableStats, cp stats.CostParams, m cost.Model, topK int) (*core.Result, error) {
	if topK < 1 {
		return nil, fmt.Errorf("sql: topK must be at least 1, got %d", topK)
	}
	opts := core.Options{Model: m, MemoizePaths: true}
	if len(stmt.From) <= 1 {
		p, err := CostPlan(stmt, cat, tstats, cp)
		if err != nil {
			return nil, err
		}
		return core.Optimize(p, opts)
	}
	candidates, err := enumerateJoinOrderPlans(stmt, cat, tstats, cp, topK)
	if err != nil {
		return nil, err
	}
	return core.FindBestFTPlan(candidates, opts)
}

// sqlCoster derives operator costs for enumerated join trees: scans touch
// the full table but emit the post-pushdown rows; joins touch inputs plus
// output and emit the estimated cardinality.
type sqlCoster struct {
	cp       stats.CostParams
	fullRows map[string]float64 // relation name -> unfiltered table rows
}

// ScanCosts implements join.Coster.
func (sc sqlCoster) ScanCosts(rel join.Relation) (float64, float64) {
	work := sc.fullRows[rel.Name]
	if work < rel.Rows {
		work = rel.Rows
	}
	return sc.cp.OpCosts(work, rel.Rows)
}

// JoinCosts implements join.Coster.
func (sc sqlCoster) JoinCosts(leftCard, rightCard, outCard float64) (float64, float64) {
	return sc.cp.OpCosts(leftCard+rightCard+outCard, outCard)
}

// enumerateJoinOrderPlans builds the query's join graph and converts the
// top-k join orders into fault-tolerance-ready cost plans (scans bound,
// joins free, the statement's aggregation/sort tail attached).
func enumerateJoinOrderPlans(stmt *SelectStmt, cat *engine.Catalog, tstats map[string]TableStats, cp stats.CostParams, topK int) ([]*plan.Plan, error) {
	r, err := resolve(stmt, cat)
	if err != nil {
		return nil, err
	}
	pr, err := r.priced(tstats, cp)
	if err != nil {
		return nil, err
	}

	// Join graph: relations carry post-pushdown rows; edges come from the ON
	// conditions, priced like the written order's joins.
	g := join.NewGraph()
	coster := sqlCoster{cp: cp, fullRows: map[string]float64{}}
	for i, s := range pr.sources {
		g.AddRelation(join.Relation{Name: s.ref.Qualifier(), Rows: math.Max(pr.scanRows(i), 1)})
		coster.fullRows[s.ref.Qualifier()] = pr.st[i].Rows
	}
	for i, j := range pr.joins {
		if err := g.AddEdge(pr.sourceOf(j.acc), i+1, pr.joinSelectivity(i)); err != nil {
			return nil, fmt.Errorf("sql: join %d: %w", i+1, err)
		}
	}

	trees, err := g.TopK(topK)
	if err != nil {
		return nil, err
	}
	plans := make([]*plan.Plan, 0, len(trees))
	for _, tree := range trees {
		p, root := join.ToPlan(tree, g, coster)
		for _, op := range p.Operators() {
			if op.Kind == plan.KindScan {
				op.Bound = true
			}
		}
		pr.tail(p, root, tree.Card)
		plans = append(plans, p)
	}
	return plans, nil
}
