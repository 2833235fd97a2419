package sql

import (
	"fmt"
	"math"

	"ftpde/internal/engine"
	"ftpde/internal/plan"
	"ftpde/internal/stats"
)

// TableStats carries the statistics the cost planner derives cardinalities
// from.
type TableStats struct {
	// Rows is the table cardinality.
	Rows float64
	// Distinct maps column name to its number of distinct values.
	Distinct map[string]float64
	// Histograms holds equi-depth histograms for the numeric columns,
	// enabling data-driven range selectivities instead of magic constants.
	Histograms map[string]*stats.Histogram
}

// histogramBuckets is the resolution of collected column histograms.
const histogramBuckets = 32

// CollectStats scans the catalog's data and gathers per-table row counts,
// per-column distinct counts and equi-depth histograms for numeric columns —
// the statistics layer a cost-based optimizer sits on (the paper assumes
// they are provided by the engine).
func CollectStats(cat *engine.Catalog, tables []string) (map[string]TableStats, error) {
	out := make(map[string]TableStats, len(tables))
	for _, name := range tables {
		t, err := cat.Table(name)
		if err != nil {
			return nil, err
		}
		ts := TableStats{
			Distinct:   make(map[string]float64, len(t.Schema)),
			Histograms: make(map[string]*stats.Histogram),
		}
		parts := t.LogicalParts()
		for _, b := range parts {
			ts.Rows += float64(b.Len())
		}
		// The typed columns are read in place: no row is boxed and no value
		// rendered (floats are told apart by their bits, as %v would).
		for i, c := range t.Schema {
			ints, floats, strs := map[int64]struct{}{}, map[uint64]struct{}{}, map[string]struct{}{}
			var numeric []float64
			if c.Type != engine.TypeString {
				numeric = make([]float64, 0, int(ts.Rows))
			}
			for _, b := range parts {
				if b.Len() == 0 {
					continue
				}
				v := &b.Cols[i]
				for r, n := 0, b.Len(); r < n; r++ {
					p := r
					if b.Sel != nil {
						p = int(b.Sel[r])
					}
					switch c.Type {
					case engine.TypeInt:
						ints[v.Ints[p]] = struct{}{}
						numeric = append(numeric, float64(v.Ints[p]))
					case engine.TypeFloat:
						floats[math.Float64bits(v.Floats[p])] = struct{}{}
						numeric = append(numeric, v.Floats[p])
					default:
						strs[v.Strings[p]] = struct{}{}
					}
				}
			}
			ts.Distinct[c.Name] = float64(len(ints) + len(floats) + len(strs))
			if len(numeric) > 0 {
				h, err := stats.BuildHistogram(numeric, histogramBuckets)
				if err == nil {
					ts.Histograms[c.Name] = h
				}
			}
		}
		out[name] = ts
	}
	return out, nil
}

// Default selectivities when no tighter estimate is available.
const (
	defaultEqSelectivity    = 0.1
	defaultRangeSelectivity = 1.0 / 3
)

// CostPlan compiles the statement into a cost-level plan.Plan for the
// fault-tolerance optimizer: one operator per slot of the written join
// order, scans and final operators bound, joins and mid-plan aggregations
// free, with tr/tm derived from estimated cardinalities via the given cost
// parameters. It builds no engine operator.
func CostPlan(stmt *SelectStmt, cat *engine.Catalog, tstats map[string]TableStats, cp stats.CostParams) (*plan.Plan, error) {
	r, err := resolve(stmt, cat)
	if err != nil {
		return nil, err
	}
	pr, err := r.priced(tstats, cp)
	if err != nil {
		return nil, err
	}
	p, _ := pr.writtenOrder()
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// pricing is a resolved statement with its tables' statistics: what the cost
// plans of every join order are priced from.
type pricing struct {
	*resolved
	st []TableStats // per source
	cp stats.CostParams
}

// priced looks up the statistics of the statement's tables.
func (r *resolved) priced(tstats map[string]TableStats, cp stats.CostParams) (*pricing, error) {
	if err := cp.Validate(); err != nil {
		return nil, err
	}
	pr := &pricing{resolved: r, st: make([]TableStats, len(r.sources)), cp: cp}
	for i, s := range r.sources {
		ts, ok := tstats[s.ref.Table]
		if !ok {
			return nil, fmt.Errorf("sql: no statistics for table %s", s.ref.Table)
		}
		pr.st[i] = ts
	}
	return pr, nil
}

// writtenOrder prices the slots of the written join order and returns the
// plan with each slot's operator, in slot order.
func (pr *pricing) writtenOrder() (*plan.Plan, []plan.OpID) {
	p := plan.New()
	var slots []plan.OpID
	rows := make([]float64, len(pr.sources))
	for i, s := range pr.sources {
		rows[i] = pr.scanRows(i)
		tr, tm := pr.cp.OpCosts(pr.st[i].Rows, rows[i])
		slots = append(slots, p.Add(plan.Operator{
			Name: "Scan σ(" + s.ref.Qualifier() + ")", Kind: plan.KindScan,
			RunCost: tr, MatCost: tm, Rows: rows[i], Bound: true,
		}))
	}
	acc, accRows := slots[0], rows[0]
	for i, j := range pr.joins {
		out := accRows * rows[i+1] * pr.joinSelectivity(i)
		tr, tm := pr.cp.OpCosts(accRows+rows[i+1]+out, out)
		jid := p.Add(plan.Operator{
			Name: fmt.Sprintf("⨝%d %s=%s", i+1, &j.cond.Left, &j.cond.Right), Kind: plan.KindHashJoin,
			RunCost: tr, MatCost: tm, Rows: out,
		})
		p.MustConnect(acc, jid)
		p.MustConnect(slots[i+1], jid)
		slots = append(slots, jid)
		acc, accRows = jid, out
	}
	return p, append(slots, pr.tail(p, acc, accRows)...)
}

// tail adds the aggregate and sort/limit slots above acc, whose rows are the
// join result before the post-join filter, and returns their operators. The
// aggregate is free when something follows it, bound when it is the sink.
func (pr *pricing) tail(p *plan.Plan, acc plan.OpID, rows float64) []plan.OpID {
	sel := 1.0
	for range pr.postJoin {
		sel *= defaultRangeSelectivity
	}
	rows *= sel
	var slots []plan.OpID
	add := func(op plan.Operator) {
		id := p.Add(op)
		p.MustConnect(acc, id)
		slots, acc, rows = append(slots, id), id, op.Rows
	}
	if pr.hasAgg {
		groups := 1.0
		for _, g := range pr.groups {
			if d := pr.distinct(g); d > 0 {
				groups *= d
			}
		}
		if groups > rows {
			groups = rows
		}
		tr, tm := pr.cp.OpCosts(rows, groups)
		add(plan.Operator{
			Name: "Γ aggregate", Kind: plan.KindAggregate,
			RunCost: tr, MatCost: tm, Rows: groups, Bound: !pr.sortLimit(),
		})
	}
	if pr.sortLimit() {
		out := rows
		if pr.stmt.Limit >= 0 && float64(pr.stmt.Limit) < out {
			out = float64(pr.stmt.Limit)
		}
		tr, tm := pr.cp.OpCosts(rows, out)
		add(plan.Operator{
			Name: "sort/limit", Kind: plan.KindSort,
			RunCost: tr, MatCost: tm, Rows: out, Bound: true,
		})
	}
	return slots
}

// scanRows estimates source i's rows after its pushed-down predicates.
func (pr *pricing) scanRows(i int) float64 {
	sel := 1.0
	for _, pred := range pr.pushdown[i] {
		sel *= predicateSelectivity(pred, pr.st[i])
	}
	return pr.st[i].Rows * sel
}

// distinct returns the number of distinct values of column id g in its own
// table.
func (pr *pricing) distinct(g int) float64 {
	return pr.st[pr.sourceOf(g)].Distinct[pr.full[g].name]
}

// joinSelectivity prices join i at 1/max(distinct) of its two key columns.
func (pr *pricing) joinSelectivity(i int) float64 {
	d := math.Max(pr.distinct(pr.joins[i].acc), pr.distinct(pr.joins[i].next))
	if d <= 1 {
		return defaultEqSelectivity
	}
	return 1 / d
}

// predicateSelectivity estimates a pushed-down predicate's selectivity:
// numeric comparisons against a literal use the column's equi-depth
// histogram; string equality falls back to 1/distinct; everything else uses
// textbook defaults.
func predicateSelectivity(pred Predicate, ts TableStats) float64 {
	col, lit := pred.Left, pred.Right
	op := pred.Op
	if _, ok := col.(*ColumnRef); !ok {
		col, lit = lit, col
		// Mirror the operator when the literal was on the left.
		switch op {
		case "<":
			op = ">"
		case "<=":
			op = ">="
		case ">":
			op = "<"
		case ">=":
			op = "<="
		}
	}
	c, okCol := col.(*ColumnRef)
	if !okCol {
		if pred.Op == "=" {
			return defaultEqSelectivity
		}
		return defaultRangeSelectivity
	}
	if num, ok := lit.(*NumberLit); ok {
		if h := ts.Histograms[c.Column]; h != nil {
			if sel, err := h.Selectivity(op, num.Value); err == nil {
				return sel
			}
		}
	}
	if _, ok := lit.(*StringLit); ok && op == "=" {
		if d := ts.Distinct[c.Column]; d > 0 {
			return 1 / d
		}
	}
	if op == "=" {
		return defaultEqSelectivity
	}
	return defaultRangeSelectivity
}
