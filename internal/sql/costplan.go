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
// fault-tolerance optimizer: scans and final operators bound, joins and
// mid-plan aggregations free, with tr/tm derived from estimated
// cardinalities via the given cost parameters.
func CostPlan(stmt *SelectStmt, cat *engine.Catalog, tstats map[string]TableStats, cp stats.CostParams) (*plan.Plan, error) {
	if err := cp.Validate(); err != nil {
		return nil, err
	}
	if len(stmt.From) == 0 {
		return nil, fmt.Errorf("sql: no FROM tables")
	}
	if len(stmt.Joins) != len(stmt.From)-1 {
		return nil, fmt.Errorf("sql: %d joins for %d tables", len(stmt.Joins), len(stmt.From))
	}
	if stmt.Distinct {
		rewritten, err := rewriteDistinct(stmt)
		if err != nil {
			return nil, err
		}
		stmt = rewritten
	}

	p := plan.New()

	// Whole-query layout for predicate classification.
	var full layout
	var sources []srcInfo
	for _, tr := range stmt.From {
		t, err := cat.Table(tr.Table)
		if err != nil {
			return nil, err
		}
		ts, ok := tstats[tr.Table]
		if !ok {
			return nil, fmt.Errorf("sql: no statistics for table %s", tr.Table)
		}
		l := tableLayout(tr.Qualifier(), t.Schema)
		sources = append(sources, srcInfo{ref: tr, st: ts, l: l})
		full = full.concat(l)
	}

	pushdown := map[string][]Predicate{}
	postJoinSel := 1.0
	for _, pred := range stmt.Where {
		if q := predicateQualifier(pred, full); q != "" {
			pushdown[q] = append(pushdown[q], pred)
		} else {
			postJoinSel *= defaultRangeSelectivity
		}
	}

	// Scans (bound): output rows after pushdown selectivity.
	scanIDs := make([]plan.OpID, len(sources))
	outRows := make([]float64, len(sources))
	for i, s := range sources {
		rows := s.st.Rows
		sel := 1.0
		for _, pred := range pushdown[s.ref.Qualifier()] {
			sel *= predicateSelectivity(pred, s.st)
		}
		out := rows * sel
		tr, tm := cp.OpCosts(rows, out)
		scanIDs[i] = p.Add(plan.Operator{
			Name: "Scan σ(" + s.ref.Qualifier() + ")", Kind: plan.KindScan,
			RunCost: tr, MatCost: tm, Rows: out, Bound: true,
		})
		outRows[i] = out
	}

	// Left-deep joins (free).
	accID := scanIDs[0]
	accRows := outRows[0]
	accLayout := sources[0].l
	for i, jc := range stmt.Joins {
		s := sources[i+1]
		lc, rc := jc.Left, jc.Right
		if !accLayout.has(&lc) {
			lc, rc = rc, lc
		}
		if !accLayout.has(&lc) {
			return nil, fmt.Errorf("sql: join %d condition %s = %s does not connect to prior tables",
				i+1, &jc.Left, &jc.Right)
		}
		sel := joinSelectivity(lc, rc, sources, i+1)
		out := accRows * outRows[i+1] * sel
		work := accRows + outRows[i+1] + out
		tr, tm := cp.OpCosts(work, out)
		jid := p.Add(plan.Operator{
			Name: fmt.Sprintf("⨝%d %s=%s", i+1, &lc, &rc), Kind: plan.KindHashJoin,
			RunCost: tr, MatCost: tm, Rows: out,
		})
		p.MustConnect(accID, jid)
		p.MustConnect(scanIDs[i+1], jid)
		accID = jid
		accRows = out
		accLayout = accLayout.concat(s.l)
	}
	accRows *= postJoinSel

	// Aggregation: free when it is a mid-plan operator (something follows),
	// bound when it is the sink.
	hasAgg := len(stmt.GroupBy) > 0
	for _, item := range stmt.Select {
		if item.Agg != nil {
			hasAgg = true
		}
	}
	followed := stmt.OrderBy != nil || stmt.Limit >= 0
	if hasAgg {
		groups := 1.0
		for gi := range stmt.GroupBy {
			if i, err := full.resolve(&stmt.GroupBy[gi]); err == nil {
				q := full[i].qualifier
				for _, s := range sources {
					if s.ref.Qualifier() == q {
						if d := s.st.Distinct[stmt.GroupBy[gi].Column]; d > 0 {
							groups *= d
						}
					}
				}
			}
		}
		if groups > accRows {
			groups = accRows
		}
		tr, tm := cp.OpCosts(accRows, groups)
		aid := p.Add(plan.Operator{
			Name: "Γ aggregate", Kind: plan.KindAggregate,
			RunCost: tr, MatCost: tm, Rows: groups, Bound: !followed,
		})
		p.MustConnect(accID, aid)
		accID = aid
		accRows = groups
	}

	if followed {
		rows := accRows
		if stmt.Limit >= 0 && float64(stmt.Limit) < rows {
			rows = float64(stmt.Limit)
		}
		tr, tm := cp.OpCosts(accRows, rows)
		sid := p.Add(plan.Operator{
			Name: "sort/limit", Kind: plan.KindSort,
			RunCost: tr, MatCost: tm, Rows: rows, Bound: true,
		})
		p.MustConnect(accID, sid)
	}

	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
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

// srcInfo couples a FROM entry with its statistics and layout.
type srcInfo struct {
	ref TableRef
	st  TableStats
	l   layout
}

// joinSelectivity uses 1/max(distinct(left), distinct(right)).
func joinSelectivity(lc, rc ColumnRef, sources []srcInfo, rightIdx int) float64 {
	d := 0.0
	for _, s := range sources {
		if v, ok := s.st.Distinct[lc.Column]; ok && v > d {
			d = v
		}
	}
	if v, ok := sources[rightIdx].st.Distinct[rc.Column]; ok && v > d {
		d = v
	}
	if d <= 1 {
		return defaultEqSelectivity
	}
	return 1 / d
}
