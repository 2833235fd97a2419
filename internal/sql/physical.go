package sql

import (
	"fmt"

	"ftpde/internal/engine"
)

// PhysicalPlan is a compiled, executable query.
type PhysicalPlan struct {
	// Root is the engine operator tree.
	Root engine.Operator
	// Output describes the result columns.
	Output engine.Schema
	// Joins lists the join operators in plan order; schemes flip their
	// materialization flags (the free operators of the fault-tolerance
	// decision).
	Joins []*engine.HashJoin
}

// Compile resolves and plans a parsed statement against the catalog:
// predicate pushdown into scans, left-deep broadcast hash joins with the
// smaller side as build, post-join filters, (grouped) aggregation, final
// projection, ORDER BY and LIMIT.
func Compile(stmt *SelectStmt, cat *engine.Catalog) (*PhysicalPlan, error) {
	if len(stmt.Select) == 0 {
		return nil, fmt.Errorf("sql: empty select list")
	}
	if stmt.Distinct {
		rewritten, err := rewriteDistinct(stmt)
		if err != nil {
			return nil, err
		}
		stmt = rewritten
	}
	if len(stmt.From) == 0 {
		return nil, fmt.Errorf("sql: no FROM tables")
	}
	if len(stmt.Joins) != len(stmt.From)-1 {
		return nil, fmt.Errorf("sql: %d joins for %d tables", len(stmt.Joins), len(stmt.From))
	}

	// Resolve tables and build the whole-query layout for predicate
	// classification.
	type source struct {
		ref    TableRef
		table  *engine.Table
		layout layout
	}
	var sources []source
	seen := map[string]bool{}
	var full layout
	for _, tr := range stmt.From {
		t, err := cat.Table(tr.Table)
		if err != nil {
			return nil, err
		}
		q := tr.Qualifier()
		if seen[q] {
			return nil, fmt.Errorf("sql: duplicate table qualifier %q", q)
		}
		seen[q] = true
		l := tableLayout(q, t.Schema)
		sources = append(sources, source{ref: tr, table: t, layout: l})
		full = full.concat(l)
	}

	// Classify WHERE predicates: single-table ones are pushed into scans.
	pushdown := map[string][]Predicate{}
	var postJoin []Predicate
	for _, pred := range stmt.Where {
		if q := predicateQualifier(pred, full); q != "" {
			pushdown[q] = append(pushdown[q], pred)
		} else {
			postJoin = append(postJoin, pred)
		}
	}

	// Build scans with pushed-down filters.
	ops := make([]engine.Operator, len(sources))
	rowEstimates := make([]float64, len(sources))
	for i, src := range sources {
		var filter engine.Expr
		if preds := pushdown[src.ref.Qualifier()]; len(preds) > 0 {
			var conj engine.And
			for _, pred := range preds {
				e, err := toEnginePredicate(pred, src.layout)
				if err != nil {
					return nil, err
				}
				conj = append(conj, e)
			}
			filter = conj
		}
		name := fmt.Sprintf("scan-%s", src.ref.Qualifier())
		if src.table.Replicated {
			ops[i] = engine.NewScanOnce(name, src.table, filter, nil)
		} else {
			ops[i] = engine.NewScan(name, src.table, filter, nil)
		}
		rowEstimates[i] = float64(src.table.Rows())
		if filter != nil {
			rowEstimates[i] /= 3 // coarse pushdown selectivity
		}
	}

	// Left-deep join chain in written order; the estimated-smaller side
	// becomes the broadcast build side.
	acc := ops[0]
	accLayout := sources[0].layout
	accRows := rowEstimates[0]
	var joins []*engine.HashJoin
	for i, jc := range stmt.Joins {
		next := ops[i+1]
		nextLayout := sources[i+1].layout
		nextRows := rowEstimates[i+1]

		// Orient the ON condition: one side in acc, one in the new table.
		lc, rc := jc.Left, jc.Right
		if !accLayout.has(&lc) {
			lc, rc = rc, lc
		}
		accIdx, err := accLayout.resolve(&lc)
		if err != nil {
			return nil, fmt.Errorf("sql: join %d: %w", i+1, err)
		}
		nextIdx, err := nextLayout.resolve(&rc)
		if err != nil {
			return nil, fmt.Errorf("sql: join %d: %w", i+1, err)
		}

		name := fmt.Sprintf("join-%d", i+1)
		var j *engine.HashJoin
		if nextRows <= accRows {
			// Build on the new table, probe the accumulated side.
			j = engine.NewHashJoin(name, next, acc, nextIdx, accIdx)
			accLayout = accLayout.concat(nextLayout)
		} else {
			j = engine.NewHashJoin(name, acc, next, accIdx, nextIdx)
			accLayout = nextLayout.concat(accLayout)
		}
		if accRows < nextRows {
			accRows = nextRows
		}
		acc = j
		joins = append(joins, j)
	}

	// Post-join filters.
	if len(postJoin) > 0 {
		var conj engine.And
		for _, pred := range postJoin {
			e, err := toEnginePredicate(pred, accLayout)
			if err != nil {
				return nil, err
			}
			conj = append(conj, e)
		}
		acc = engine.NewSelect("post-join-filter", acc, conj)
	}

	// Aggregation or plain projection.
	hasAgg := len(stmt.GroupBy) > 0
	for _, item := range stmt.Select {
		if item.Agg != nil {
			hasAgg = true
		}
	}

	var outSchema engine.Schema
	if hasAgg {
		var err error
		acc, outSchema, err = planAggregate(stmt, acc, accLayout)
		if err != nil {
			return nil, err
		}
	} else {
		exprs := make([]engine.Expr, len(stmt.Select))
		outSchema = make(engine.Schema, len(stmt.Select))
		for i, item := range stmt.Select {
			e, err := toEngineExpr(item.Expr, accLayout)
			if err != nil {
				return nil, err
			}
			exprs[i] = e
			outSchema[i] = engine.Column{Name: item.Name(i), Type: exprType(item.Expr, accLayout)}
		}
		acc = engine.NewProject("project", acc, exprs, outSchema)
	}

	// ORDER BY over the output columns.
	if stmt.OrderBy != nil {
		idx := outSchema.ColIndex(stmt.OrderBy.Col.Column)
		if idx < 0 {
			return nil, fmt.Errorf("sql: ORDER BY column %s is not in the select list", &stmt.OrderBy.Col)
		}
		acc = engine.NewSort("sort", acc, idx, stmt.OrderBy.Desc)
	}
	if stmt.Limit >= 0 {
		acc = engine.NewLimit("limit", acc, stmt.Limit)
	}
	if err := checkColumnar(acc); err != nil {
		return nil, fmt.Errorf("sql: %w", err)
	}
	return &PhysicalPlan{Root: acc, Output: outSchema, Joins: joins}, nil
}

// checkColumnar rejects a plan holding an operator the runtime cannot execute
// on typed columns (an expression that did not compile to the type its output
// column declares), so the fault is a planning error rather than a failed
// execution.
func checkColumnar(op engine.Operator) error {
	if err := engine.CheckColumnar(op); err != nil {
		return err
	}
	for _, in := range op.Inputs() {
		if err := checkColumnar(in); err != nil {
			return err
		}
	}
	return nil
}

// rewriteDistinct turns SELECT DISTINCT a, b ... into a group-by over the
// whole select list. Every item must be a bare column and the query must not
// already aggregate.
func rewriteDistinct(stmt *SelectStmt) (*SelectStmt, error) {
	if len(stmt.GroupBy) > 0 {
		return nil, fmt.Errorf("sql: DISTINCT with GROUP BY is not supported")
	}
	out := *stmt
	out.Distinct = false
	out.GroupBy = nil
	for _, item := range stmt.Select {
		if item.Agg != nil {
			return nil, fmt.Errorf("sql: DISTINCT with aggregates is not supported")
		}
		c, ok := item.Expr.(*ColumnRef)
		if !ok {
			return nil, fmt.Errorf("sql: DISTINCT select items must be columns, got %q", item.Expr)
		}
		out.GroupBy = append(out.GroupBy, *c)
	}
	return &out, nil
}

// planAggregate builds pre-projection + (exchange +) aggregation + final
// reordering projection.
func planAggregate(stmt *SelectStmt, in engine.Operator, l layout) (engine.Operator, engine.Schema, error) {
	// Validate non-aggregate select items are bare group columns.
	groupSet := map[string]int{} // rendered group col -> index in GroupBy
	for gi := range stmt.GroupBy {
		groupSet[stmt.GroupBy[gi].String()] = gi
	}
	type aggItem struct {
		sel  int // index in select list
		spec AggExpr
	}
	var aggItems []aggItem
	for si, item := range stmt.Select {
		if item.Agg != nil {
			aggItems = append(aggItems, aggItem{sel: si, spec: *item.Agg})
			continue
		}
		c, ok := item.Expr.(*ColumnRef)
		if !ok {
			return nil, nil, fmt.Errorf("sql: non-aggregate select item %q must be a grouping column", item.Expr)
		}
		if _, ok := groupSet[c.String()]; !ok {
			// Allow unqualified match against a qualified GROUP BY entry.
			found := false
			for gi := range stmt.GroupBy {
				if stmt.GroupBy[gi].Column == c.Column {
					found = true
				}
			}
			if !found {
				return nil, nil, fmt.Errorf("sql: column %s is neither aggregated nor grouped", c)
			}
		}
	}

	// Pre-projection: group columns first, then aggregate arguments.
	var preExprs []engine.Expr
	var preSchema engine.Schema
	for gi := range stmt.GroupBy {
		e, err := toEngineExpr(&stmt.GroupBy[gi], l)
		if err != nil {
			return nil, nil, err
		}
		preExprs = append(preExprs, e)
		preSchema = append(preSchema, engine.Column{
			Name: stmt.GroupBy[gi].Column, Type: exprType(&stmt.GroupBy[gi], l),
		})
	}
	argCol := map[int]int{} // aggItems index -> pre-projection column
	for ai, item := range aggItems {
		if item.spec.Arg == nil {
			continue // COUNT(*)
		}
		e, err := toEngineExpr(item.spec.Arg, l)
		if err != nil {
			return nil, nil, err
		}
		argCol[ai] = len(preExprs)
		preExprs = append(preExprs, e)
		preSchema = append(preSchema, engine.Column{
			Name: fmt.Sprintf("agg_arg_%d", ai), Type: exprType(item.spec.Arg, l),
		})
	}
	op := engine.Operator(engine.NewProject("agg-input", in, preExprs, preSchema))

	// Grouped aggregation repartitions on the first group column so equal
	// groups co-locate; global aggregation gathers.
	global := len(stmt.GroupBy) == 0
	if !global {
		op = engine.NewExchange("agg-exchange", op, 0)
	}
	groupIdxs := make([]int, len(stmt.GroupBy))
	for i := range groupIdxs {
		groupIdxs[i] = i
	}
	specs := make([]engine.AggSpec, len(aggItems))
	aggSchema := append(engine.Schema{}, preSchema[:len(stmt.GroupBy)]...)
	kinds := map[string]engine.AggKind{
		"SUM": engine.AggSum, "COUNT": engine.AggCount, "AVG": engine.AggAvg,
		"MIN": engine.AggMin, "MAX": engine.AggMax,
	}
	for ai, item := range aggItems {
		kind, ok := kinds[item.spec.Func]
		if !ok {
			return nil, nil, fmt.Errorf("sql: unknown aggregate %s", item.spec.Func)
		}
		specs[ai] = engine.AggSpec{Kind: kind, Col: argCol[ai]}
		// SUM and AVG accumulate in float64, COUNT is an int64, MIN and MAX
		// hand back one of the argument's own values.
		typ := engine.TypeFloat
		switch kind {
		case engine.AggCount:
			typ = engine.TypeInt
		case engine.AggMin, engine.AggMax:
			typ = preSchema[argCol[ai]].Type
		}
		aggSchema = append(aggSchema, engine.Column{
			Name: stmt.Select[item.sel].Name(item.sel), Type: typ,
		})
	}
	op = engine.NewHashAggregate("aggregate", op, groupIdxs, specs, global, aggSchema)

	// Final projection reorders aggregate output into select-list order.
	outExprs := make([]engine.Expr, len(stmt.Select))
	outSchema := make(engine.Schema, len(stmt.Select))
	aggSeen := 0
	for si, item := range stmt.Select {
		if item.Agg != nil {
			outExprs[si] = engine.Col(len(stmt.GroupBy) + aggSeen)
			outSchema[si] = aggSchema[len(stmt.GroupBy)+aggSeen]
			aggSeen++
			continue
		}
		c := item.Expr.(*ColumnRef)
		gi := -1
		for g := range stmt.GroupBy {
			if stmt.GroupBy[g].Column == c.Column {
				gi = g
			}
		}
		outExprs[si] = engine.Col(gi)
		outSchema[si] = engine.Column{Name: item.Name(si), Type: aggSchema[gi].Type}
	}
	return engine.NewProject("project", op, outExprs, outSchema), outSchema, nil
}
