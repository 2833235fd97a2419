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
// projection, ORDER BY and LIMIT. Scans and joins emit live columns only: one
// backward pass over the statement (lastUse) finds the last reader of every
// column, and each operator drops what nothing later reads.
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

	// Resolve tables and build the whole-query layout, in FROM order. Every
	// column reference of the statement resolves against it (or a prefix of
	// it), before anything is pruned; a column's index in it is its id below.
	type source struct {
		ref   TableRef
		table *engine.Table
		off   int // id of the table's first column
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
		sources = append(sources, source{ref: tr, table: t, off: len(full)})
		full = full.concat(tableLayout(q, t.Schema))
	}
	end := func(i int) int { return sources[i].off + len(sources[i].table.Schema) }

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

	// Orient each ON condition: one side among the tables joined so far, the
	// other in the new table.
	accKey, nextKey := make([]int, len(stmt.Joins)), make([]int, len(stmt.Joins))
	for i, jc := range stmt.Joins {
		accLayout, nextLayout := full[:end(i)], full[end(i):end(i+1)]
		lc, rc := jc.Left, jc.Right
		if !accLayout.has(&lc) {
			lc, rc = rc, lc
		}
		var err error
		if accKey[i], err = accLayout.resolve(&lc); err != nil {
			return nil, fmt.Errorf("sql: join %d: %w", i+1, err)
		}
		if nextKey[i], err = nextLayout.resolve(&rc); err != nil {
			return nil, fmt.Errorf("sql: join %d: %w", i+1, err)
		}
		nextKey[i] += end(i)
	}

	hasAgg := len(stmt.GroupBy) > 0
	for _, item := range stmt.Select {
		if item.Agg != nil {
			hasAgg = true
		}
	}

	// Liveness. lastUse[g] is the last reader of column g along the join
	// chain: -1 nothing (a pushed-down predicate does not count — the scan
	// filters against the table's own schema before it projects), i the
	// condition of join i, len(stmt.Joins) anything above the last join. A
	// column is live above join i when lastUse > i, above its scan when
	// lastUse > -1; so a join key dies at its own join unless something later
	// still reads it.
	lastUse := make([]int, len(full))
	for g := range lastUse {
		lastUse[g] = -1
	}
	for i := range stmt.Joins {
		lastUse[accKey[i]], lastUse[nextKey[i]] = i, i
	}
	var above []ExprNode
	for _, pred := range postJoin {
		above = append(above, pred.Left, pred.Right)
	}
	for gi := range stmt.GroupBy {
		above = append(above, &stmt.GroupBy[gi])
	}
	for _, item := range stmt.Select {
		switch {
		case item.Agg != nil:
			if item.Agg.Arg != nil {
				above = append(above, item.Agg.Arg)
			}
		case !hasAgg: // beside aggregates a bare item names a GROUP BY entry instead
			above = append(above, item.Expr)
		}
	}
	for _, e := range above {
		for _, c := range columnRefs(e) {
			g, err := full.resolve(c)
			if err != nil {
				return nil, err
			}
			lastUse[g] = len(stmt.Joins)
		}
	}
	// live returns the positions in cols (column ids in row order) of the
	// columns read after reader `after`. An operator nothing reads from still
	// emits one narrow column: a zero-width batch carries no row count into
	// the columnar checkpoint format.
	live := func(cols []int, after int) []int {
		var keep []int
		for i, g := range cols {
			if lastUse[g] > after {
				keep = append(keep, i)
			}
		}
		if keep != nil {
			return keep
		}
		for i, g := range cols {
			if full[g].typ != engine.TypeString {
				return []int{i}
			}
		}
		return []int{0}
	}
	pick := func(cols, positions []int) []int {
		out := make([]int, len(positions))
		for i, p := range positions {
			out[i] = cols[p]
		}
		return out
	}

	// Build scans with pushed-down filters, projected to their live columns.
	ops := make([]engine.Operator, len(sources))
	opCols := make([][]int, len(sources)) // column ids each scan emits
	rowEstimates := make([]float64, len(sources))
	for i, src := range sources {
		tableCols := make([]int, len(src.table.Schema))
		for c := range tableCols {
			tableCols[c] = src.off + c
		}
		var filter engine.Expr
		if preds := pushdown[src.ref.Qualifier()]; len(preds) > 0 {
			var conj engine.And
			whole := bind(full, tableCols) // the filter runs before the projection
			for _, pred := range preds {
				e, err := toEnginePredicate(pred, whole)
				if err != nil {
					return nil, err
				}
				conj = append(conj, e)
			}
			filter = conj
		}
		project := live(tableCols, -1)
		opCols[i] = pick(tableCols, project)
		name := fmt.Sprintf("scan-%s", src.ref.Qualifier())
		if src.table.Replicated {
			ops[i] = engine.NewScanOnce(name, src.table, filter, project)
		} else {
			ops[i] = engine.NewScan(name, src.table, filter, project)
		}
		rowEstimates[i] = float64(src.table.Rows())
		if filter != nil {
			rowEstimates[i] /= 3 // coarse pushdown selectivity
		}
	}

	// Left-deep join chain in written order; the estimated-smaller side
	// becomes the broadcast build side. Each join emits, of probe ++ build,
	// the columns still live above it, in that order.
	type side struct {
		op   engine.Operator
		cols []int // column ids the operator emits, in row order
		key  int   // id of its join key
	}
	keyPos := func(s side) int {
		for i, g := range s.cols {
			if g == s.key {
				return i
			}
		}
		panic("sql: join key pruned below its own join") // lastUse keeps it live up to join i
	}
	acc, accRows := side{op: ops[0], cols: opCols[0]}, rowEstimates[0]
	var joins []*engine.HashJoin
	for i := range stmt.Joins {
		acc.key = accKey[i]
		build, probe := side{ops[i+1], opCols[i+1], nextKey[i]}, acc
		if rowEstimates[i+1] > accRows {
			build, probe = probe, build
			accRows = rowEstimates[i+1]
		}
		joined := append(append([]int{}, probe.cols...), build.cols...)
		project := live(joined, i)
		j := engine.NewHashJoinProject(fmt.Sprintf("join-%d", i+1), build.op, probe.op, keyPos(build), keyPos(probe), project)
		acc = side{op: j, cols: pick(joined, project)}
		joins = append(joins, j)
	}
	root, in := acc.op, bind(full, acc.cols)

	// Post-join filters.
	if len(postJoin) > 0 {
		var conj engine.And
		for _, pred := range postJoin {
			e, err := toEnginePredicate(pred, in)
			if err != nil {
				return nil, err
			}
			conj = append(conj, e)
		}
		root = engine.NewSelect("post-join-filter", root, conj)
	}

	// Aggregation or plain projection. outLayout names the result columns for
	// ORDER BY: an unaliased bare column keeps its table qualifier.
	var outLayout layout
	if hasAgg {
		var err error
		root, outLayout, err = planAggregate(stmt, root, in)
		if err != nil {
			return nil, err
		}
	} else {
		exprs := make([]engine.Expr, len(stmt.Select))
		outLayout = make(layout, len(stmt.Select))
		for i, item := range stmt.Select {
			e, err := toEngineExpr(item.Expr, in)
			if err != nil {
				return nil, err
			}
			exprs[i] = e
			outLayout[i] = boundCol{name: item.Name(i), typ: exprType(item.Expr, full)}
			if c, ok := item.Expr.(*ColumnRef); ok && item.Alias == "" {
				g, _ := full.resolve(c) // resolved by the liveness pass
				outLayout[i].qualifier = full[g].qualifier
			}
		}
		root = engine.NewProject("project", root, exprs, outLayout.schema())
	}
	outSchema := outLayout.schema()

	// ORDER BY over the output columns.
	if stmt.OrderBy != nil {
		idx, err := outLayout.resolve(&stmt.OrderBy.Col)
		if err != nil {
			return nil, fmt.Errorf("sql: ORDER BY column %s in the select list: %w", &stmt.OrderBy.Col, err)
		}
		root = engine.NewSort("sort", root, idx, stmt.OrderBy.Desc)
	}
	if stmt.Limit >= 0 {
		root = engine.NewLimit("limit", root, stmt.Limit)
	}
	if err := checkColumnar(root); err != nil {
		return nil, fmt.Errorf("sql: %w", err)
	}
	return &PhysicalPlan{Root: root, Output: outSchema, Joins: joins}, nil
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
// reordering projection, and returns the result's layout.
func planAggregate(stmt *SelectStmt, in engine.Operator, b binding) (engine.Operator, layout, error) {
	// The GROUP BY entries as a layout of their own: a non-aggregate select
	// item names one of them by the same qualifier + name resolution as any
	// other reference, so a.v and b.v stay distinct and an unqualified item
	// matches a qualified entry when only one entry has that name.
	groups := make(layout, len(stmt.GroupBy))
	for gi := range stmt.GroupBy {
		g, err := b.full.resolve(&stmt.GroupBy[gi])
		if err != nil {
			return nil, nil, err
		}
		groups[gi] = b.full[g]
	}
	type aggItem struct {
		sel  int // index in select list
		spec AggExpr
	}
	var aggItems []aggItem
	groupOf := make([]int, len(stmt.Select)) // select index -> GROUP BY entry of a non-aggregate item
	for si, item := range stmt.Select {
		if item.Agg != nil {
			aggItems = append(aggItems, aggItem{sel: si, spec: *item.Agg})
			continue
		}
		c, ok := item.Expr.(*ColumnRef)
		if !ok {
			return nil, nil, fmt.Errorf("sql: non-aggregate select item %q must be a grouping column", item.Expr)
		}
		gi, err := groups.resolve(c)
		if err != nil {
			return nil, nil, fmt.Errorf("sql: column %s is neither aggregated nor grouped: %w", c, err)
		}
		groupOf[si] = gi
	}

	// Pre-projection: group columns first, then aggregate arguments.
	var preExprs []engine.Expr
	var preSchema engine.Schema
	for gi := range stmt.GroupBy {
		e, err := toEngineExpr(&stmt.GroupBy[gi], b)
		if err != nil {
			return nil, nil, err
		}
		preExprs = append(preExprs, e)
		preSchema = append(preSchema, engine.Column{Name: groups[gi].name, Type: groups[gi].typ})
	}
	argCol := map[int]int{} // aggItems index -> pre-projection column
	for ai, item := range aggItems {
		if item.spec.Arg == nil {
			continue // COUNT(*)
		}
		e, err := toEngineExpr(item.spec.Arg, b)
		if err != nil {
			return nil, nil, err
		}
		argCol[ai] = len(preExprs)
		preExprs = append(preExprs, e)
		preSchema = append(preSchema, engine.Column{
			Name: fmt.Sprintf("agg_arg_%d", ai), Type: exprType(item.spec.Arg, b.full),
		})
	}
	if len(preExprs) == 0 {
		// COUNT(*) alone reads no column, but its input still has to carry the
		// rows: pass the first one through (see live in Compile).
		preExprs, preSchema = []engine.Expr{engine.Col(0)}, in.OutSchema()[:1]
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
	out := make(layout, len(stmt.Select))
	aggSeen := 0
	for si, item := range stmt.Select {
		if item.Agg != nil {
			col := aggSchema[len(stmt.GroupBy)+aggSeen]
			outExprs[si] = engine.Col(len(stmt.GroupBy) + aggSeen)
			out[si] = boundCol{name: col.Name, typ: col.Type}
			aggSeen++
			continue
		}
		gi := groupOf[si]
		outExprs[si] = engine.Col(gi)
		out[si] = boundCol{name: item.Name(si), typ: groups[gi].typ}
		if item.Alias == "" {
			out[si].qualifier = groups[gi].qualifier
		}
	}
	return engine.NewProject("project", op, outExprs, out.schema()), out, nil
}
