package sql

import (
	"fmt"

	"ftpde/internal/engine"
)

// boundCol is one column of a physical row layout, tagged with the table
// qualifier it came from.
type boundCol struct {
	qualifier string
	name      string
	typ       engine.ColType
}

// layout describes the physical row produced by an operator.
type layout []boundCol

// schema converts the layout to an engine schema.
func (l layout) schema() engine.Schema {
	s := make(engine.Schema, len(l))
	for i, c := range l {
		s[i] = engine.Column{Name: c.name, Type: c.typ}
	}
	return s
}

// resolve finds the unique column matching the reference.
func (l layout) resolve(c *ColumnRef) (int, error) {
	found := -1
	for i, bc := range l {
		if bc.name != c.Column {
			continue
		}
		if c.Qualifier != "" && bc.qualifier != c.Qualifier {
			continue
		}
		if found >= 0 {
			if l[found] == bc {
				continue // one column listed twice (GROUP BY a.v, a.v) is not two candidates
			}
			return 0, fmt.Errorf("sql: ambiguous column %s", c)
		}
		found = i
	}
	if found < 0 {
		return 0, fmt.Errorf("sql: unknown column %s", c)
	}
	return found, nil
}

// has reports whether the reference resolves uniquely in this layout.
func (l layout) has(c *ColumnRef) bool {
	_, err := l.resolve(c)
	return err == nil
}

// binding resolves column references for one operator. Names are matched
// against the unpruned whole-query layout — a reference that is ambiguous in
// the statement stays ambiguous whatever the liveness pass dropped — and pos
// places each of that layout's columns in the operator's input row (-1 for a
// column the input does not carry).
type binding struct {
	full layout
	pos  []int
}

// bind places cols — whole-query column ids in physical row order — over full.
func bind(full layout, cols []int) binding {
	pos := make([]int, len(full))
	for i := range pos {
		pos[i] = -1
	}
	for i, g := range cols {
		pos[g] = i
	}
	return binding{full: full, pos: pos}
}

// resolve returns the position of the referenced column in the input row.
func (b binding) resolve(c *ColumnRef) (int, error) {
	g, err := b.full.resolve(c)
	if err != nil {
		return 0, err
	}
	if b.pos[g] < 0 {
		return 0, fmt.Errorf("sql: column %s is not carried to this operator", c)
	}
	return b.pos[g], nil
}

// columnRefs collects every column reference in an expression.
func columnRefs(e ExprNode) []*ColumnRef {
	switch x := e.(type) {
	case *ColumnRef:
		return []*ColumnRef{x}
	case *BinaryExpr:
		return append(columnRefs(x.Left), columnRefs(x.Right)...)
	default:
		return nil
	}
}

// source is one FROM entry resolved against the catalog.
type source struct {
	ref   TableRef
	table *engine.Table
	off   int // id of the table's first column
}

// resolvedJoin is one ON condition oriented to resolved column ids.
type resolvedJoin struct {
	cond      JoinCond // Left among the tables joined so far, Right in the new one
	acc, next int      // their column ids
}

// resolved is a statement checked against the catalog once, for every
// planner: Compile builds engine operators from it, CostPlan and the
// join-order enumerator price it. Every column reference resolves here, so
// all entry points reject the same statements.
//
// Its slots are the operators the cost model prices, in the order Compile
// and CostPlan both emit them: the scan of each FROM table, each join, the
// aggregate when the statement aggregates, and the sort/limit when it orders
// or limits.
type resolved struct {
	stmt     *SelectStmt // DISTINCT rewritten into a GROUP BY
	sources  []source
	full     layout        // whole-query layout, in FROM order: a column's index in it is its id
	pushdown [][]Predicate // per source, the WHERE predicates over it alone
	postJoin []Predicate   // the WHERE predicates over several tables, or none
	joins    []resolvedJoin
	hasAgg   bool
	// lastUse[g] is the last reader of column g along the join chain: -1
	// nothing (a pushed-down predicate does not count — the scan filters
	// against the table's own schema before it projects), i the condition of
	// join i, len(joins) anything above the last join. A column is live above
	// join i when lastUse > i, above its scan when lastUse > -1; so a join key
	// dies at its own join unless something later still reads it.
	lastUse []int
	groups  []int  // column ids of the GROUP BY entries
	aggPos  []int  // per select item, its column in the aggregate's output
	out     layout // the result columns: an unaliased bare column keeps its qualifier
	orderBy int    // the ORDER BY column's index in out
}

// aggKinds maps the SQL aggregates to the engine's.
var aggKinds = map[string]engine.AggKind{
	"SUM": engine.AggSum, "COUNT": engine.AggCount, "AVG": engine.AggAvg,
	"MIN": engine.AggMin, "MAX": engine.AggMax,
}

// resolve checks stmt against the catalog: table names, qualifiers, the
// join chain's conditions, and every column the statement reads or returns.
func resolve(stmt *SelectStmt, cat *engine.Catalog) (*resolved, error) {
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
	r := &resolved{stmt: stmt, sources: make([]source, 0, len(stmt.From)), joins: make([]resolvedJoin, 0, len(stmt.Joins))}
	seen := map[string]bool{}
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
		r.sources = append(r.sources, source{ref: tr, table: t, off: len(r.full)})
		for _, c := range t.Schema {
			r.full = append(r.full, boundCol{qualifier: q, name: c.Name, typ: c.Type})
		}
	}

	// Single-table WHERE predicates are pushed into their scan.
	r.pushdown = make([][]Predicate, len(r.sources))
	for _, pred := range stmt.Where {
		if i := r.predicateSource(pred); i >= 0 {
			r.pushdown[i] = append(r.pushdown[i], pred)
		} else {
			r.postJoin = append(r.postJoin, pred)
		}
	}

	// Orient each ON condition: one side among the tables joined so far, the
	// other in the new table.
	for i, jc := range stmt.Joins {
		end := r.sources[i+1].off
		acc, next := r.full[:end], r.full[end:end+len(r.sources[i+1].table.Schema)]
		if !acc.has(&jc.Left) {
			jc.Left, jc.Right = jc.Right, jc.Left
		}
		a, err := acc.resolve(&jc.Left)
		if err != nil {
			return nil, fmt.Errorf("sql: join %d: %w", i+1, err)
		}
		n, err := next.resolve(&jc.Right)
		if err != nil {
			return nil, fmt.Errorf("sql: join %d: %w", i+1, err)
		}
		r.joins = append(r.joins, resolvedJoin{cond: jc, acc: a, next: end + n})
	}

	r.hasAgg = len(stmt.GroupBy) > 0
	for _, item := range stmt.Select {
		if item.Agg != nil {
			r.hasAgg = true
		}
	}
	if err := r.resolveLiveness(); err != nil {
		return nil, err
	}
	if err := r.resolveOutput(); err != nil {
		return nil, err
	}
	if stmt.OrderBy != nil {
		idx, err := r.out.resolve(&stmt.OrderBy.Col)
		if err != nil {
			return nil, fmt.Errorf("sql: ORDER BY column %s in the select list: %w", &stmt.OrderBy.Col, err)
		}
		r.orderBy = idx
	}
	return r, nil
}

// resolveLiveness fills lastUse, resolving every column read above the scans.
func (r *resolved) resolveLiveness() error {
	r.lastUse = make([]int, len(r.full))
	for g := range r.lastUse {
		r.lastUse[g] = -1
	}
	for i, j := range r.joins {
		r.lastUse[j.acc], r.lastUse[j.next] = i, i
	}
	var above []ExprNode
	for _, pred := range r.postJoin {
		above = append(above, pred.Left, pred.Right)
	}
	for gi := range r.stmt.GroupBy {
		above = append(above, &r.stmt.GroupBy[gi])
	}
	for _, item := range r.stmt.Select {
		switch {
		case item.Agg != nil:
			if item.Agg.Arg != nil {
				above = append(above, item.Agg.Arg)
			}
		case !r.hasAgg: // beside aggregates a bare item names a GROUP BY entry instead
			above = append(above, item.Expr)
		}
	}
	for _, e := range above {
		for _, c := range columnRefs(e) {
			g, err := r.full.resolve(c)
			if err != nil {
				return err
			}
			r.lastUse[g] = len(r.joins)
		}
	}
	return nil
}

// resolveOutput fills out, and for an aggregating statement groups and
// aggPos: the aggregate emits the GROUP BY entries, then the aggregates in
// select-list order.
func (r *resolved) resolveOutput() error {
	stmt := r.stmt
	r.out = make(layout, len(stmt.Select))
	if !r.hasAgg {
		for i, item := range stmt.Select {
			r.out[i] = boundCol{name: item.Name(i), typ: exprType(item.Expr, r.full)}
			if c, ok := item.Expr.(*ColumnRef); ok && item.Alias == "" {
				g, _ := r.full.resolve(c) // resolved by resolveLiveness
				r.out[i].qualifier = r.full[g].qualifier
			}
		}
		return nil
	}
	// The GROUP BY entries as a layout of their own: a non-aggregate select
	// item names one of them by the same qualifier + name resolution as any
	// other reference, so a.v and b.v stay distinct and an unqualified item
	// matches a qualified entry when only one entry has that name.
	groups := make(layout, len(stmt.GroupBy))
	r.groups = make([]int, len(stmt.GroupBy))
	for gi := range stmt.GroupBy {
		g, _ := r.full.resolve(&stmt.GroupBy[gi]) // resolved by resolveLiveness
		r.groups[gi], groups[gi] = g, r.full[g]
	}
	r.aggPos = make([]int, len(stmt.Select))
	next := len(groups)
	for si, item := range stmt.Select {
		if item.Agg != nil {
			kind, ok := aggKinds[item.Agg.Func]
			if !ok {
				return fmt.Errorf("sql: unknown aggregate %s", item.Agg.Func)
			}
			// SUM and AVG accumulate in float64, COUNT is an int64, MIN and
			// MAX hand back one of the argument's own values.
			typ := engine.TypeFloat
			switch kind {
			case engine.AggCount:
				typ = engine.TypeInt
			case engine.AggMin, engine.AggMax:
				typ = exprType(item.Agg.Arg, r.full)
			}
			r.out[si] = boundCol{name: item.Name(si), typ: typ}
			r.aggPos[si] = next
			next++
			continue
		}
		c, ok := item.Expr.(*ColumnRef)
		if !ok {
			return fmt.Errorf("sql: non-aggregate select item %q must be a grouping column", item.Expr)
		}
		gi, err := groups.resolve(c)
		if err != nil {
			return fmt.Errorf("sql: column %s is neither aggregated nor grouped: %w", c, err)
		}
		r.out[si] = boundCol{name: item.Name(si), typ: groups[gi].typ}
		if item.Alias == "" {
			r.out[si].qualifier = groups[gi].qualifier
		}
		r.aggPos[si] = gi
	}
	return nil
}

// sortLimit reports whether the statement has a sort/limit slot.
func (r *resolved) sortLimit() bool { return r.stmt.OrderBy != nil || r.stmt.Limit >= 0 }

// sourceOf returns the index of the FROM table holding column id g.
func (r *resolved) sourceOf(g int) int {
	i := len(r.sources) - 1
	for r.sources[i].off > g {
		i--
	}
	return i
}

// predicateSource returns the FROM table a predicate reads alone, or -1 when
// it reads several tables, only literals, or a column that does not resolve.
func (r *resolved) predicateSource(p Predicate) int {
	src := -1
	for _, c := range append(columnRefs(p.Left), columnRefs(p.Right)...) {
		g, err := r.full.resolve(c)
		if err != nil {
			return -1
		}
		if i := r.sourceOf(g); src < 0 {
			src = i
		} else if i != src {
			return -1
		}
	}
	return src
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

// toEngineExpr converts an AST expression into an engine expression over the
// bound input row.
func toEngineExpr(e ExprNode, b binding) (engine.Expr, error) {
	switch x := e.(type) {
	case *ColumnRef:
		i, err := b.resolve(x)
		if err != nil {
			return nil, err
		}
		return engine.Col(i), nil
	case *NumberLit:
		if x.IsInt {
			return engine.Const{V: int64(x.Value)}, nil
		}
		return engine.Const{V: x.Value}, nil
	case *StringLit:
		return engine.Const{V: x.Value}, nil
	case *BinaryExpr:
		left, err := toEngineExpr(x.Left, b)
		if err != nil {
			return nil, err
		}
		right, err := toEngineExpr(x.Right, b)
		if err != nil {
			return nil, err
		}
		ops := map[byte]engine.ArithOp{'+': engine.Add, '-': engine.Sub, '*': engine.Mul, '/': engine.Div}
		return engine.Arith{Op: ops[x.Op], L: left, R: right}, nil
	default:
		return nil, fmt.Errorf("sql: unsupported expression %T", e)
	}
}

// toEnginePredicate converts a predicate into an engine boolean expression.
func toEnginePredicate(p Predicate, b binding) (engine.Expr, error) {
	left, err := toEngineExpr(p.Left, b)
	if err != nil {
		return nil, err
	}
	right, err := toEngineExpr(p.Right, b)
	if err != nil {
		return nil, err
	}
	ops := map[string]engine.CmpOp{
		"=": engine.EQ, "<>": engine.NE, "!=": engine.NE,
		"<": engine.LT, "<=": engine.LE, ">": engine.GT, ">=": engine.GE,
	}
	op, ok := ops[p.Op]
	if !ok {
		return nil, fmt.Errorf("sql: unsupported operator %q", p.Op)
	}
	return engine.Cmp{Op: op, L: left, R: right}, nil
}

// exprType infers an output column type (best effort; strings only survive
// bare column references).
func exprType(e ExprNode, l layout) engine.ColType {
	if c, ok := e.(*ColumnRef); ok {
		if i, err := l.resolve(c); err == nil {
			return l[i].typ
		}
	}
	if n, ok := e.(*NumberLit); ok && n.IsInt {
		return engine.TypeInt
	}
	if _, ok := e.(*StringLit); ok {
		return engine.TypeString
	}
	return engine.TypeFloat
}
