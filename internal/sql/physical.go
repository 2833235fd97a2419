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
// projection, ORDER BY and LIMIT. Scans and joins emit live columns only: the
// resolver's backward pass (lastUse) finds the last reader of every column,
// and each operator drops what nothing later reads.
func Compile(stmt *SelectStmt, cat *engine.Catalog) (*PhysicalPlan, error) {
	r, err := resolve(stmt, cat)
	if err != nil {
		return nil, err
	}
	pp, _, err := r.compile()
	return pp, err
}

// slot holds the engine operators that execute one of the statement's slots.
type slot struct {
	// ops are the unpriced operators placed in the slot, then its own in
	// execution order; the last of them is mat.
	ops []engine.Operator
	// mat is the operator whose output is the slot's: it carries the cost
	// operator's materialization flag.
	mat interface{ SetMaterialize(bool) }
}

// compile builds the engine operators of the resolved statement and returns
// them with the operators of each slot, in slot order. The two operators the
// cost model does not price, the post-join filter and the final projection,
// go to the slot of their nearest priced consumer, or of their nearest priced
// producer when nothing priced consumes them.
func (r *resolved) compile() (*PhysicalPlan, []slot, error) {
	stmt, full := r.stmt, r.full
	slots := make([]slot, 0, len(r.sources)+len(r.joins)+2)
	var loose []engine.Operator // unpriced operators still waiting for a consumer
	addSlot := func(mat interface{ SetMaterialize(bool) }, ops ...engine.Operator) {
		if loose != nil {
			ops, loose = append(loose, ops...), nil
		}
		slots = append(slots, slot{ops: ops, mat: mat})
	}

	// live returns the positions in cols (column ids in row order) of the
	// columns read after reader `after`. An operator nothing reads from still
	// emits one narrow column: a zero-width batch carries no row count into
	// the columnar checkpoint format.
	live := func(cols []int, after int) []int {
		var keep []int
		for i, g := range cols {
			if r.lastUse[g] > after {
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
	scans := make([]engine.Operator, len(r.sources))
	opCols := make([][]int, len(r.sources)) // column ids each scan emits
	rowEstimates := make([]float64, len(r.sources))
	for i, src := range r.sources {
		tableCols := make([]int, len(src.table.Schema))
		for c := range tableCols {
			tableCols[c] = src.off + c
		}
		var filter engine.Expr
		if preds := r.pushdown[i]; len(preds) > 0 {
			var conj engine.And
			whole := bind(full, tableCols) // the filter runs before the projection
			for _, pred := range preds {
				e, err := toEnginePredicate(pred, whole)
				if err != nil {
					return nil, nil, err
				}
				conj = append(conj, e)
			}
			filter = conj
		}
		project := live(tableCols, -1)
		opCols[i] = pick(tableCols, project)
		newScan := engine.NewScan
		if src.table.Replicated {
			newScan = engine.NewScanOnce
		}
		scan := newScan(fmt.Sprintf("scan-%s", src.ref.Qualifier()), src.table, filter, project)
		scans[i] = scan
		addSlot(scan, scan)
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
	acc, accRows := side{op: scans[0], cols: opCols[0]}, rowEstimates[0]
	origin := 0 // the source whose scan the probe stream starts at
	var joins []*engine.HashJoin
	for i, rj := range r.joins {
		acc.key = rj.acc
		build, probe := side{scans[i+1], opCols[i+1], rj.next}, acc
		if rowEstimates[i+1] > accRows {
			build, probe = probe, build
			accRows = rowEstimates[i+1]
			origin = i + 1
		}
		joined := append(append([]int{}, probe.cols...), build.cols...)
		project := live(joined, i)
		j := engine.NewHashJoinProject(fmt.Sprintf("join-%d", i+1), build.op, probe.op, keyPos(build), keyPos(probe), project)
		acc = side{op: j, cols: pick(joined, project)}
		joins = append(joins, j)
		addSlot(j, j)
	}
	root, in := acc.op, bind(full, acc.cols)

	// Post-join filters.
	if len(r.postJoin) > 0 {
		var conj engine.And
		for _, pred := range r.postJoin {
			e, err := toEnginePredicate(pred, in)
			if err != nil {
				return nil, nil, err
			}
			conj = append(conj, e)
		}
		root = engine.NewSelect("post-join-filter", root, conj)
		loose = append(loose, root)
	}

	// Aggregation, then the projection into select-list order.
	exprs := make([]engine.Expr, len(stmt.Select))
	if r.hasAgg {
		aggOps, agg, err := r.aggregate(root, in, r.sources[origin])
		if err != nil {
			return nil, nil, err
		}
		addSlot(agg, aggOps...)
		root = agg
		for si, pos := range r.aggPos {
			exprs[si] = engine.Col(pos)
		}
	} else {
		for i, item := range stmt.Select {
			e, err := toEngineExpr(item.Expr, in)
			if err != nil {
				return nil, nil, err
			}
			exprs[i] = e
		}
	}
	root = engine.NewProject("project", root, exprs, r.out.schema())
	loose = append(loose, root)

	// ORDER BY over the output columns, then LIMIT.
	if r.sortLimit() {
		var own []engine.Operator
		var mat interface{ SetMaterialize(bool) }
		if stmt.OrderBy != nil {
			s := engine.NewSort("sort", root, r.orderBy, stmt.OrderBy.Desc)
			root, mat, own = s, s, append(own, s)
		}
		if stmt.Limit >= 0 {
			l := engine.NewLimit("limit", root, stmt.Limit)
			root, mat, own = l, l, append(own, l)
		}
		addSlot(mat, own...)
	}
	if loose != nil { // nothing priced consumes them: their nearest priced producer takes them
		last := &slots[len(slots)-1]
		last.ops = append(loose, last.ops...)
	}
	if err := checkColumnar(root); err != nil {
		return nil, nil, fmt.Errorf("sql: %w", err)
	}
	return &PhysicalPlan{Root: root, Output: r.out.schema(), Joins: joins}, slots, nil
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

// aggregate builds the aggregation over in, whose rows stream from a scan of
// origin through broadcast joins and filters, and returns the operators it
// built, the final aggregate last. A pre-projection (agg-input) lays out the
// group columns, then the aggregate arguments. Where every group already lives
// in one partition — origin's table is hash-partitioned on a group column —
// the aggregate runs partition-wise on the stream. Otherwise a partial
// aggregate runs there (agg-partial), and the partials are merged after an
// exchange on the first group column, or gathered into one partition when
// nothing is grouped.
func (r *resolved) aggregate(in engine.Operator, b binding, origin source) ([]engine.Operator, *engine.HashAggregate, error) {
	stmt := r.stmt
	var preExprs []engine.Expr
	var preSchema engine.Schema
	coLocated := false
	key, hashed := origin.table.HashKey()
	for gi := range stmt.GroupBy {
		e, err := toEngineExpr(&stmt.GroupBy[gi], b)
		if err != nil {
			return nil, nil, err
		}
		g := r.full[r.groups[gi]]
		preExprs = append(preExprs, e)
		preSchema = append(preSchema, engine.Column{Name: g.name, Type: g.typ})
		coLocated = coLocated || (hashed && r.groups[gi] == origin.off+key)
	}
	var specs []engine.AggSpec
	aggSchema := append(engine.Schema{}, preSchema...)
	for si, item := range stmt.Select {
		if item.Agg == nil {
			continue
		}
		spec := engine.AggSpec{Kind: aggKinds[item.Agg.Func]}
		if item.Agg.Arg != nil { // not COUNT(*)
			e, err := toEngineExpr(item.Agg.Arg, b)
			if err != nil {
				return nil, nil, err
			}
			spec.Col = len(preExprs)
			preExprs = append(preExprs, e)
			preSchema = append(preSchema, engine.Column{
				Name: fmt.Sprintf("agg_arg_%d", len(specs)), Type: exprType(item.Agg.Arg, b.full),
			})
		}
		specs = append(specs, spec)
		aggSchema = append(aggSchema, engine.Column{Name: r.out[si].name, Type: r.out[si].typ})
	}
	if len(preExprs) == 0 {
		// COUNT(*) alone reads no column, but its input still has to carry the
		// rows: pass the first one through (see live in compile).
		preExprs, preSchema = []engine.Expr{engine.Col(0)}, in.OutSchema()[:1]
	}
	input := engine.NewProject("agg-input", in, preExprs, preSchema)
	groupIdxs := make([]int, len(stmt.GroupBy))
	for i := range groupIdxs {
		groupIdxs[i] = i
	}
	if coLocated {
		agg := engine.NewHashAggregate("aggregate", input, groupIdxs, specs, false, aggSchema)
		return []engine.Operator{input, agg}, agg, nil
	}
	partial := engine.NewPartialAggregate("agg-partial", input, groupIdxs, specs)
	ops := []engine.Operator{input, partial}
	global := len(groupIdxs) == 0
	if !global {
		ops = append(ops, engine.NewExchange("agg-exchange", partial, 0))
	}
	agg := engine.NewMergeAggregate("aggregate", ops[len(ops)-1], len(groupIdxs), specs, global, aggSchema)
	return append(ops, agg), agg, nil
}
