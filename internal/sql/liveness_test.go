package sql

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"ftpde/internal/engine"
	"ftpde/internal/runtime"
	"ftpde/internal/schemes"
)

// The three served templates (service.TPCHQueries, which this package cannot
// import).
const (
	servedQ1 = `
		SELECT l_returnflag, l_linestatus,
		       SUM(l_quantity) AS sum_qty,
		       SUM(l_extendedprice) AS sum_price,
		       COUNT(*) AS cnt
		FROM lineitem
		WHERE l_shipdate <= 1200
		GROUP BY l_returnflag, l_linestatus`
	servedQ3 = `
		SELECT l_orderkey, SUM(l_extendedprice * (1 - l_discount)) AS revenue
		FROM customer
		JOIN orders ON c_custkey = o_custkey
		JOIN lineitem ON o_orderkey = l_orderkey
		WHERE c_mktsegment = 'BUILDING' AND o_orderdate < 1200
		GROUP BY l_orderkey
		ORDER BY revenue DESC`
	servedQ5 = `
		SELECT n_name, SUM(l_extendedprice * (1 - l_discount)) AS revenue
		FROM region
		JOIN nation ON r_regionkey = n_regionkey
		JOIN supplier ON n_nationkey = s_nationkey
		JOIN lineitem ON s_suppkey = l_suppkey
		JOIN orders ON l_orderkey = o_orderkey
		JOIN customer ON o_custkey = c_custkey
		GROUP BY n_name
		ORDER BY revenue DESC`
)

func mustCompile(t *testing.T, cat *engine.Catalog, q string) *PhysicalPlan {
	t.Helper()
	stmt, err := Parse(q)
	if err != nil {
		t.Fatalf("parse %q: %v", q, err)
	}
	pp, err := Compile(stmt, cat)
	if err != nil {
		t.Fatalf("compile %q: %v", q, err)
	}
	return pp
}

// sourceColumns maps every scan and join under root to its sorted output
// column names.
func sourceColumns(root engine.Operator) map[string]string {
	out := map[string]string{}
	var walk func(op engine.Operator)
	walk = func(op engine.Operator) {
		switch op.(type) {
		case *engine.Scan, *engine.HashJoin:
			var names []string
			for _, c := range op.OutSchema() {
				names = append(names, c.Name)
			}
			sort.Strings(names)
			out[op.Name()] = strings.Join(names, " ")
		}
		for _, in := range op.Inputs() {
			walk(in)
		}
	}
	walk(root)
	return out
}

// The harness's reference executes the same compiled plan the runtime does, so
// a pruning bug would corrupt both alike; what each scan and join of the
// served templates emits is pinned here instead. Sets, not sequences: which
// side builds may change.
func TestServedPlansCarryLiveColumnsOnly(t *testing.T) {
	cat := tpchCatalog(t)
	for _, tc := range []struct {
		name, text string
		want       map[string]string
	}{
		{"Q1", servedQ1, map[string]string{
			"scan-lineitem": "l_extendedprice l_linestatus l_quantity l_returnflag", // l_shipdate is read by the pushed-down filter only
		}},
		{"Q3", servedQ3, map[string]string{
			"scan-customer": "c_custkey", // no c_mktsegment
			"scan-orders":   "o_custkey o_orderkey",
			"scan-lineitem": "l_discount l_extendedprice l_orderkey",
			"join-1":        "o_orderkey",
			"join-2":        "l_discount l_extendedprice l_orderkey",
		}},
		{"Q5", servedQ5, map[string]string{
			"scan-region":   "r_regionkey",
			"scan-nation":   "n_name n_nationkey n_regionkey",
			"scan-supplier": "s_nationkey s_suppkey",
			"scan-lineitem": "l_discount l_extendedprice l_orderkey l_suppkey",
			"scan-orders":   "o_custkey o_orderkey",
			"scan-customer": "c_custkey",
			"join-1":        "n_name n_nationkey",
			"join-2":        "n_name s_suppkey",
			"join-3":        "l_discount l_extendedprice l_orderkey n_name",
			"join-4":        "l_discount l_extendedprice n_name o_custkey",
			"join-5":        "l_discount l_extendedprice n_name",
		}},
	} {
		if got := sourceColumns(mustCompile(t, cat, tc.text).Root); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: scans and joins emit\n  %v\nwant\n  %v", tc.name, got, tc.want)
		}
	}
}

// A source or join nothing reads from keeps one non-string column rather than
// none: the row count has to survive, and a zero-width batch has no columnar
// checkpoint form.
func TestDeadSourcesKeepOneNarrowColumn(t *testing.T) {
	cat := testCatalog(t)
	for q, want := range map[string]map[string]string{
		"SELECT COUNT(*) FROM cust": {"scan-cust": "c_id"},
		"SELECT COUNT(*) FROM nat":  {"scan-nat": "n_id"},
		"SELECT COUNT(*) FROM cust JOIN ord ON c_id = o_cust": {
			"scan-cust": "c_id", "scan-ord": "o_cust", "join-1": "o_cust"},
		"SELECT COUNT(*) FROM cust JOIN ord ON c_id = o_cust WHERE c_segment = 'AUTO'": {
			"scan-cust": "c_id", "scan-ord": "o_cust", "join-1": "o_cust"},
	} {
		pp := mustCompile(t, cat, q)
		if got := sourceColumns(pp.Root); !reflect.DeepEqual(got, want) {
			t.Errorf("%q: scans and joins emit %v, want %v", q, got, want)
		}
	}
	// The same holds for the aggregate's own input (at the parent commit the
	// runtime answered a COUNT(*)-only query with no row at all).
	rt, err := runtime.New(runtime.Config{Nodes: cat.Partitions()})
	if err != nil {
		t.Fatal(err)
	}
	pp := mustCompile(t, cat, "SELECT COUNT(*) FROM cust JOIN ord ON c_id = o_cust WHERE c_segment = 'AUTO'")
	res, _, err := rt.Execute(context.Background(), pp.Root)
	if err != nil {
		t.Fatal(err)
	}
	if rows := res.AllRows(); len(rows) != 1 || rows[0][0] != int64(100) {
		t.Errorf("COUNT(*) over a join with no live column = %v, want 100", rows)
	}
}

// twinCatalog holds two tables with the same column names, so only the
// qualifier tells a.v from b.v.
func twinCatalog(t *testing.T) *engine.Catalog {
	t.Helper()
	cat := engine.NewCatalog(2)
	s := engine.Schema{{Name: "k", Type: engine.TypeInt}, {Name: "v", Type: engine.TypeInt}}
	for name, rows := range map[string][]engine.Row{
		"a": {{int64(1), int64(10)}, {int64(2), int64(30)}, {int64(3), int64(20)}},
		"b": {{int64(1), int64(100)}, {int64(2), int64(50)}, {int64(3), int64(70)}},
	} {
		tb, err := engine.NewTable(name, s, rows, 2, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := cat.Add(tb); err != nil {
			t.Fatal(err)
		}
	}
	return cat
}

func TestGroupByMatchesSelectItemsByIdentity(t *testing.T) {
	cat := twinCatalog(t)
	rows, _ := runSQL(t, cat, "SELECT a.v, b.v, COUNT(*) FROM a JOIN b ON a.k = b.k GROUP BY a.v, b.v ORDER BY a.v")
	want := []engine.Row{
		{int64(10), int64(100), int64(1)},
		{int64(20), int64(70), int64(1)},
		{int64(30), int64(50), int64(1)},
	}
	if !reflect.DeepEqual(rows, want) {
		t.Errorf("a.v, b.v grouped = %v, want %v", rows, want)
	}
	// Swapped in the select list: each item still finds its own entry.
	rows, _ = runSQL(t, cat, "SELECT b.v, a.v FROM a JOIN b ON a.k = b.k GROUP BY a.v, b.v ORDER BY b.v")
	want = []engine.Row{{int64(50), int64(30)}, {int64(70), int64(20)}, {int64(100), int64(10)}}
	if !reflect.DeepEqual(rows, want) {
		t.Errorf("b.v, a.v grouped = %v, want %v", rows, want)
	}
	// An unqualified item against a qualified entry is allowed while only one
	// entry has that name ...
	rows, _ = runSQL(t, cat, "SELECT v, COUNT(*) FROM a JOIN b ON a.k = b.k GROUP BY a.v ORDER BY v")
	want = []engine.Row{{int64(10), int64(1)}, {int64(20), int64(1)}, {int64(30), int64(1)}}
	if !reflect.DeepEqual(rows, want) {
		t.Errorf("unqualified v against GROUP BY a.v = %v, want %v", rows, want)
	}
	// ... and ambiguous, not silently the last one, when two do; an item
	// qualified with the other table names no entry at all.
	for _, q := range []string{
		"SELECT v, COUNT(*) FROM a JOIN b ON a.k = b.k GROUP BY a.v, b.v",
		"SELECT b.v, COUNT(*) FROM a JOIN b ON a.k = b.k GROUP BY a.v",
	} {
		stmt, err := Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Compile(stmt, cat); err == nil {
			t.Errorf("compiled %q", q)
		}
	}
}

func TestOrderByHonoursTheQualifier(t *testing.T) {
	cat := twinCatalog(t)
	rows, _ := runSQL(t, cat, "SELECT a.v, b.v FROM a JOIN b ON a.k = b.k ORDER BY b.v")
	want := []engine.Row{{int64(30), int64(50)}, {int64(20), int64(70)}, {int64(10), int64(100)}}
	if !reflect.DeepEqual(rows, want) {
		t.Errorf("ORDER BY b.v = %v, want %v", rows, want)
	}
	rows, _ = runSQL(t, cat, "SELECT a.v, b.v FROM a JOIN b ON a.k = b.k ORDER BY a.v DESC")
	want = []engine.Row{{int64(30), int64(50)}, {int64(20), int64(70)}, {int64(10), int64(100)}}
	if !reflect.DeepEqual(rows, want) {
		t.Errorf("ORDER BY a.v DESC = %v, want %v", rows, want)
	}
	// An alias is an output name and takes no qualifier; a bare v that two
	// output columns answer to is ambiguous.
	rows, _ = runSQL(t, cat, "SELECT a.v AS x, b.v FROM a JOIN b ON a.k = b.k ORDER BY x")
	if len(rows) != 3 || rows[0][0] != int64(10) {
		t.Errorf("ORDER BY alias = %v", rows)
	}
	for _, q := range []string{
		"SELECT a.v, b.v FROM a JOIN b ON a.k = b.k ORDER BY v",
		"SELECT a.v AS x, b.v FROM a JOIN b ON a.k = b.k ORDER BY a.x",
		"SELECT a.v FROM a JOIN b ON a.k = b.k ORDER BY b.v",
	} {
		stmt, err := Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Compile(stmt, cat); err == nil {
			t.Errorf("compiled %q", q)
		}
	}
}

// --- seeded property test against a nested-loop evaluation -----------------

// propTable is one table of the toy catalog, with its full-width rows kept for
// the reference evaluation.
type propTable struct {
	name   string
	schema engine.Schema
	rows   []engine.Row
}

// propCatalog builds three tables whose column names overlap (id, k, v), so
// generated references need their qualifier where the name alone is ambiguous.
// Floats are multiples of 0.25 and ints are small: every sum and product is
// exact in float64, whatever order it is taken in.
func propCatalog(t *testing.T) (*engine.Catalog, []propTable) {
	t.Helper()
	intc := func(n string) engine.Column { return engine.Column{Name: n, Type: engine.TypeInt} }
	tables := []propTable{
		{name: "a", schema: engine.Schema{intc("id"), intc("k"), intc("v"), {Name: "s", Type: engine.TypeString}, {Name: "f", Type: engine.TypeFloat}}},
		{name: "b", schema: engine.Schema{intc("id"), intc("k"), intc("v"), {Name: "t", Type: engine.TypeString}}},
		{name: "c", schema: engine.Schema{intc("id"), {Name: "w", Type: engine.TypeFloat}, {Name: "name", Type: engine.TypeString}}},
	}
	for i := 0; i < 40; i++ {
		tables[0].rows = append(tables[0].rows, engine.Row{int64(i), int64(i % 7), int64(i % 5), fmt.Sprintf("s%d", i%3), float64(i%4) * 0.25})
	}
	for i := 0; i < 30; i++ {
		tables[1].rows = append(tables[1].rows, engine.Row{int64(i), int64(i % 6), int64((i * 3) % 5), fmt.Sprintf("t%d", i%4)})
	}
	for i := 0; i < 7; i++ {
		tables[2].rows = append(tables[2].rows, engine.Row{int64(i), float64(i) * 0.5, fmt.Sprintf("n%d", i%2)})
	}
	cat := engine.NewCatalog(4)
	for i, pt := range tables {
		var tb *engine.Table
		var err error
		if i == 2 {
			tb, err = engine.NewReplicatedTable(pt.name, pt.schema, pt.rows, 4)
		} else {
			tb, err = engine.NewTable(pt.name, pt.schema, pt.rows, 4, 0)
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := cat.Add(tb); err != nil {
			t.Fatal(err)
		}
	}
	return cat, tables
}

// propCol names a column by position: table from[tbl] of the query, column col.
type propCol struct{ tbl, col int }

// propExpr is a column, a column combined with a second one, or a column
// times an integer literal.
type propExpr struct {
	l   propCol
	op  byte     // 0 for a bare column
	r   *propCol // nil: lit is the right operand
	lit int64
}

type propPred struct {
	l   propCol
	op  string
	r   *propCol // nil: compare with lit
	lit engine.Value
}

type propItem struct {
	agg  string    // "" for a plain item
	expr *propExpr // nil for COUNT(*)
}

type propQuery struct {
	from    []int // indexes into the toy tables, in FROM order
	joins   [][2]propCol
	where   []propPred
	groupBy []propCol
	items   []propItem
}

type propGen struct {
	r      *rand.Rand
	tables []propTable
	q      propQuery
}

func (g *propGen) schema(c propCol) engine.Column { return g.tables[g.q.from[c.tbl]].schema[c.col] }

// col picks a column of the query's tables lo..hi-1 whose type keep accepts.
func (g *propGen) col(lo, hi int, keep func(engine.ColType) bool) propCol {
	var cands []propCol
	for ti := lo; ti < hi; ti++ {
		for ci, c := range g.tables[g.q.from[ti]].schema {
			if keep(c.Type) {
				cands = append(cands, propCol{ti, ci})
			}
		}
	}
	return cands[g.r.Intn(len(cands))]
}

func anyType(engine.ColType) bool   { return true }
func numeric(t engine.ColType) bool { return t != engine.TypeString }
func integer(t engine.ColType) bool { return t == engine.TypeInt }
func sameAs(c engine.ColType) func(engine.ColType) bool {
	return func(t engine.ColType) bool { return (t == engine.TypeString) == (c == engine.TypeString) }
}

func (g *propGen) expr(numericOnly bool) *propExpr {
	n := len(g.q.from)
	switch g.r.Intn(4) {
	case 0:
		r := g.col(0, n, numeric)
		return &propExpr{l: g.col(0, n, numeric), op: "+-*"[g.r.Intn(3)], r: &r}
	case 1:
		return &propExpr{l: g.col(0, n, numeric), op: '*', lit: int64(g.r.Intn(4))}
	}
	if numericOnly {
		return &propExpr{l: g.col(0, n, numeric)}
	}
	return &propExpr{l: g.col(0, n, anyType)}
}

func newPropQuery(r *rand.Rand, tables []propTable) *propGen {
	g := &propGen{r: r, tables: tables}
	g.q.from = r.Perm(len(tables))[:1+r.Intn(len(tables))]
	n := len(g.q.from)
	for i := 1; i < n; i++ {
		pair := [2]propCol{g.col(0, i, integer), g.col(i, i+1, integer)}
		if r.Intn(2) == 0 { // ON may be written either way round
			pair[0], pair[1] = pair[1], pair[0]
		}
		g.q.joins = append(g.q.joins, pair)
	}
	for i := r.Intn(3); i > 0; i-- {
		p := propPred{l: g.col(0, n, anyType), op: []string{"=", "<>", "<", "<=", ">", ">="}[r.Intn(6)]}
		lt := g.schema(p.l).Type
		if r.Intn(2) == 0 { // column against column: pushed down when both are of one table, post-join otherwise
			rc := g.col(0, n, sameAs(lt))
			p.r = &rc
		} else {
			switch lt {
			case engine.TypeInt:
				p.lit = int64(r.Intn(6))
			case engine.TypeFloat:
				p.lit = float64(r.Intn(6)) * 0.25
			default:
				p.lit = g.tables[g.q.from[p.l.tbl]].rows[r.Intn(5)][p.l.col]
			}
		}
		g.q.where = append(g.q.where, p)
	}
	switch r.Intn(4) {
	case 0: // COUNT(*) only: nothing above the joins reads a column
		g.q.items = []propItem{{agg: "COUNT"}}
	case 1: // plain select list
		for i := 1 + r.Intn(4); i > 0; i-- {
			g.q.items = append(g.q.items, propItem{expr: g.expr(false)})
		}
	default: // aggregates, grouped or global
		for i := r.Intn(3); i > 0; i-- {
			c := g.col(0, n, anyType)
			g.q.groupBy = append(g.q.groupBy, c)
			if r.Intn(3) > 0 {
				g.q.items = append(g.q.items, propItem{expr: &propExpr{l: c}})
			}
		}
		for i := 1 + r.Intn(3); i > 0; i-- {
			switch f := []string{"SUM", "AVG", "MIN", "MAX", "COUNT"}[r.Intn(5)]; f {
			case "COUNT":
				g.q.items = append(g.q.items, propItem{agg: f})
			default:
				g.q.items = append(g.q.items, propItem{agg: f, expr: g.expr(f == "SUM" || f == "AVG")})
			}
		}
	}
	return g
}

// ref renders a column reference: always qualified when another table of the
// query has a column of that name, either way otherwise.
func (g *propGen) ref(c propCol) string {
	name, shared := g.schema(c).Name, false
	for ti, t := range g.q.from {
		if ti != c.tbl && slices.ContainsFunc(g.tables[t].schema, func(c engine.Column) bool { return c.Name == name }) {
			shared = true
		}
	}
	if shared || g.r.Intn(2) == 0 {
		return g.tables[g.q.from[c.tbl]].name + "." + name
	}
	return name
}

func (g *propGen) exprSQL(e *propExpr) string {
	switch {
	case e.op == 0:
		return g.ref(e.l)
	case e.r != nil:
		return fmt.Sprintf("%s %c %s", g.ref(e.l), e.op, g.ref(*e.r))
	default:
		return fmt.Sprintf("%s %c %d", g.ref(e.l), e.op, e.lit)
	}
}

func (g *propGen) sql() string {
	var sb strings.Builder
	sb.WriteString("SELECT ")
	for i, it := range g.q.items {
		if i > 0 {
			sb.WriteString(", ")
		}
		switch {
		case it.agg == "":
			sb.WriteString(g.exprSQL(it.expr))
		case it.expr == nil:
			sb.WriteString("COUNT(*)")
		default:
			fmt.Fprintf(&sb, "%s(%s)", it.agg, g.exprSQL(it.expr))
		}
	}
	sb.WriteString(" FROM " + g.tables[g.q.from[0]].name)
	for i, j := range g.q.joins {
		fmt.Fprintf(&sb, " JOIN %s ON %s = %s", g.tables[g.q.from[i+1]].name, g.ref(j[0]), g.ref(j[1]))
	}
	for i, p := range g.q.where {
		sb.WriteString(map[bool]string{true: " WHERE ", false: " AND "}[i == 0])
		sb.WriteString(g.ref(p.l) + " " + p.op + " ")
		switch lit := p.lit.(type) {
		case nil:
			sb.WriteString(g.ref(*p.r))
		case string:
			sb.WriteString("'" + lit + "'")
		case float64:
			fmt.Fprintf(&sb, "%.2f", lit)
		default:
			fmt.Fprintf(&sb, "%d", lit)
		}
	}
	for i, c := range g.q.groupBy {
		sb.WriteString(map[bool]string{true: " GROUP BY ", false: ", "}[i == 0])
		sb.WriteString(g.ref(c))
	}
	return sb.String()
}

func num(v engine.Value) float64 {
	if i, ok := v.(int64); ok {
		return float64(i)
	}
	return v.(float64)
}

// less orders two values of one kind the way the engine compares them:
// numbers as float64, strings lexicographically.
func less(a, b engine.Value) bool {
	if s, ok := a.(string); ok {
		return s < b.(string)
	}
	return num(a) < num(b)
}

// evaluate is the reference: a nested loop over the tables' full-width rows,
// the join conditions and every predicate applied to each combination, then
// the select list (grouped where the query aggregates). Rows come back in
// canonical text form, sorted.
func (q *propQuery) evaluate(tables []propTable) []string {
	val := func(env []engine.Row, c propCol) engine.Value { return env[c.tbl][c.col] }
	eval := func(env []engine.Row, e *propExpr) engine.Value {
		if e.op == 0 {
			return val(env, e.l)
		}
		l, r := num(val(env, e.l)), float64(e.lit)
		if e.r != nil {
			r = num(val(env, *e.r))
		}
		switch e.op {
		case '+':
			return l + r
		case '-':
			return l - r
		}
		return l * r
	}
	holds := func(env []engine.Row, p propPred) bool {
		l, r := val(env, p.l), p.lit
		if p.r != nil {
			r = val(env, *p.r)
		}
		switch p.op {
		case "=":
			return !less(l, r) && !less(r, l)
		case "<>":
			return less(l, r) || less(r, l)
		case "<":
			return less(l, r)
		case "<=":
			return !less(r, l)
		case ">":
			return less(r, l)
		}
		return !less(l, r)
	}

	var joined [][]engine.Row
	var loop func(env []engine.Row)
	loop = func(env []engine.Row) {
		if i := len(env); i < len(q.from) {
			for _, r := range tables[q.from[i]].rows {
				next := append(append([]engine.Row{}, env...), r)
				if i > 0 && val(next, q.joins[i-1][0]) != val(next, q.joins[i-1][1]) {
					continue
				}
				loop(next)
			}
			return
		}
		for _, p := range q.where {
			if !holds(env, p) {
				return
			}
		}
		joined = append(joined, env)
	}
	loop(nil)

	aggregated := len(q.groupBy) > 0
	for _, it := range q.items {
		aggregated = aggregated || it.agg != ""
	}
	out := []string{}
	if !aggregated {
		for _, env := range joined {
			row := make(engine.Row, len(q.items))
			for i, it := range q.items {
				row[i] = eval(env, it.expr)
			}
			out = append(out, canonical(row))
		}
		sort.Strings(out)
		return out
	}
	type acc struct {
		first    []engine.Row
		count    int64
		sum      []float64
		min, max []engine.Value
	}
	groups := map[string]*acc{}
	for _, env := range joined {
		key := make(engine.Row, len(q.groupBy))
		for i, c := range q.groupBy {
			key[i] = val(env, c)
		}
		a := groups[canonical(key)]
		if a == nil {
			a = &acc{first: env, sum: make([]float64, len(q.items)), min: make([]engine.Value, len(q.items)), max: make([]engine.Value, len(q.items))}
			groups[canonical(key)] = a
		}
		a.count++
		for i, it := range q.items {
			if it.agg == "" || it.expr == nil {
				continue
			}
			v := eval(env, it.expr)
			if it.agg == "SUM" || it.agg == "AVG" {
				a.sum[i] += num(v)
			}
			if a.min[i] == nil || less(v, a.min[i]) {
				a.min[i] = v
			}
			if a.max[i] == nil || less(a.max[i], v) {
				a.max[i] = v
			}
		}
	}
	for _, a := range groups {
		row := make(engine.Row, len(q.items))
		for i, it := range q.items {
			switch it.agg {
			case "":
				row[i] = eval(a.first, it.expr) // a grouping column: the same in every row of the group
			case "COUNT":
				row[i] = a.count
			case "SUM":
				row[i] = a.sum[i]
			case "AVG":
				row[i] = a.sum[i] / float64(a.count)
			case "MIN":
				row[i] = a.min[i]
			case "MAX":
				row[i] = a.max[i]
			}
		}
		out = append(out, canonical(row))
	}
	sort.Strings(out)
	return out
}

func canonical(r engine.Row) string {
	parts := make([]string, len(r))
	for i, v := range r {
		parts[i] = fmt.Sprintf("%T:%v", v, v)
	}
	return strings.Join(parts, "|")
}

func canonicalRows(rows []engine.Row) []string {
	out := make([]string, 0, len(rows))
	for _, r := range rows {
		out = append(out, canonical(r))
	}
	sort.Strings(out)
	return out
}

// findOp returns the operator of the plan named name, or nil.
func findOp(root engine.Operator, name string) engine.Operator {
	if root.Name() == name {
		return root
	}
	for _, in := range root.Inputs() {
		if op := findOp(in, name); op != nil {
			return op
		}
	}
	return nil
}

// elided reports whether Compile aggregated the plan where its rows are, with
// no exchange and no partial phase: the aggregate reads agg-input.
func elided(pp *PhysicalPlan) bool {
	agg := findOp(pp.Root, "aggregate")
	return agg != nil && agg.Inputs()[0].Name() == "agg-input"
}

// checkCoLocated runs the aggregate of an elided plan on its own and fails
// when a group key — its first ngroups columns — shows up in two partitions.
func checkCoLocated(t *testing.T, label string, part func(engine.Operator) ([][]engine.Row, error), pp *PhysicalPlan, ngroups int) {
	t.Helper()
	parts, err := part(findOp(pp.Root, "aggregate"))
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	home := map[string]int{}
	for p, rows := range parts {
		for _, r := range rows {
			key := canonical(r[:ngroups])
			if q, ok := home[key]; ok && q != p {
				t.Errorf("%s: group %s is in partitions %d and %d", label, key, q, p)
			}
			home[key] = p
		}
	}
}

// Both data planes run the plan Compile pruned; the reference never sees a
// plan. Where Compile aggregates without an exchange, every group must also
// come out of one partition on both. A failing seed replays with
// -run 'TestPrunedPlansMatchNestedLoop/seed=N'.
func TestPrunedPlansMatchNestedLoop(t *testing.T) {
	cat, tables := propCatalog(t)
	rt, err := runtime.New(runtime.Config{Nodes: cat.Partitions()})
	if err != nil {
		t.Fatal(err)
	}
	executors := map[string]func(engine.Operator) ([][]engine.Row, error){
		"runtime": func(op engine.Operator) ([][]engine.Row, error) {
			res, _, err := rt.Execute(context.Background(), op)
			if err != nil {
				return nil, err
			}
			return res.Parts, nil
		},
		"coordinator": func(op engine.Operator) ([][]engine.Row, error) {
			res, _, err := (&engine.Coordinator{Nodes: cat.Partitions()}).Execute(op)
			if err != nil {
				return nil, err
			}
			return res.Parts, nil
		},
	}
	coLocated := 0
	for seed := int64(0); seed < 300; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			g := newPropQuery(rand.New(rand.NewSource(seed)), tables)
			text := g.sql()
			pp := mustCompile(t, cat, text)
			want := g.q.evaluate(tables)

			got, _, err := rt.Execute(context.Background(), pp.Root)
			if err != nil {
				t.Fatalf("%s: runtime: %v", text, err)
			}
			if rows := canonicalRows(got.AllRows()); !reflect.DeepEqual(rows, want) {
				t.Errorf("%s:\n runtime returned %d rows %v\n nested loop %d rows %v", text, len(rows), rows, len(want), want)
			}
			ref, _, err := (&engine.Coordinator{Nodes: cat.Partitions()}).Execute(pp.Root)
			if err != nil {
				t.Fatalf("%s: coordinator: %v", text, err)
			}
			if rows := canonicalRows(ref.AllRows()); !reflect.DeepEqual(rows, want) {
				t.Errorf("%s:\n coordinator returned %d rows %v\n nested loop %d rows %v", text, len(rows), rows, len(want), want)
			}
			if elided(pp) {
				coLocated++
				for name, part := range executors {
					checkCoLocated(t, text+" on the "+name, part, pp, len(g.q.groupBy))
				}
			}
		})
	}
	if coLocated == 0 {
		t.Error("no statement aggregated without an exchange: the co-located path went unchecked")
	}
	t.Logf("%d of 300 statements aggregated where their rows are", coLocated)
}

// The aggregate drops its exchange only where the probe stream starts at a
// table hash-partitioned on a group column. A round-robin table, a replicated
// one, a hand-built one (no known key) and a grouping on another column keep
// the two phases; so does a stream that starts at the other side of a join.
func TestAggregateElidesTheExchangeOnlyOnAHashKey(t *testing.T) {
	schema := engine.Schema{{Name: "id", Type: engine.TypeInt}, {Name: "v", Type: engine.TypeInt}}
	var rows []engine.Row
	for i := 0; i < 20; i++ {
		rows = append(rows, engine.Row{int64(i), int64(i % 3)})
	}
	hashed, err := engine.NewTable("hashed", schema, rows, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	robin, err := engine.NewTable("robin", schema, rows, 4, -1)
	if err != nil {
		t.Fatal(err)
	}
	repl, err := engine.NewReplicatedTable("repl", schema, rows, 4)
	if err != nil {
		t.Fatal(err)
	}
	hand := &engine.Table{Name: "hand", Schema: schema, ColParts: hashed.ColParts}
	cat := engine.NewCatalog(4)
	for _, tb := range []*engine.Table{hashed, robin, repl, hand} {
		if err := cat.Add(tb); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		q    string
		want bool
	}{
		{"SELECT id, COUNT(*) FROM hashed GROUP BY id", true},
		{"SELECT v, id, SUM(v) FROM hashed GROUP BY v, id", true},
		{"SELECT v, COUNT(*) FROM hashed GROUP BY v", false},
		{"SELECT COUNT(*) FROM hashed", false},
		{"SELECT id, COUNT(*) FROM robin GROUP BY id", false},
		{"SELECT id, COUNT(*) FROM repl GROUP BY id", false},
		{"SELECT id, COUNT(*) FROM hand GROUP BY id", false},
		// Equal estimates: the first table is the probe stream.
		{"SELECT hashed.id, COUNT(*) FROM hashed JOIN robin ON hashed.v = robin.id GROUP BY hashed.id", true},
		{"SELECT hashed.id, COUNT(*) FROM robin JOIN hashed ON robin.v = hashed.id GROUP BY hashed.id", false},
	} {
		pp := mustCompile(t, cat, tc.q)
		if got := elided(pp); got != tc.want {
			t.Errorf("%s: aggregated without an exchange = %v, want %v", tc.q, got, tc.want)
		}
	}

	tpch := tpchCatalog(t)
	for _, tc := range []struct {
		name, q string
		want    bool
	}{{"Q1", servedQ1, false}, {"Q3", servedQ3, true}, {"Q5", servedQ5, false}} {
		if got := elided(mustCompile(t, tpch, tc.q)); got != tc.want {
			t.Errorf("served %s: aggregated without an exchange = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// --- recovery over the narrower join outputs --------------------------------

// Each of Q5's joins in turn is checkpointed to disk and loses a partition at
// its first attempt. The checkpoint holds the pruned columns and nothing
// else, a restore from it reproduces the clean rows, and a block some wider
// plan left under the same (operator, partition) is a miss, not a restore.
func TestQ5RecoveryOverPrunedJoins(t *testing.T) {
	cat := tpchCatalog(t)
	nodes := cat.Partitions()
	execute := func(t *testing.T, cfg runtime.Config, pp *PhysicalPlan) (*engine.PartitionedResult, *engine.Report) {
		t.Helper()
		cfg.Nodes = nodes
		rt, err := runtime.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, rep, err := rt.Execute(context.Background(), pp.Root)
		if err != nil {
			t.Fatal(err)
		}
		return res, rep
	}
	clean, _ := execute(t, runtime.Config{}, mustCompile(t, cat, servedQ5))

	for ji := 0; ji < 5; ji++ {
		for _, recovery := range []schemes.Recovery{schemes.FineGrained, schemes.CoarseRestart} {
			t.Run(fmt.Sprintf("join-%d/%v", ji+1, recovery), func(t *testing.T) {
				plan := func() (*PhysicalPlan, *engine.HashJoin) {
					pp := mustCompile(t, cat, servedQ5)
					pp.Joins[ji].SetMaterialize(true)
					return pp, pp.Joins[ji]
				}
				pp, join := plan()
				width := len(join.OutSchema())
				victim := ji % nodes
				if ji < 2 {
					victim = 0 // region and nation are scanned once, into partition 0
				}

				dir := t.TempDir()
				store, err := engine.NewDiskStore(dir)
				if err != nil {
					t.Fatal(err)
				}
				m := &runtime.Metrics{}
				got, rep := execute(t, runtime.Config{Store: store, Recovery: recovery, Metrics: m,
					Injector: engine.NewScriptedFailures().Add(join.Name(), victim, 0)}, pp)
				if !reflect.DeepEqual(got.Parts, clean.Parts) {
					t.Errorf("rows after the kill differ from the clean run's")
				}
				if rep.Failures != 1 {
					t.Errorf("%d failures handled, want 1", rep.Failures)
				}
				if led := m.Ledger().Snapshot(); led.Failures != 1 || led.Unresolved != 0 {
					t.Errorf("ledger inconsistent: %s", led.String())
				}
				if err := store.Err(); err != nil {
					t.Fatal(err)
				}
				stored, ok := store.Get(join.Name(), victim)
				if !ok || len(stored) == 0 {
					t.Fatalf("partition %d of %s is not on disk", victim, join.Name())
				}
				for _, r := range stored {
					if len(r) != width {
						t.Fatalf("checkpointed row has %d columns, %s emits %d", len(r), join.Name(), width)
					}
				}

				// A second runtime over the same directory restores every
				// partition instead of recomputing it.
				store2, err := engine.NewDiskStore(dir)
				if err != nil {
					t.Fatal(err)
				}
				pp2, _ := plan()
				again, rep2 := execute(t, runtime.Config{Store: store2, Recovery: recovery}, pp2)
				if rep2.MaterializedPartitions != 0 {
					t.Errorf("resumed run re-materialized %d partitions, want a restore", rep2.MaterializedPartitions)
				}
				if !reflect.DeepEqual(again.Parts, clean.Parts) {
					t.Errorf("rows restored from the pruned checkpoint differ from the clean run's")
				}

				// The same partition as a wider plan would have written it.
				wide := make([]engine.Row, len(stored))
				for i, r := range stored {
					wide[i] = append(append(engine.Row{}, r...), int64(i))
				}
				if err := store2.Put(join.Name(), victim, wide, nodes); err != nil {
					t.Fatal(err)
				}
				pp3, _ := plan()
				third, rep3 := execute(t, runtime.Config{Store: store2, Recovery: recovery}, pp3)
				if rep3.MaterializedPartitions != 1 {
					t.Errorf("re-materialized %d partitions over one wider block, want exactly that one", rep3.MaterializedPartitions)
				}
				if !reflect.DeepEqual(third.Parts, clean.Parts) {
					t.Errorf("rows over a wider block differ from the clean run's")
				}
				if rewritten, ok := store2.Get(join.Name(), victim); !ok || len(rewritten) == 0 || len(rewritten[0]) != width {
					t.Errorf("the wider block was not rewritten at %d columns", width)
				}
			})
		}
	}
}
