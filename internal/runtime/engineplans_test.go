package runtime

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"ftpde/internal/engine"
	"ftpde/internal/tpch"
)

// Hand-built engine plans of the shapes SQL cannot express (a shared scan,
// UnionAll, Limit) and of Q5 with materialization chosen by join name: the
// oracle-vs-runtime tests run them beside the SQL-compiled queries.

// engineQ1C builds a DAG-shaped variant of Q1 (above-average lineitems): one
// shared LINEITEM scan feeds both a global per-returnflag AVG(quantity)
// aggregate and, through a materialized join on the flag, the probe side that
// keeps only lineitems above their flag's average before the final grouped
// count/sum. The shared scan makes the plan a DAG, not a tree.
func engineQ1C(cat *engine.Catalog, shipdateMax int64) (engine.Operator, error) {
	li, err := cat.Table("lineitem")
	if err != nil {
		return nil, err
	}
	s := li.Schema
	// Output: l_returnflag, l_linestatus, l_quantity, l_extendedprice.
	scan := engine.NewScan("q1c-scan-lineitem", li,
		engine.Cmp{Op: engine.LE, L: engine.Col(s.MustCol("l_shipdate")), R: engine.Const{V: shipdateMax}},
		[]int{s.MustCol("l_returnflag"), s.MustCol("l_linestatus"),
			s.MustCol("l_quantity"), s.MustCol("l_extendedprice")})
	avg := engine.NewHashAggregate("q1c-avg", scan, []int{0},
		[]engine.AggSpec{{Kind: engine.AggAvg, Col: 2}},
		true,
		engine.Schema{
			{Name: "returnflag", Type: engine.TypeString},
			{Name: "avg_qty", Type: engine.TypeFloat},
		})
	// Build the tiny per-flag averages, probe the shared scan. Output:
	// flag, status, qty, price, flag(avg side), avg_qty.
	join := engine.NewHashJoin("q1c-join", avg, scan, 0, 0)
	join.SetMaterialize(true)
	sel := engine.NewSelect("q1c-above-avg", join, engine.And{
		engine.Cmp{Op: engine.EQ, L: engine.Col(0), R: engine.Col(4)},
		engine.Cmp{Op: engine.GT, L: engine.Col(2), R: engine.Col(5)},
	})
	proj := engine.NewProject("q1c-proj", sel,
		[]engine.Expr{engine.Col(0), engine.Col(1), engine.Col(3)},
		engine.Schema{
			{Name: "returnflag", Type: engine.TypeString},
			{Name: "linestatus", Type: engine.TypeString},
			{Name: "price", Type: engine.TypeFloat},
		})
	agg := engine.NewHashAggregate("q1c-agg", proj, []int{0, 1},
		[]engine.AggSpec{
			{Kind: engine.AggCount},
			{Kind: engine.AggSum, Col: 2},
		},
		true,
		engine.Schema{
			{Name: "returnflag", Type: engine.TypeString},
			{Name: "linestatus", Type: engine.TypeString},
			{Name: "count", Type: engine.TypeInt},
			{Name: "sum_price", Type: engine.TypeFloat},
		})
	return agg, nil
}

// engineQ2C builds a DAG-shaped variant of Q2 (minimum-cost suppliers): the
// partition-wise MIN(ps_supplycost) per part is materialized and consumed by
// two branches — a join against small parts and a plain filter on expensive
// minimums — whose union is sorted and limited. The materialized aggregate
// with two consumers makes the plan a DAG.
func engineQ2C(cat *engine.Catalog, sizeMax int64, costMin float64) (engine.Operator, error) {
	ps, err := cat.Table("partsupp")
	if err != nil {
		return nil, err
	}
	pt, err := cat.Table("part")
	if err != nil {
		return nil, err
	}
	// Output: ps_partkey, ps_supplycost.
	scanPS := engine.NewScan("q2c-scan-partsupp", ps, nil,
		[]int{ps.Schema.MustCol("ps_partkey"), ps.Schema.MustCol("ps_supplycost")})
	ex := engine.NewExchange("q2c-exchange", scanPS, 0)
	minSchema := engine.Schema{
		{Name: "partkey", Type: engine.TypeInt},
		{Name: "mincost", Type: engine.TypeFloat},
	}
	minAgg := engine.NewHashAggregate("q2c-mincost", ex, []int{0},
		[]engine.AggSpec{{Kind: engine.AggMin, Col: 1}},
		false, minSchema)
	minAgg.SetMaterialize(true)

	// Branch A: minimum costs of small parts. Build the filtered parts, probe
	// the shared aggregate. Output: partkey, mincost, p_partkey.
	scanP := engine.NewScan("q2c-scan-part", pt,
		engine.Cmp{Op: engine.LT, L: engine.Col(pt.Schema.MustCol("p_size")), R: engine.Const{V: sizeMax}},
		[]int{pt.Schema.MustCol("p_partkey")})
	join := engine.NewHashJoin("q2c-join-part", scanP, minAgg, 0, 0)
	cheap := engine.NewProject("q2c-cheap", join,
		[]engine.Expr{engine.Col(0), engine.Col(1)}, minSchema)

	// Branch B: parts whose cheapest supplier is still expensive.
	pricey := engine.NewSelect("q2c-pricey", minAgg,
		engine.Cmp{Op: engine.GT, L: engine.Col(1), R: engine.Const{V: costMin}})
	priceyProj := engine.NewProject("q2c-pricey-proj", pricey,
		[]engine.Expr{engine.Col(0), engine.Col(1)}, minSchema)

	union, err := engine.NewUnionAll("q2c-union", cheap, priceyProj)
	if err != nil {
		return nil, err
	}
	sorted := engine.NewSort("q2c-sort", union, 1, true)
	return engine.NewLimit("q2c-limit", sorted, 50), nil
}

// engineQ5 builds TPC-H Q5 (local supplier volume, simplified): the Figure 9
// chain σ(REGION) ⨝ NATION ⨝ CUSTOMER ⨝ ORDERS ⨝ LINEITEM ⨝ SUPPLIER with
// the c_nationkey = s_nationkey condition applied as a post-join filter,
// aggregating revenue per nation.
func engineQ5(cat *engine.Catalog, regionKey int64, dateMin, dateMax int64, materialize map[string]bool) (engine.Operator, error) {
	get := func(name string) *engine.Table {
		t, err := cat.Table(name)
		if err != nil {
			panic(err)
		}
		return t
	}
	region, nation, cust := get("region"), get("nation"), get("customer")
	ord, li, sup := get("orders"), get("lineitem"), get("supplier")

	scanR := engine.NewScanOnce("q5-scan-region", region,
		engine.Cmp{Op: engine.EQ, L: engine.Col(region.Schema.MustCol("r_regionkey")), R: engine.Const{V: regionKey}},
		[]int{region.Schema.MustCol("r_regionkey")})
	scanN := engine.NewScanOnce("q5-scan-nation", nation, nil, nil)
	// j1: nation rows of the region. Probe nation (replicated) against the
	// single region row. Output: n_nationkey, n_regionkey, n_name, r_regionkey.
	j1 := engine.NewHashJoin("q5-join1", scanR, scanN, 0, nation.Schema.MustCol("n_regionkey"))

	scanC := engine.NewScan("q5-scan-customer", cust, nil,
		[]int{cust.Schema.MustCol("c_custkey"), cust.Schema.MustCol("c_nationkey")})
	// j2: customers in the region. Probe customer against j1 on nationkey.
	// Output: c_custkey, c_nationkey, n_nationkey, n_regionkey, n_name, r_regionkey.
	j2 := engine.NewHashJoin("q5-join2", j1, scanC, 0, 1)

	scanO := engine.NewScan("q5-scan-orders", ord,
		engine.And{
			engine.Cmp{Op: engine.GE, L: engine.Col(ord.Schema.MustCol("o_orderdate")), R: engine.Const{V: dateMin}},
			engine.Cmp{Op: engine.LT, L: engine.Col(ord.Schema.MustCol("o_orderdate")), R: engine.Const{V: dateMax}},
		},
		[]int{ord.Schema.MustCol("o_orderkey"), ord.Schema.MustCol("o_custkey")})
	// j3: orders of those customers in the date range. Probe orders against
	// j2 on custkey. Output: o_orderkey, o_custkey, then j2's columns.
	j3 := engine.NewHashJoin("q5-join3", j2, scanO, 0, 1)

	scanL := engine.NewScan("q5-scan-lineitem", li, nil,
		[]int{li.Schema.MustCol("l_orderkey"), li.Schema.MustCol("l_suppkey"),
			li.Schema.MustCol("l_extendedprice"), li.Schema.MustCol("l_discount")})
	// j4: lineitems of those orders. Probe lineitem against j3 on orderkey.
	// Output: l_orderkey, l_suppkey, price, discount, then j3's columns.
	j4 := engine.NewHashJoin("q5-join4", j3, scanL, 0, 0)

	scanS := engine.NewScan("q5-scan-supplier", sup, nil, nil)
	// j5: attach the supplier. Build suppliers, probe j4 on suppkey.
	// Output: j4's columns, then s_suppkey, s_nationkey.
	j5 := engine.NewHashJoin("q5-join5", scanS, j4, 0, 1)
	j4Width := 4 + 2 + 6 // l-cols + o-cols + j2-cols
	sNationCol := j4Width + 1
	cNationCol := 4 + 2 + 1 // c_nationkey inside j2 block
	local := engine.NewSelect("q5-local-supplier", j5,
		engine.Cmp{Op: engine.EQ, L: engine.Col(sNationCol), R: engine.Col(cNationCol)})

	nNameCol := 4 + 2 + 4 // n_name inside j2 block
	rev := engine.NewProject("q5-revenue", local,
		[]engine.Expr{
			engine.Col(nNameCol),
			engine.Arith{Op: engine.Mul, L: engine.Col(2),
				R: engine.Arith{Op: engine.Sub, L: engine.Const{V: 1.0}, R: engine.Col(3)}},
		},
		engine.Schema{{Name: "nation", Type: engine.TypeString}, {Name: "revenue", Type: engine.TypeFloat}})
	agg := engine.NewHashAggregate("q5-agg", rev, []int{0},
		[]engine.AggSpec{{Kind: engine.AggSum, Col: 1}},
		true,
		engine.Schema{{Name: "nation", Type: engine.TypeString}, {Name: "revenue", Type: engine.TypeFloat}})

	for name, m := range materialize {
		if !m {
			continue
		}
		found := false
		for _, op := range []interface {
			Name() string
			SetMaterialize(bool)
		}{j1, j2, j3, j4, j5} {
			if op.Name() == name {
				op.SetMaterialize(true)
				found = true
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown materialization target %q", name)
		}
	}
	return agg, nil
}

// q5Catalog is the TPC-H data the equivalence tests run on.
func q5Catalog(t *testing.T) *engine.Catalog {
	t.Helper()
	cat, err := tpch.Generate(eqSF, eqNodes, eqSeed)
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

// allRowsOf returns every row of table, partition after partition.
func allRowsOf(t *testing.T, cat *engine.Catalog, table string) []engine.Row {
	t.Helper()
	tb, err := cat.Table(table)
	if err != nil {
		t.Fatal(err)
	}
	var rows []engine.Row
	for _, p := range tb.RowParts() {
		rows = append(rows, p...)
	}
	return rows
}

func q5Reference(t *testing.T, cat *engine.Catalog, regionKey, dateMin, dateMax int64) map[string]float64 {
	t.Helper()
	nations := map[int64]string{}
	nationInRegion := map[int64]bool{}
	for _, r := range allRowsOf(t, cat, "nation") {
		if r[1].(int64) == regionKey {
			nationInRegion[r[0].(int64)] = true
			nations[r[0].(int64)] = r[2].(string)
		}
	}
	// Deduplicate replicated nation rows.
	custNation := map[int64]int64{}
	for _, r := range allRowsOf(t, cat, "customer") {
		if nationInRegion[r[1].(int64)] {
			custNation[r[0].(int64)] = r[1].(int64)
		}
	}
	orderCust := map[int64]int64{}
	for _, r := range allRowsOf(t, cat, "orders") {
		d := r[2].(int64)
		if d >= dateMin && d < dateMax {
			if _, ok := custNation[r[1].(int64)]; ok {
				orderCust[r[0].(int64)] = r[1].(int64)
			}
		}
	}
	supNation := map[int64]int64{}
	for _, r := range allRowsOf(t, cat, "supplier") {
		supNation[r[0].(int64)] = r[1].(int64)
	}
	rev := map[string]float64{}
	for _, r := range allRowsOf(t, cat, "lineitem") {
		cust, ok := orderCust[r[0].(int64)]
		if !ok {
			continue
		}
		cn := custNation[cust]
		if supNation[r[1].(int64)] != cn {
			continue
		}
		rev[nations[cn]] += r[3].(float64) * (1 - r[4].(float64))
	}
	return rev
}

func TestEngineQ5MatchesReference(t *testing.T) {
	cat := q5Catalog(t)
	const regionKey, dateMin, dateMax = int64(2), int64(0), int64(1500)
	q, err := engineQ5(cat, regionKey, dateMin, dateMax, nil)
	if err != nil {
		t.Fatal(err)
	}
	co := &engine.Coordinator{Nodes: 4}
	res, _, err := co.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	want := q5Reference(t, cat, regionKey, dateMin, dateMax)
	// The replicated nation/region tables produce duplicate matches in the
	// broadcast join (every partition holds every nation row). The engine
	// plan scans the replicated table partition-wise, so each nation row
	// appears len(parts) times in the build side... the scan reads partition
	// p only, so each build row appears exactly once per partition. Verify
	// totals match the reference exactly.
	got := map[string]float64{}
	for _, r := range res.AllRows() {
		got[r[0].(string)] += r[1].(float64)
	}
	// Broadcast build over a replicated table multiplies matches by the
	// partition count; the reference divides that factor out if present.
	if len(got) == 0 && len(want) == 0 {
		return
	}
	scale := 0.0
	for k, v := range want {
		if got[k] == 0 && v != 0 {
			t.Fatalf("missing nation %s in result", k)
		}
		if v != 0 {
			scale = got[k] / v
			break
		}
	}
	if math.Abs(scale-1) > 1e-6 {
		t.Fatalf("unexpected duplication factor %g (should be exactly 1)", scale)
	}
	var keys []string
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if math.Abs(got[k]-want[k]) > 1e-6 {
			t.Errorf("nation %s revenue = %g, want %g", k, got[k], want[k])
		}
	}
	if len(got) != len(want) {
		t.Errorf("got %d nations, want %d", len(got), len(want))
	}
}

func TestEngineQ5RecoversWithMaterialization(t *testing.T) {
	cat := q5Catalog(t)
	const regionKey, dateMin, dateMax = int64(2), int64(0), int64(1500)

	clean, err := engineQ5(cat, regionKey, dateMin, dateMax, nil)
	if err != nil {
		t.Fatal(err)
	}
	co := &engine.Coordinator{Nodes: 4}
	cleanRes, _, err := co.Execute(clean)
	if err != nil {
		t.Fatal(err)
	}

	// Materialize join 3 (the paper's cost-based scheme would pick a cheap
	// mid-plan checkpoint) and inject a failure into join 4.
	q, err := engineQ5(cat, regionKey, dateMin, dateMax, map[string]bool{"q5-join3": true})
	if err != nil {
		t.Fatal(err)
	}
	co2 := &engine.Coordinator{
		Nodes:    4,
		Injector: engine.NewScriptedFailures().Add("q5-join4", 1, 0).Add("q5-agg", 0, 0),
	}
	res, rep, err := co2.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failures != 2 {
		t.Errorf("failures = %d, want 2", rep.Failures)
	}
	if rep.MaterializedPartitions == 0 {
		t.Error("nothing was materialized")
	}
	gotClean := map[string]float64{}
	for _, r := range cleanRes.AllRows() {
		gotClean[r[0].(string)] += r[1].(float64)
	}
	got := map[string]float64{}
	for _, r := range res.AllRows() {
		got[r[0].(string)] += r[1].(float64)
	}
	if len(got) != len(gotClean) {
		t.Fatalf("group count differs after recovery: %d vs %d", len(got), len(gotClean))
	}
	for k, v := range gotClean {
		if math.Abs(got[k]-v) > 1e-6 {
			t.Errorf("nation %s revenue after recovery = %g, want %g", k, got[k], v)
		}
	}
}
