package tpch

import "ftpde/internal/engine"

// Engine-executable query trees for the real engine at small scale factors.
// These exercise the same plan shapes as the cost-level plans; correctness
// is validated against naive reference implementations in tests, including
// under injected failures.

// EngineQ1 builds TPC-H Q1 (pricing summary): filter LINEITEM on shipdate,
// aggregate by (returnflag, linestatus).
func EngineQ1(cat *engine.Catalog, shipdateMax int64) (engine.Operator, error) {
	li, err := cat.Table("lineitem")
	if err != nil {
		return nil, err
	}
	s := li.Schema
	scan := engine.NewScan("q1-scan-lineitem", li,
		engine.Cmp{Op: engine.LE, L: engine.Col(s.MustCol("l_shipdate")), R: engine.Const{V: shipdateMax}},
		nil)
	agg := engine.NewHashAggregate("q1-agg", scan,
		[]int{s.MustCol("l_returnflag"), s.MustCol("l_linestatus")},
		[]engine.AggSpec{
			{Kind: engine.AggSum, Col: s.MustCol("l_quantity")},
			{Kind: engine.AggSum, Col: s.MustCol("l_extendedprice")},
			{Kind: engine.AggAvg, Col: s.MustCol("l_extendedprice")},
			{Kind: engine.AggCount},
		},
		true,
		engine.Schema{
			{Name: "returnflag", Type: engine.TypeString},
			{Name: "linestatus", Type: engine.TypeString},
			{Name: "sum_qty", Type: engine.TypeFloat},
			{Name: "sum_price", Type: engine.TypeFloat},
			{Name: "avg_price", Type: engine.TypeFloat},
			{Name: "count", Type: engine.TypeInt},
		})
	return agg, nil
}

// EngineQ3 builds TPC-H Q3 (shipping priority, simplified): customers of a
// market segment joined with their orders before a date and the orders'
// lineitems, revenue aggregated per order, sorted descending.
func EngineQ3(cat *engine.Catalog, segment string, dateMax int64, materializeJoins bool) (engine.Operator, error) {
	cust, err := cat.Table("customer")
	if err != nil {
		return nil, err
	}
	ord, err := cat.Table("orders")
	if err != nil {
		return nil, err
	}
	li, err := cat.Table("lineitem")
	if err != nil {
		return nil, err
	}
	cs, os, ls := cust.Schema, ord.Schema, li.Schema

	scanC := engine.NewScan("q3-scan-customer", cust,
		engine.Cmp{Op: engine.EQ, L: engine.Col(cs.MustCol("c_mktsegment")), R: engine.Const{V: segment}},
		[]int{cs.MustCol("c_custkey")})
	scanO := engine.NewScan("q3-scan-orders", ord,
		engine.Cmp{Op: engine.LT, L: engine.Col(os.MustCol("o_orderdate")), R: engine.Const{V: dateMax}},
		nil)
	// Probe orders against the (typically smaller) filtered customers.
	// Output: o_orderkey, o_custkey, o_orderdate, c_custkey.
	j1 := engine.NewHashJoin("q3-join-cust-orders", scanC, scanO, 0, os.MustCol("o_custkey"))
	scanL := engine.NewScan("q3-scan-lineitem", li, nil,
		[]int{ls.MustCol("l_orderkey"), ls.MustCol("l_extendedprice"), ls.MustCol("l_discount")})
	// Probe lineitem against the matched orders. Output: l_orderkey, price,
	// discount, o_orderkey, o_custkey, o_orderdate, c_custkey.
	j2 := engine.NewHashJoin("q3-join-orders-lineitem", j1, scanL, 0, 0)
	if materializeJoins {
		j1.SetMaterialize(true)
		j2.SetMaterialize(true)
	}
	// revenue = price * (1 - discount)
	rev := engine.NewProject("q3-revenue", j2,
		[]engine.Expr{
			engine.Col(0),
			engine.Arith{Op: engine.Mul, L: engine.Col(1),
				R: engine.Arith{Op: engine.Sub, L: engine.Const{V: 1.0}, R: engine.Col(2)}},
		},
		engine.Schema{{Name: "orderkey", Type: engine.TypeInt}, {Name: "revenue", Type: engine.TypeFloat}})
	ex := engine.NewExchange("q3-exchange-orderkey", rev, 0)
	agg := engine.NewHashAggregate("q3-agg", ex, []int{0},
		[]engine.AggSpec{{Kind: engine.AggSum, Col: 1}},
		false,
		engine.Schema{{Name: "orderkey", Type: engine.TypeInt}, {Name: "revenue", Type: engine.TypeFloat}})
	sorted := engine.NewSort("q3-sort", agg, 1, true)
	return sorted, nil
}
