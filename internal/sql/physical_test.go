package sql

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"ftpde/internal/engine"
	"ftpde/internal/plan"
	"ftpde/internal/runtime"
	"ftpde/internal/stats"
)

// testCatalog builds a small two-table database plus a replicated dimension.
func testCatalog(t *testing.T) *engine.Catalog {
	t.Helper()
	cat := engine.NewCatalog(4)

	custSchema := engine.Schema{
		{Name: "c_id", Type: engine.TypeInt},
		{Name: "c_nation", Type: engine.TypeInt},
		{Name: "c_segment", Type: engine.TypeString},
	}
	var custRows []engine.Row
	segs := []string{"BUILDING", "AUTO"}
	for i := 0; i < 50; i++ {
		custRows = append(custRows, engine.Row{int64(i), int64(i % 5), segs[i%2]})
	}
	cust, err := engine.NewTable("cust", custSchema, custRows, 4, 0)
	if err != nil {
		t.Fatal(err)
	}

	ordSchema := engine.Schema{
		{Name: "o_id", Type: engine.TypeInt},
		{Name: "o_cust", Type: engine.TypeInt},
		{Name: "o_total", Type: engine.TypeFloat},
		{Name: "o_disc", Type: engine.TypeFloat},
		{Name: "o_day", Type: engine.TypeInt},
	}
	var ordRows []engine.Row
	for i := 0; i < 200; i++ {
		ordRows = append(ordRows, engine.Row{
			int64(i), int64(i % 50), float64(100 + i), float64(i%10) / 100, int64(i % 30),
		})
	}
	ord, err := engine.NewTable("ord", ordSchema, ordRows, 4, 0)
	if err != nil {
		t.Fatal(err)
	}

	natSchema := engine.Schema{
		{Name: "n_id", Type: engine.TypeInt},
		{Name: "n_name", Type: engine.TypeString},
	}
	natRows := []engine.Row{
		{int64(0), "ZERO"}, {int64(1), "ONE"}, {int64(2), "TWO"},
		{int64(3), "THREE"}, {int64(4), "FOUR"},
	}
	nat, err := engine.NewReplicatedTable("nat", natSchema, natRows, 4)
	if err != nil {
		t.Fatal(err)
	}

	for _, tb := range []*engine.Table{cust, ord, nat} {
		if err := cat.Add(tb); err != nil {
			t.Fatal(err)
		}
	}
	return cat
}

func runSQL(t *testing.T, cat *engine.Catalog, q string) ([]engine.Row, engine.Schema) {
	t.Helper()
	stmt, err := Parse(q)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	pp, err := Compile(stmt, cat)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	co := &engine.Coordinator{Nodes: cat.Partitions()}
	res, _, err := co.Execute(pp.Root)
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	return res.AllRows(), pp.Output
}

func TestSQLProjectionAndFilter(t *testing.T) {
	cat := testCatalog(t)
	rows, schema := runSQL(t, cat, "SELECT c_id, c_segment FROM cust WHERE c_id < 10")
	if len(rows) != 10 {
		t.Fatalf("got %d rows, want 10", len(rows))
	}
	if schema[0].Name != "c_id" || schema[1].Name != "c_segment" {
		t.Errorf("schema names wrong: %v", schema)
	}
	for _, r := range rows {
		if r[0].(int64) >= 10 {
			t.Errorf("filter leaked row %v", r)
		}
	}
}

func TestSQLArithmeticProjection(t *testing.T) {
	cat := testCatalog(t)
	rows, _ := runSQL(t, cat, "SELECT o_total * (1 - o_disc) AS net FROM ord WHERE o_id = 15")
	if len(rows) != 1 {
		t.Fatalf("got %d rows", len(rows))
	}
	want := 115.0 * (1 - 0.05)
	if math.Abs(rows[0][0].(float64)-want) > 1e-9 {
		t.Errorf("net = %v, want %g", rows[0][0], want)
	}
}

func TestSQLJoin(t *testing.T) {
	cat := testCatalog(t)
	rows, _ := runSQL(t, cat,
		"SELECT o_id, c_segment FROM cust JOIN ord ON c_id = o_cust WHERE c_segment = 'BUILDING'")
	// Customers with even ids are BUILDING; orders with o_cust even: o_id % 50 even -> 100 orders.
	if len(rows) != 100 {
		t.Fatalf("got %d rows, want 100", len(rows))
	}
	for _, r := range rows {
		if r[1].(string) != "BUILDING" {
			t.Errorf("wrong segment in %v", r)
		}
	}
}

func TestSQLJoinWithReplicatedTable(t *testing.T) {
	cat := testCatalog(t)
	rows, _ := runSQL(t, cat,
		"SELECT c_id, n_name FROM cust JOIN nat ON c_nation = n_id WHERE c_id < 5")
	if len(rows) != 5 {
		t.Fatalf("replicated-table join returned %d rows, want 5 (duplication bug?)", len(rows))
	}
	names := map[int64]string{0: "ZERO", 1: "ONE", 2: "TWO", 3: "THREE", 4: "FOUR"}
	for _, r := range rows {
		id := r[0].(int64)
		if r[1].(string) != names[id%5] {
			t.Errorf("customer %d joined to %v", id, r[1])
		}
	}
}

func TestSQLGlobalAggregate(t *testing.T) {
	cat := testCatalog(t)
	rows, _ := runSQL(t, cat, "SELECT SUM(o_total), COUNT(*), MIN(o_day), MAX(o_day) FROM ord")
	if len(rows) != 1 {
		t.Fatalf("got %d rows", len(rows))
	}
	wantSum := 0.0
	for i := 0; i < 200; i++ {
		wantSum += float64(100 + i)
	}
	if rows[0][0].(float64) != wantSum {
		t.Errorf("sum = %v, want %g", rows[0][0], wantSum)
	}
	if rows[0][1].(int64) != 200 {
		t.Errorf("count = %v", rows[0][1])
	}
	if rows[0][2].(int64) != 0 || rows[0][3].(int64) != 29 {
		t.Errorf("min/max = %v/%v", rows[0][2], rows[0][3])
	}
}

func TestSQLGroupByOrderLimit(t *testing.T) {
	cat := testCatalog(t)
	rows, schema := runSQL(t, cat, `
		SELECT c_nation, SUM(o_total) AS rev, COUNT(*) AS cnt
		FROM cust JOIN ord ON c_id = o_cust
		GROUP BY c_nation
		ORDER BY rev DESC
		LIMIT 3`)
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	if schema[1].Name != "rev" {
		t.Errorf("output schema: %v", schema)
	}
	// Descending by revenue.
	for i := 1; i < len(rows); i++ {
		if rows[i][1].(float64) > rows[i-1][1].(float64) {
			t.Fatal("not sorted desc")
		}
	}
	// Reference: total per nation = sum over orders of o_total where
	// (o_cust % 5) == nation.
	want := map[int64]float64{}
	cnt := map[int64]int64{}
	for i := 0; i < 200; i++ {
		nation := int64((i % 50) % 5)
		want[nation] += float64(100 + i)
		cnt[nation]++
	}
	for _, r := range rows {
		n := r[0].(int64)
		if math.Abs(r[1].(float64)-want[n]) > 1e-9 {
			t.Errorf("nation %d rev = %v, want %g", n, r[1], want[n])
		}
		if r[2].(int64) != cnt[n] {
			t.Errorf("nation %d cnt = %v, want %d", n, r[2], cnt[n])
		}
	}
}

func TestSQLAggregateOfExpression(t *testing.T) {
	cat := testCatalog(t)
	rows, _ := runSQL(t, cat, "SELECT SUM(o_total * (1 - o_disc)) FROM ord WHERE o_day < 10")
	want := 0.0
	for i := 0; i < 200; i++ {
		if i%30 < 10 {
			want += float64(100+i) * (1 - float64(i%10)/100)
		}
	}
	if len(rows) != 1 || math.Abs(rows[0][0].(float64)-want) > 1e-6 {
		t.Fatalf("sum = %v, want %g", rows[0], want)
	}
}

func TestSQLCrossTablePredicate(t *testing.T) {
	cat := testCatalog(t)
	// c_nation < o_day spans both tables: applied post-join.
	rows, _ := runSQL(t, cat,
		"SELECT COUNT(*) FROM cust JOIN ord ON c_id = o_cust WHERE c_nation >= o_day")
	want := int64(0)
	for i := 0; i < 200; i++ {
		cNation := int64((i % 50) % 5)
		oDay := int64(i % 30)
		if cNation >= oDay {
			want++
		}
	}
	if len(rows) != 1 || rows[0][0].(int64) != want {
		t.Fatalf("count = %v, want %d", rows[0], want)
	}
}

func TestSQLRecoveryMatchesCleanRun(t *testing.T) {
	cat := testCatalog(t)
	q := `SELECT c_nation, SUM(o_total) AS rev FROM cust JOIN ord ON c_id = o_cust GROUP BY c_nation ORDER BY rev DESC`
	stmt, err := Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	pp, err := Compile(stmt, cat)
	if err != nil {
		t.Fatal(err)
	}
	clean := &engine.Coordinator{Nodes: 4}
	cleanRes, _, err := clean.Execute(pp.Root)
	if err != nil {
		t.Fatal(err)
	}

	// Re-compile (operators are stateless but names must be fresh per run)
	// with the join materialized and failures injected.
	pp2, err := Compile(stmt, cat)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range pp2.Joins {
		j.SetMaterialize(true)
	}
	co := &engine.Coordinator{
		Nodes:    4,
		Injector: engine.NewScriptedFailures().Add("join-1", 2, 0).Add("aggregate", 0, 0),
	}
	res, rep, err := co.Execute(pp2.Root)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failures != 2 {
		t.Errorf("failures = %d, want 2", rep.Failures)
	}
	if rep.MaterializedPartitions == 0 {
		t.Error("join not materialized")
	}
	a, b := cleanRes.AllRows(), res.AllRows()
	if len(a) != len(b) {
		t.Fatalf("row counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i][0] != b[i][0] || math.Abs(a[i][1].(float64)-b[i][1].(float64)) > 1e-9 {
			t.Errorf("row %d differs after recovery: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestCompileErrors(t *testing.T) {
	cat := testCatalog(t)
	bad := []string{
		"SELECT x FROM cust",                                            // unknown column
		"SELECT c_id FROM nosuch",                                       // unknown table
		"SELECT c_id FROM cust JOIN ord ON c_id = nope",                 // unknown join col
		"SELECT c_id FROM cust c JOIN ord c ON c_id = o_cust",           // dup qualifier
		"SELECT c_id, SUM(o_total) FROM cust JOIN ord ON c_id = o_cust", // non-grouped col
		"SELECT c_id FROM cust ORDER BY nope",                           // unknown order col
		"SELECT o_id FROM ord JOIN cust ON n_id = c_id",                 // join col from absent table
	}
	for _, q := range bad {
		stmt, err := Parse(q)
		if err != nil {
			continue // parse-level rejection also fine
		}
		if _, err := Compile(stmt, cat); err == nil {
			t.Errorf("compiled bad query %q", q)
		}
	}
}

func TestSQLAmbiguousColumn(t *testing.T) {
	cat := engine.NewCatalog(2)
	s := engine.Schema{{Name: "id", Type: engine.TypeInt}}
	a, _ := engine.NewTable("a", s, []engine.Row{{int64(1)}}, 2, 0)
	b, _ := engine.NewTable("b", s, []engine.Row{{int64(1)}}, 2, 0)
	if err := cat.Add(a); err != nil {
		t.Fatal(err)
	}
	if err := cat.Add(b); err != nil {
		t.Fatal(err)
	}
	stmt, err := Parse("SELECT id FROM a JOIN b ON a.id = b.id")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(stmt, cat); err == nil {
		t.Error("ambiguous bare column accepted")
	}
	// Qualified works.
	stmt2, err := Parse("SELECT a.id FROM a JOIN b ON a.id = b.id")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(stmt2, cat); err != nil {
		t.Errorf("qualified column rejected: %v", err)
	}
}

func TestSQLDistinct(t *testing.T) {
	cat := testCatalog(t)
	rows, _ := runSQL(t, cat, "SELECT DISTINCT c_nation FROM cust")
	if len(rows) != 5 {
		t.Fatalf("DISTINCT returned %d rows, want 5", len(rows))
	}
	seen := map[int64]bool{}
	for _, r := range rows {
		n := r[0].(int64)
		if seen[n] {
			t.Fatalf("duplicate nation %d", n)
		}
		seen[n] = true
	}
	// Multi-column distinct.
	rows2, _ := runSQL(t, cat, "SELECT DISTINCT c_nation, c_segment FROM cust")
	if len(rows2) != 10 {
		t.Fatalf("two-column DISTINCT returned %d rows, want 10", len(rows2))
	}
}

func TestSQLDistinctRejectsAggregates(t *testing.T) {
	cat := testCatalog(t)
	stmt, err := Parse("SELECT DISTINCT SUM(o_total) FROM ord")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(stmt, cat); err == nil {
		t.Error("DISTINCT with aggregate accepted")
	}
	stmt2, err := Parse("SELECT DISTINCT o_total + 1 FROM ord")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(stmt2, cat); err == nil {
		t.Error("DISTINCT over expression accepted")
	}
}

func TestSQLDistinctCostPlan(t *testing.T) {
	cat := testCatalog(t)
	st, err := CollectStats(cat, []string{"cust"})
	if err != nil {
		t.Fatal(err)
	}
	stmt, err := Parse("SELECT DISTINCT c_nation FROM cust ORDER BY c_nation LIMIT 3")
	if err != nil {
		t.Fatal(err)
	}
	cp := stats.CostParams{CPUPerRow: 1, WritePerRow: 10, Nodes: 4}
	p, err := CostPlan(stmt, cat, st, cp)
	if err != nil {
		t.Fatal(err)
	}
	// scan + dedup aggregate (free, followed by sort) + sort.
	hasAgg := false
	for _, op := range p.Operators() {
		if op.Kind == plan.KindAggregate {
			hasAgg = true
			if op.Rows != 5 {
				t.Errorf("distinct estimate = %g groups, want 5", op.Rows)
			}
		}
	}
	if !hasAgg {
		t.Error("DISTINCT cost plan lacks a dedup aggregate")
	}
}

func TestSQLPlansEmitCompiledPredicates(t *testing.T) {
	// Every scan filter, post-join filter and projection the planner emits —
	// aggregate inputs over int, string and float columns and over arithmetic
	// included — must evaluate through the compiled (columnar) form, and the
	// runtime's rows must be the oracle's.
	cat := testCatalog(t)
	for _, q := range []string{
		"SELECT c_segment, SUM(o_total) AS s FROM cust " +
			"JOIN ord ON c_id = o_cust WHERE o_day < 20 AND c_id < o_total " +
			"GROUP BY c_segment",
		"SELECT c_segment, MIN(c_segment), MAX(c_id), AVG(c_nation), SUM(c_id), COUNT(*), COUNT(c_segment) " +
			"FROM cust GROUP BY c_segment ORDER BY c_segment",
		"SELECT MIN(o_cust + 1), MAX(o_total), MIN(o_day), AVG(o_disc) FROM ord",
		"SELECT o_cust, SUM(o_cust * 2), MIN(o_cust - o_id), MAX(o_total * (1 - o_disc)) " +
			"FROM ord GROUP BY o_cust ORDER BY o_cust LIMIT 4",
	} {
		stmt, err := Parse(q)
		if err != nil {
			t.Fatalf("parse %q: %v", q, err)
		}
		pp, err := Compile(stmt, cat)
		if err != nil {
			t.Fatalf("compile %q: %v", q, err)
		}
		var scans, checked int
		var walk func(op engine.Operator)
		walk = func(op engine.Operator) {
			switch op.(type) {
			case *engine.Scan:
				scans++
				checked++
			case *engine.Select, *engine.Project:
				checked++
			}
			if err := engine.CheckColumnar(op); err != nil {
				t.Errorf("%q: %s is not compiled: %v", q, op.Name(), err)
			}
			for _, in := range op.Inputs() {
				walk(in)
			}
		}
		walk(pp.Root)
		if scans == 0 || checked < scans+2 {
			t.Fatalf("%q: plan shape unexpected: %d scans, %d compiled operators", q, scans, checked)
		}

		want, _, err := (&engine.Coordinator{Nodes: cat.Partitions()}).Execute(pp.Root)
		if err != nil {
			t.Fatalf("oracle %q: %v", q, err)
		}
		rt, err := runtime.New(runtime.Config{Nodes: cat.Partitions()})
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := rt.Execute(context.Background(), pp.Root)
		if err != nil {
			t.Fatalf("runtime %q: %v", q, err)
		}
		if !reflect.DeepEqual(got.Parts, want.Parts) {
			t.Errorf("%q: runtime rows differ from the oracle's\n runtime: %v\n  oracle: %v", q, got.Parts, want.Parts)
		}
	}
}

func TestCompileRejectsNonColumnarPlan(t *testing.T) {
	// The planner's own expressions always compile; a plan that holds one
	// that does not (here a plain-int constant, which has no vector type)
	// must be refused at plan time.
	cat := testCatalog(t)
	tb, err := cat.Table("cust")
	if err != nil {
		t.Fatal(err)
	}
	proj := engine.NewProject("p", engine.NewScan("s", tb, nil, nil),
		[]engine.Expr{engine.Const{V: 3}}, engine.Schema{{Name: "three", Type: engine.TypeInt}})
	if err := checkColumnar(engine.NewLimit("l", proj, 1)); !errors.Is(err, engine.ErrNotColumnar) {
		t.Fatalf("checkColumnar = %v, want ErrNotColumnar", err)
	}
}
