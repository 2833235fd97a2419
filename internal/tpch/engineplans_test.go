package tpch

import (
	"math"
	"sort"
	"testing"

	"ftpde/internal/engine"
)

func genCatalog(t *testing.T) *engine.Catalog {
	t.Helper()
	cat, err := Generate(0.002, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

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

func TestGenerateCardinalities(t *testing.T) {
	cat := genCatalog(t)
	tb, _ := cat.Table("lineitem")
	// ~0.002 * 1.5M orders = 3000 orders, 1-7 lines each.
	ord, _ := cat.Table("orders")
	if ord.Rows() != 3000 {
		t.Errorf("orders = %d, want 3000", ord.Rows())
	}
	if tb.Rows() < 3000 || tb.Rows() > 21000 {
		t.Errorf("lineitem = %d, out of expected band", tb.Rows())
	}
	nat, _ := cat.Table("nation")
	if len(nat.RowParts()[0]) != 25 || len(nat.RowParts()[3]) != 25 {
		t.Error("nation not replicated to all partitions")
	}
	ps, _ := cat.Table("partsupp")
	pt, _ := cat.Table("part")
	if ps.Rows() != pt.Rows()*4 {
		t.Errorf("partsupp = %d, want 4x part = %d", ps.Rows(), pt.Rows()*4)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(0.001, 2, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(0.001, 2, 42)
	if err != nil {
		t.Fatal(err)
	}
	ta, _ := a.Table("lineitem")
	tb, _ := b.Table("lineitem")
	if ta.Rows() != tb.Rows() {
		t.Fatal("same seed, different data")
	}
	c, err := Generate(0.001, 2, 43)
	if err != nil {
		t.Fatal(err)
	}
	tc, _ := c.Table("lineitem")
	if ta.Rows() == tc.Rows() {
		// Row counts can coincide; compare first rows too.
		if len(ta.RowParts()[0]) > 0 && len(tc.RowParts()[0]) > 0 {
			ra, rc := ta.RowParts()[0][0], tc.RowParts()[0][0]
			same := true
			for i := range ra {
				if ra[i] != rc[i] {
					same = false
				}
			}
			if same {
				t.Error("different seeds produced identical data")
			}
		}
	}
}

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(0, 2, 1); err == nil {
		t.Error("sf=0 accepted")
	}
	if _, err := Generate(0.001, 0, 1); err == nil {
		t.Error("parts=0 accepted")
	}
}

func TestEngineQ1MatchesReference(t *testing.T) {
	cat := genCatalog(t)
	const shipMax = int64(1200)
	q, err := EngineQ1(cat, shipMax)
	if err != nil {
		t.Fatal(err)
	}
	co := &engine.Coordinator{Nodes: 4}
	res, _, err := co.Execute(q)
	if err != nil {
		t.Fatal(err)
	}

	// Naive reference.
	type key struct{ f, s string }
	type agg struct {
		qty, price float64
		count      int64
	}
	want := map[key]*agg{}
	li, _ := cat.Table("lineitem")
	s := li.Schema
	for _, r := range allRowsOf(t, cat, "lineitem") {
		if r[s.MustCol("l_shipdate")].(int64) > shipMax {
			continue
		}
		k := key{r[s.MustCol("l_returnflag")].(string), r[s.MustCol("l_linestatus")].(string)}
		a := want[k]
		if a == nil {
			a = &agg{}
			want[k] = a
		}
		a.qty += r[s.MustCol("l_quantity")].(float64)
		a.price += r[s.MustCol("l_extendedprice")].(float64)
		a.count++
	}

	rows := res.AllRows()
	if len(rows) != len(want) {
		t.Fatalf("got %d groups, want %d", len(rows), len(want))
	}
	for _, r := range rows {
		k := key{r[0].(string), r[1].(string)}
		w := want[k]
		if w == nil {
			t.Fatalf("unexpected group %v", k)
		}
		if math.Abs(r[2].(float64)-w.qty) > 1e-6 {
			t.Errorf("group %v sum_qty = %g, want %g", k, r[2], w.qty)
		}
		if math.Abs(r[3].(float64)-w.price) > 1e-4 {
			t.Errorf("group %v sum_price mismatch", k)
		}
		if math.Abs(r[4].(float64)-w.price/float64(w.count)) > 1e-6 {
			t.Errorf("group %v avg mismatch", k)
		}
		if r[5].(int64) != w.count {
			t.Errorf("group %v count = %d, want %d", k, r[5], w.count)
		}
	}
}

func q3Reference(t *testing.T, cat *engine.Catalog, segment string, dateMax int64) map[int64]float64 {
	t.Helper()
	custs := map[int64]bool{}
	for _, r := range allRowsOf(t, cat, "customer") {
		if r[2].(string) == segment {
			custs[r[0].(int64)] = true
		}
	}
	orders := map[int64]bool{}
	for _, r := range allRowsOf(t, cat, "orders") {
		if r[2].(int64) < dateMax && custs[r[1].(int64)] {
			orders[r[0].(int64)] = true
		}
	}
	rev := map[int64]float64{}
	for _, r := range allRowsOf(t, cat, "lineitem") {
		ok := r[0].(int64)
		if orders[ok] {
			rev[ok] += r[3].(float64) * (1 - r[4].(float64))
		}
	}
	return rev
}

func TestEngineQ3MatchesReference(t *testing.T) {
	cat := genCatalog(t)
	const segment, dateMax = "BUILDING", int64(1200)
	q, err := EngineQ3(cat, segment, dateMax, false)
	if err != nil {
		t.Fatal(err)
	}
	co := &engine.Coordinator{Nodes: 4}
	res, _, err := co.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	want := q3Reference(t, cat, segment, dateMax)
	rows := res.AllRows()
	if len(rows) != len(want) {
		t.Fatalf("got %d orders, want %d", len(rows), len(want))
	}
	// Output must be sorted by revenue descending.
	for i := 1; i < len(rows); i++ {
		if rows[i][1].(float64) > rows[i-1][1].(float64) {
			t.Fatal("result not sorted by revenue desc")
		}
	}
	for _, r := range rows {
		ok := r[0].(int64)
		if math.Abs(r[1].(float64)-want[ok]) > 1e-6 {
			t.Errorf("order %d revenue = %g, want %g", ok, r[1], want[ok])
		}
	}
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
	cat := genCatalog(t)
	const regionKey, dateMin, dateMax = int64(2), int64(0), int64(1500)
	q, err := EngineQ5(cat, regionKey, dateMin, dateMax, nil)
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
	cat := genCatalog(t)
	const regionKey, dateMin, dateMax = int64(2), int64(0), int64(1500)

	clean, err := EngineQ5(cat, regionKey, dateMin, dateMax, nil)
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
	q, err := EngineQ5(cat, regionKey, dateMin, dateMax, map[string]bool{"q5-join3": true})
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

func TestEngineQ3WithCoarseRestart(t *testing.T) {
	cat := genCatalog(t)
	q, err := EngineQ3(cat, "BUILDING", 1200, false)
	if err != nil {
		t.Fatal(err)
	}
	co := &engine.Coordinator{
		Nodes:    4,
		Coarse:   true,
		Injector: engine.NewScriptedFailures().Add("q3-join-orders-lineitem", 2, 0),
	}
	res, rep, err := co.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Restarts != 1 {
		t.Errorf("restarts = %d, want 1", rep.Restarts)
	}
	want := q3Reference(t, cat, "BUILDING", 1200)
	if len(res.AllRows()) != len(want) {
		t.Errorf("restarted query row count %d, want %d", len(res.AllRows()), len(want))
	}
}
