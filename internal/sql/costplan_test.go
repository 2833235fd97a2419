package sql

import (
	"fmt"
	"testing"

	"ftpde/internal/core"
	"ftpde/internal/cost"
	"ftpde/internal/plan"
	"ftpde/internal/stats"
)

func collect(t *testing.T) (map[string]TableStats, *SelectStmt) {
	t.Helper()
	cat := testCatalog(t)
	st, err := CollectStats(cat, []string{"cust", "ord", "nat"})
	if err != nil {
		t.Fatal(err)
	}
	stmt, err := Parse(`
		SELECT c_nation, SUM(o_total) AS rev
		FROM cust JOIN ord ON c_id = o_cust
		WHERE c_segment = 'BUILDING'
		GROUP BY c_nation
		ORDER BY rev DESC LIMIT 3`)
	if err != nil {
		t.Fatal(err)
	}
	return st, stmt
}

func TestCollectStats(t *testing.T) {
	st, _ := collect(t)
	if st["cust"].Rows != 50 || st["ord"].Rows != 200 {
		t.Errorf("row counts wrong: %+v", st)
	}
	if st["cust"].Distinct["c_segment"] != 2 {
		t.Errorf("c_segment distinct = %g, want 2", st["cust"].Distinct["c_segment"])
	}
	if st["cust"].Distinct["c_id"] != 50 {
		t.Errorf("c_id distinct = %g, want 50", st["cust"].Distinct["c_id"])
	}
	// Replicated table counted once.
	if st["nat"].Rows != 5 {
		t.Errorf("nat rows = %g, want 5 (replicas must not be double counted)", st["nat"].Rows)
	}
}

// CollectStats reads the typed columns: it forces no table's row view, and
// its distinct counts are those of the rendered values of the rows.
func TestCollectStatsReadsColumns(t *testing.T) {
	cat := testCatalog(t)
	names := []string{"cust", "ord", "nat"}
	st, err := CollectStats(cat, names)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		tb, err := cat.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		if tb.Parts != nil {
			t.Errorf("%s: collecting statistics derived the row view", name)
		}
		rows := tb.RowParts()
		if tb.Replicated {
			rows = rows[:1]
		}
		for c, col := range tb.Schema {
			seen := map[string]bool{}
			for _, part := range rows {
				for _, r := range part {
					seen[fmt.Sprintf("%v", r[c])] = true
				}
			}
			if got := st[name].Distinct[col.Name]; got != float64(len(seen)) {
				t.Errorf("%s.%s: %g distinct values, the rows hold %d", name, col.Name, got, len(seen))
			}
		}
	}
}

func TestCostPlanStructure(t *testing.T) {
	cat := testCatalog(t)
	st, stmt := collect(t)
	cp := stats.CostParams{CPUPerRow: 1, WritePerRow: 10, Nodes: 4}
	p, err := CostPlan(stmt, cat, st, cp)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// 2 scans (bound) + 1 join (free) + agg (free: followed by sort) + sort
	// (bound).
	if p.Len() != 5 {
		t.Fatalf("plan has %d ops, want 5:\n%s", p.Len(), p.DOT(""))
	}
	free := p.FreeOperators()
	if len(free) != 2 {
		t.Fatalf("free ops = %d, want 2 (join + mid-plan agg)", len(free))
	}
	// Selectivity: segment equality with 2 distinct values halves the scan
	// output.
	var scanCust *plan.Operator
	for _, op := range p.Operators() {
		if op.Kind == plan.KindScan && op.Name == "Scan σ(cust)" {
			scanCust = op
		}
	}
	if scanCust == nil || scanCust.Rows != 25 {
		t.Errorf("cust scan output = %v, want 25 rows", scanCust)
	}
	// Join cardinality: 25 x 200 x 1/max(50,50) = 100.
	var join *plan.Operator
	for _, op := range p.Operators() {
		if op.Kind == plan.KindHashJoin {
			join = op
		}
	}
	if join == nil || join.Rows != 100 {
		t.Errorf("join output = %+v, want 100 rows", join)
	}
}

func TestCostPlanFeedsOptimizer(t *testing.T) {
	cat := testCatalog(t)
	st, stmt := collect(t)
	cp := stats.CostParams{CPUPerRow: 1, WritePerRow: 10, Nodes: 4}
	p, err := CostPlan(stmt, cat, st, cp)
	if err != nil {
		t.Fatal(err)
	}
	m := cost.Model{MTBF: 100, MTTR: 1, Percentile: 0.95, PipeConst: 1, Nodes: 4}
	res, err := core.Optimize(p, core.Options{Model: m})
	if err != nil {
		t.Fatal(err)
	}
	if res.Runtime <= 0 {
		t.Error("optimizer returned non-positive runtime")
	}
}

func TestCostPlanAggregateBoundWhenSink(t *testing.T) {
	cat := testCatalog(t)
	st, _ := collect(t)
	stmt, err := Parse("SELECT SUM(o_total) FROM ord")
	if err != nil {
		t.Fatal(err)
	}
	cp := stats.CostParams{CPUPerRow: 1, WritePerRow: 10, Nodes: 4}
	p, err := CostPlan(stmt, cat, st, cp)
	if err != nil {
		t.Fatal(err)
	}
	// scan + agg; agg is the sink -> bound; no free operators at all.
	if p.Len() != 2 {
		t.Fatalf("plan has %d ops, want 2", p.Len())
	}
	if got := len(p.FreeOperators()); got != 0 {
		t.Errorf("free ops = %d, want 0", got)
	}
}

func TestCostPlanErrors(t *testing.T) {
	cat := testCatalog(t)
	st, _ := collect(t)
	cp := stats.CostParams{CPUPerRow: 1, WritePerRow: 10, Nodes: 4}

	stmt, err := Parse("SELECT c_id FROM cust JOIN ord ON n_id = o_cust")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CostPlan(stmt, cat, st, cp); err == nil {
		t.Error("disconnected join condition accepted")
	}

	stmt2, err := Parse("SELECT x FROM nosuch")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CostPlan(stmt2, cat, st, cp); err == nil {
		t.Error("unknown table accepted")
	}

	stmt3, err := Parse("SELECT c_id FROM cust")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CostPlan(stmt3, cat, map[string]TableStats{}, cp); err == nil {
		t.Error("missing statistics accepted")
	}
	if _, err := CostPlan(stmt3, cat, st, stats.CostParams{}); err == nil {
		t.Error("invalid cost params accepted")
	}
}

// Compile, CostPlan, FTPlan and BuildAuditPlan start from one resolved
// statement, so a statement one of them rejects, all of them reject.
func TestEntryPointsRejectTheSameStatements(t *testing.T) {
	cat := testCatalog(t)
	st, _ := collect(t)
	cp := stats.CostParams{CPUPerRow: 1, WritePerRow: 10, Nodes: 4}
	m := ftplanModel()
	entries := map[string]func(*SelectStmt) error{
		"Compile":  func(s *SelectStmt) error { _, err := Compile(s, cat); return err },
		"CostPlan": func(s *SelectStmt) error { _, err := CostPlan(s, cat, st, cp); return err },
		"FTPlan":   func(s *SelectStmt) error { _, err := FTPlan(s, cat, st, cp, m, 5); return err },
		"BuildAuditPlan": func(s *SelectStmt) error {
			_, err := BuildAuditPlan(s, cat, st, cp, m)
			return err
		},
	}
	for _, q := range []string{
		"SELECT x FROM cust",                                            // unknown column
		"SELECT c_id FROM nosuch",                                       // unknown table
		"SELECT c_id FROM cust JOIN ord ON c_id = nope",                 // unknown join col
		"SELECT c_id FROM cust c JOIN ord c ON c_id = o_cust",           // dup qualifier
		"SELECT o_id FROM ord JOIN ord ON o_id = o_cust",                // a table joined with itself
		"SELECT c_id, SUM(o_total) FROM cust JOIN ord ON c_id = o_cust", // non-grouped col
		"SELECT c_id FROM cust ORDER BY nope",                           // unknown order col
		"SELECT o_id FROM ord JOIN cust ON n_id = c_id",                 // join col from absent table
		"SELECT c_id FROM cust JOIN ord ON n_id = o_cust",               // disconnected join condition
	} {
		stmt, err := Parse(q)
		if err != nil {
			t.Fatalf("parse %q: %v", q, err)
		}
		for name, plan := range entries {
			if err := plan(stmt); err == nil {
				t.Errorf("%s accepted %q", name, q)
			}
		}
	}
}

// A join is priced from its two key columns' distinct counts in their own
// tables, not from a same-named column of a table outside the join.
func TestJoinSelectivityReadsTheJoinedTables(t *testing.T) {
	cat, tables := propCatalog(t)
	names := make([]string, len(tables))
	for i, pt := range tables {
		names[i] = pt.name
	}
	st, err := CollectStats(cat, names)
	if err != nil {
		t.Fatal(err)
	}
	// c.id has 7 distinct values, b.v 5; a.id, outside the first join, 40.
	if st["c"].Distinct["id"] != 7 || st["b"].Distinct["v"] != 5 || st["a"].Distinct["id"] != 40 {
		t.Fatalf("catalog changed: %+v", st)
	}
	stmt, err := Parse("SELECT COUNT(*) FROM c JOIN b ON c.id = b.v JOIN a ON b.k = a.k")
	if err != nil {
		t.Fatal(err)
	}
	const want = 7 * 30 / 7.0 // |c| · |b| / max(7, 5)
	cp := stats.CostParams{CPUPerRow: 1, WritePerRow: 10, Nodes: 4}
	p, err := CostPlan(stmt, cat, st, cp)
	if err != nil {
		t.Fatal(err)
	}
	joinOf := func(p *plan.Plan, names ...string) *plan.Operator {
		for _, op := range p.Operators() {
			for _, n := range names {
				if op.Name == n {
					return op
				}
			}
		}
		return nil
	}
	if j := joinOf(p, "⨝1 c.id=b.v"); j == nil || j.Rows != want {
		t.Errorf("CostPlan prices c ⨝ b at %+v, want %g rows", j, want)
	}
	cands, err := enumerateJoinOrderPlans(stmt, cat, st, cp, 10)
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for _, p := range cands {
		if j := joinOf(p, "Join (c JOIN b)", "Join (b JOIN c)"); j != nil {
			seen++
			if j.Rows != want {
				t.Errorf("FTPlan prices %s at %g rows, want %g", j.Name, j.Rows, want)
			}
		}
	}
	if seen == 0 {
		t.Error("no enumerated order joins c and b first")
	}
}

func TestHistogramSelectivityInCostPlan(t *testing.T) {
	cat := testCatalog(t)
	st, err := CollectStats(cat, []string{"ord"})
	if err != nil {
		t.Fatal(err)
	}
	if st["ord"].Histograms["o_day"] == nil {
		t.Fatal("no histogram collected for o_day")
	}
	// o_day is uniform over [0,30): the predicate o_day < 15 selects ~50%,
	// which a fixed 1/3 default would misestimate.
	stmt, err := Parse("SELECT o_id FROM ord WHERE o_day < 15")
	if err != nil {
		t.Fatal(err)
	}
	cp := stats.CostParams{CPUPerRow: 1, WritePerRow: 10, Nodes: 4}
	p, err := CostPlan(stmt, cat, st, cp)
	if err != nil {
		t.Fatal(err)
	}
	var scan *plan.Operator
	for _, op := range p.Operators() {
		if op.Kind == plan.KindScan {
			scan = op
		}
	}
	if scan == nil {
		t.Fatal("no scan in plan")
	}
	if scan.Rows < 85 || scan.Rows > 115 { // ~100 of 200
		t.Errorf("histogram-based scan estimate = %g rows, want ~100", scan.Rows)
	}
}

func TestHistogramMirroredOperator(t *testing.T) {
	cat := testCatalog(t)
	st, err := CollectStats(cat, []string{"ord"})
	if err != nil {
		t.Fatal(err)
	}
	// Literal on the left: 15 > o_day is the same predicate as o_day < 15.
	stmt, err := Parse("SELECT o_id FROM ord WHERE 15 > o_day")
	if err != nil {
		t.Fatal(err)
	}
	cp := stats.CostParams{CPUPerRow: 1, WritePerRow: 10, Nodes: 4}
	p, err := CostPlan(stmt, cat, st, cp)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range p.Operators() {
		if op.Kind == plan.KindScan && (op.Rows < 85 || op.Rows > 115) {
			t.Errorf("mirrored predicate estimate = %g rows, want ~100", op.Rows)
		}
	}
}
