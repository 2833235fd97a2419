package engine

import (
	"errors"
	"reflect"
	"strings"
	"testing"
)

func intRows(vals ...int64) []Row {
	out := make([]Row, len(vals))
	for i, v := range vals {
		out[i] = Row{v}
	}
	return out
}

func kvSchema() Schema {
	return Schema{{Name: "k", Type: TypeInt}, {Name: "v", Type: TypeFloat}}
}

func kvRows(n int) []Row {
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = Row{int64(i), float64(i) * 1.5}
	}
	return rows
}

func mustTable(t *testing.T, name string, schema Schema, rows []Row, parts, key int) *Table {
	t.Helper()
	tb, err := NewTable(name, schema, rows, parts, key)
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

func execute(t *testing.T, co *Coordinator, root Operator) (*PartitionedResult, *Report) {
	t.Helper()
	res, rep, err := co.Execute(root)
	if err != nil {
		t.Fatal(err)
	}
	return res, rep
}

func TestTablePartitioning(t *testing.T) {
	tb := mustTable(t, "t", kvSchema(), kvRows(100), 4, 0)
	if tb.Rows() != 100 {
		t.Errorf("rows = %d, want 100", tb.Rows())
	}
	// Hash partitioning should spread rows around.
	for p, rows := range tb.RowParts() {
		if len(rows) == 0 {
			t.Errorf("partition %d empty", p)
		}
	}
	// Same key -> same partition.
	tb2 := mustTable(t, "t2", kvSchema(), []Row{{int64(7), 1.0}, {int64(7), 2.0}}, 4, 0)
	nonEmpty := 0
	for _, rows := range tb2.RowParts() {
		if len(rows) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty != 1 {
		t.Errorf("same-key rows landed in %d partitions, want 1", nonEmpty)
	}
}

func TestReplicatedTable(t *testing.T) {
	tb, err := NewReplicatedTable("r", kvSchema(), kvRows(3), 4)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 4; p++ {
		if len(tb.RowParts()[p]) != 3 {
			t.Errorf("partition %d has %d rows, want 3", p, len(tb.RowParts()[p]))
		}
	}
}

// A table holds its data once, as typed columns: nothing is boxed at
// construction, the counts read the columns, and the row view the oracle
// scans is derived on first use, cached, and shared by the partitions of a
// replicated table.
func TestTableDerivesRowsOnFirstUse(t *testing.T) {
	tb := mustTable(t, "t", kvSchema(), kvRows(10), 4, 0)
	rep, err := NewReplicatedTable("r", kvSchema(), kvRows(3), 4)
	if err != nil {
		t.Fatal(err)
	}
	if tb.Parts != nil || rep.Parts != nil {
		t.Fatal("table construction filled the row view")
	}
	if tb.Rows() != 10 || tb.LogicalRows() != 10 || len(tb.ColParts) != 4 {
		t.Errorf("partitioned table counts %d/%d/%d, want 10/10/4", tb.Rows(), tb.LogicalRows(), len(tb.ColParts))
	}
	if rep.Rows() != 12 || rep.LogicalRows() != 3 || len(rep.ColParts) != 4 {
		t.Errorf("replicated table counts %d/%d/%d, want 12/3/4", rep.Rows(), rep.LogicalRows(), len(rep.ColParts))
	}
	if tb.Parts != nil || rep.Parts != nil {
		t.Fatal("counting rows filled the row view")
	}
	view := tb.RowParts()
	for p, b := range tb.ColParts {
		if !reflect.DeepEqual(view[p], b.ToRows()) {
			t.Errorf("partition %d: row view %v, columns hold %v", p, view[p], b.ToRows())
		}
	}
	if again := tb.RowParts(); &again[0] != &view[0] {
		t.Error("the row view was derived twice")
	}
	rv := rep.RowParts()
	if &rv[0][0] != &rv[3][0] {
		t.Error("replicated partitions do not share one row view")
	}
}

func TestTablesRejectUntypedValues(t *testing.T) {
	// Table construction is where base data enters: a value that is not the
	// int64/float64/string its column declares is refused there, so every
	// table has its columnar partitions.
	for name, rows := range map[string][]Row{
		"plain int": {{int64(1), 1.0}, {2, 2.0}},
		"nil":       {{int64(1), nil}},
		"short row": {{int64(1), 1.0}, {int64(2)}},
	} {
		if _, err := NewTable("t", kvSchema(), rows, 2, 0); !errors.Is(err, ErrNotColumnar) {
			t.Errorf("NewTable with a %s: err = %v, want ErrNotColumnar", name, err)
		}
		if _, err := NewReplicatedTable("t", kvSchema(), rows, 2); !errors.Is(err, ErrNotColumnar) {
			t.Errorf("NewReplicatedTable with a %s: err = %v, want ErrNotColumnar", name, err)
		}
	}
	// The message names the column and both the declared and the Go type.
	_, err := RowsToBatch(kvSchema(), []Row{{0, 1.0}})
	if want := "row 0 column 0 (k): got int, column is int (int64)"; err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("RowsToBatch error = %v, want it to contain %q", err, want)
	}
}

func TestScanFilterProject(t *testing.T) {
	tb := mustTable(t, "t", kvSchema(), kvRows(10), 2, 0)
	scan := NewScan("scan", tb, Cmp{Op: GE, L: Col(0), R: Const{V: int64(5)}}, []int{1})
	co := &Coordinator{Nodes: 2}
	res, _ := execute(t, co, scan)
	rows := res.AllRows()
	if len(rows) != 5 {
		t.Fatalf("filtered scan returned %d rows, want 5", len(rows))
	}
	for _, r := range rows {
		if len(r) != 1 {
			t.Errorf("projection kept %d columns, want 1", len(r))
		}
	}
}

func TestSelectAndProjectOps(t *testing.T) {
	tb := mustTable(t, "t", kvSchema(), kvRows(10), 2, 0)
	scan := NewScan("scan", tb, nil, nil)
	sel := NewSelect("sel", scan, Cmp{Op: LT, L: Col(0), R: Const{V: int64(3)}})
	proj := NewProject("proj", sel, []Expr{Arith{Op: Mul, L: Col(1), R: Const{V: 2.0}}},
		Schema{{Name: "v2", Type: TypeFloat}})
	co := &Coordinator{Nodes: 2}
	res, _ := execute(t, co, proj)
	rows := res.AllRows()
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	sum := 0.0
	for _, r := range rows {
		sum += r[0].(float64)
	}
	if sum != (0+1.5+3.0)*2 {
		t.Errorf("sum = %g, want 9", sum)
	}
}

func TestExchangeRepartitions(t *testing.T) {
	// Partition round-robin first, exchange on key, then verify same keys
	// co-locate.
	tb := mustTable(t, "t", kvSchema(), kvRows(40), 4, -1)
	scan := NewScan("scan", tb, nil, nil)
	ex := NewExchange("ex", scan, 0)
	co := &Coordinator{Nodes: 4}
	res, _ := execute(t, co, ex)
	if got := len(res.AllRows()); got != 40 {
		t.Fatalf("exchange lost rows: %d != 40", got)
	}
	for p, rows := range res.Parts {
		for _, r := range rows {
			if int(hashValue(r[0])%4) != p {
				t.Errorf("row with key %v in wrong partition %d", r[0], p)
			}
		}
	}
}

func TestHashJoin(t *testing.T) {
	dim := mustTable(t, "dim", Schema{{Name: "id", Type: TypeInt}, {Name: "name", Type: TypeString}},
		[]Row{{int64(1), "a"}, {int64(2), "b"}}, 2, 0)
	fact := mustTable(t, "fact", kvSchema(), []Row{
		{int64(1), 10.0}, {int64(2), 20.0}, {int64(1), 30.0}, {int64(3), 99.0},
	}, 2, 0)
	build := NewScan("build", dim, nil, nil)
	probe := NewScan("probe", fact, nil, nil)
	j := NewHashJoin("join", build, probe, 0, 0)
	co := &Coordinator{Nodes: 2}
	res, _ := execute(t, co, j)
	rows := res.AllRows()
	if len(rows) != 3 {
		t.Fatalf("join returned %d rows, want 3", len(rows))
	}
	for _, r := range rows {
		if len(r) != 4 {
			t.Fatalf("join row width %d, want 4", len(r))
		}
		if r[0].(int64) != r[2].(int64) {
			t.Errorf("join key mismatch in %v", r)
		}
	}
}

func TestGlobalAggregate(t *testing.T) {
	tb := mustTable(t, "t", kvSchema(), kvRows(10), 3, 0)
	scan := NewScan("scan", tb, nil, nil)
	agg := NewHashAggregate("agg", scan, nil,
		[]AggSpec{{Kind: AggSum, Col: 1}, {Kind: AggCount}, {Kind: AggMin, Col: 0}, {Kind: AggMax, Col: 0}, {Kind: AggAvg, Col: 1}},
		true, Schema{{Name: "sum", Type: TypeFloat}, {Name: "cnt", Type: TypeInt}, {Name: "min", Type: TypeInt}, {Name: "max", Type: TypeInt}, {Name: "avg", Type: TypeFloat}})
	co := &Coordinator{Nodes: 3}
	res, _ := execute(t, co, agg)
	rows := res.AllRows()
	if len(rows) != 1 {
		t.Fatalf("global agg returned %d rows, want 1", len(rows))
	}
	r := rows[0]
	wantSum := 0.0
	for i := 0; i < 10; i++ {
		wantSum += float64(i) * 1.5
	}
	if r[0].(float64) != wantSum {
		t.Errorf("sum = %v, want %g", r[0], wantSum)
	}
	if r[1].(int64) != 10 {
		t.Errorf("count = %v, want 10", r[1])
	}
	if r[2].(int64) != 0 || r[3].(int64) != 9 {
		t.Errorf("min/max = %v/%v, want 0/9", r[2], r[3])
	}
	if r[4].(float64) != wantSum/10 {
		t.Errorf("avg = %v, want %g", r[4], wantSum/10)
	}
}

func TestGroupedAggregateAfterExchange(t *testing.T) {
	rows := []Row{
		{int64(1), 1.0}, {int64(1), 2.0}, {int64(2), 3.0}, {int64(2), 4.0}, {int64(3), 5.0},
	}
	tb := mustTable(t, "t", kvSchema(), rows, 2, -1) // round robin: groups split
	scan := NewScan("scan", tb, nil, nil)
	ex := NewExchange("ex", scan, 0)
	agg := NewHashAggregate("agg", ex, []int{0}, []AggSpec{{Kind: AggSum, Col: 1}},
		false, Schema{{Name: "k", Type: TypeInt}, {Name: "sum", Type: TypeFloat}})
	co := &Coordinator{Nodes: 2}
	res, _ := execute(t, co, agg)
	got := map[int64]float64{}
	for _, r := range res.AllRows() {
		got[r[0].(int64)] = r[1].(float64)
	}
	want := map[int64]float64{1: 3, 2: 7, 3: 5}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("group %d sum = %g, want %g", k, got[k], v)
		}
	}
	if len(got) != 3 {
		t.Errorf("got %d groups, want 3", len(got))
	}
}

func TestSortOperator(t *testing.T) {
	tb := mustTable(t, "t", kvSchema(), []Row{
		{int64(3), 1.0}, {int64(1), 2.0}, {int64(2), 3.0},
	}, 2, -1)
	scan := NewScan("scan", tb, nil, nil)
	s := NewSort("sort", scan, 0, false)
	co := &Coordinator{Nodes: 2}
	res, _ := execute(t, co, s)
	rows := res.AllRows()
	if len(rows) != 3 {
		t.Fatalf("sort returned %d rows", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i][0].(int64) < rows[i-1][0].(int64) {
			t.Fatalf("not sorted: %v", rows)
		}
	}
	desc := NewSort("sortd", scan, 0, true)
	res2, _ := execute(t, co, desc)
	if res2.AllRows()[0][0].(int64) != 3 {
		t.Error("descending sort wrong")
	}
}

func TestDuplicateOperatorNamesRejected(t *testing.T) {
	tb := mustTable(t, "t", kvSchema(), kvRows(4), 2, 0)
	a := NewScan("same", tb, nil, nil)
	b := NewSelect("same", a, Cmp{Op: GE, L: Col(0), R: Const{V: int64(0)}})
	co := &Coordinator{Nodes: 2}
	if _, _, err := co.Execute(b); err == nil {
		t.Error("duplicate operator names accepted")
	}
}

func TestCoordinatorValidation(t *testing.T) {
	tb := mustTable(t, "t", kvSchema(), kvRows(4), 2, 0)
	scan := NewScan("scan", tb, nil, nil)
	co := &Coordinator{Nodes: 0}
	if _, _, err := co.Execute(scan); err == nil {
		t.Error("zero nodes accepted")
	}
}

// TestOracleReadsOnlyRows pins the oracle's independence from the batch data
// plane: once the table's row view exists, swapping its columns for batches
// holding different values changes nothing — Coordinator.Execute still returns
// what the rows imply.
func TestOracleReadsOnlyRows(t *testing.T) {
	rows := make([]Row, 10)
	decoy := make([]Row, 10)
	for i := range rows {
		rows[i] = Row{int64(i), float64(i)}
		decoy[i] = Row{int64(i), float64(1000 + i)}
	}
	tb := mustTable(t, "t", kvSchema(), rows, 2, -1)
	tb.RowParts() // the view is derived from the columns once, here
	tb.ColParts = mustTable(t, "decoy", kvSchema(), decoy, 2, -1).ColParts

	scan := NewScan("scan", tb, Cmp{Op: GE, L: Col(0), R: Const{V: int64(1)}}, nil)
	sel := NewSelect("sel", scan, Cmp{Op: LT, L: Col(1), R: Const{V: 5.0}})
	proj := NewProject("proj", sel,
		[]Expr{Arith{Op: Mul, L: Col(1), R: Const{V: 2.0}}},
		Schema{{Name: "u", Type: TypeFloat}})
	agg := NewHashAggregate("agg", proj, nil, []AggSpec{{Kind: AggSum, Col: 0}, {Kind: AggCount}}, true,
		Schema{{Name: "sum", Type: TypeFloat}, {Name: "cnt", Type: TypeInt}})
	root := NewLimit("limit", agg, 1)

	res, _ := execute(t, &Coordinator{Nodes: 2}, root)
	// The rows hold v = 1..4 after both filters; the decoy columns hold none.
	want := []Row{{20.0, int64(4)}}
	if got := res.AllRows(); !reflect.DeepEqual(got, want) {
		t.Fatalf("oracle result = %v, want %v (what the table's rows imply)", got, want)
	}
}
