package runtime

import (
	"reflect"
	"testing"

	"ftpde/internal/engine"
)

// A chained stage's scan draws its selection from the partition's arena
// Local and releases it once the stage's output is concatenated; a scan that
// is a stage by itself commits its batch, whose selection is a plain
// allocation the arena never sees.

// dupDim holds every g of handoffTable's fact rows (0..6) twice, so a probe
// row matches two build rows and a probe writes its selections faster than it
// reads the probe batch's.
func dupDim(t *testing.T, parts int) *engine.Table {
	t.Helper()
	var rows []engine.Row
	for g := range 7 {
		for c := range 2 {
			rows = append(rows, engine.Row{int64(g), float64(10*g + c)})
		}
	}
	tb, err := engine.NewTable("dim", engine.Schema{{Name: "g", Type: engine.TypeInt}, {Name: "x", Type: engine.TypeFloat}}, rows, parts, 0)
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

// coordinatorRows runs root on the reference Coordinator.
func coordinatorRows(t *testing.T, nodes int, root engine.Operator) []engine.Row {
	t.Helper()
	res, _, err := (&engine.Coordinator{Nodes: nodes}).Execute(root)
	if err != nil {
		t.Fatal(err)
	}
	return res.AllRows()
}

// A filtered scan probing a join is one chained stage. Its selection must
// outlive every slice cut from it: the probe draws its own selections from the
// same Local, at a size class the scan's shares, so a selection given back
// too early is handed to the probe while the probe still reads it. Every
// execution leaves the arena balanced.
func TestChainedScanSelectionOutlivesItsSlices(t *testing.T) {
	const nodes = 2
	fact := handoffTable(t, "fact", 1500, nodes)
	probe := engine.NewScan("scan", fact, engine.Cmp{Op: engine.GE, L: engine.Col(2), R: engine.Const{V: 40.0}}, []int{1, 2, 0})
	root := engine.NewHashJoin("join", engine.NewScan("dim", dupDim(t, nodes), nil, nil), probe, 0, 0)
	want := coordinatorRows(t, nodes, root)
	if len(want) == 0 {
		t.Fatal("the plan joins no rows")
	}
	arena := engine.NewArena()
	for _, batch := range []int{engine.DefaultBatchSize, 1 << 12} {
		for run := range 2 {
			res, _ := mustExecute(t, Config{Nodes: nodes, BatchSize: batch, MaxWorkers: 1, Arena: arena}, root)
			if got := res.AllRows(); !reflect.DeepEqual(got, want) {
				t.Fatalf("batch %d, run %d: %d rows differ from the oracle's %d", batch, run, len(got), len(want))
			}
			if o := arena.Outstanding(); o != 0 {
				t.Fatalf("batch %d, run %d: %d arena buffers outstanding", batch, run, o)
			}
		}
	}
}

// A filtered scan with two consumers is a stage by itself and commits its
// batch. One consumer is the source of a chained stage that hands the
// committed batch on and releases it at the end of the stream; the other
// reads it after. The committed rows must not change then, nor after another
// query's chained filtered scans have drawn and written selections from the
// same arena, and each execution leaves the arena balanced.
func TestCommittedScanSelectionIsNotPooled(t *testing.T) {
	const nodes = 2
	fact := handoffTable(t, "fact", 1500, nodes)
	pred := engine.Cmp{Op: engine.GE, L: engine.Col(2), R: engine.Const{V: 40.0}}
	shared := engine.NewScan("shared", fact, pred, nil)
	tap := &tapOp{name: "tap", in: shared}
	double := engine.NewProject("double", tap,
		[]engine.Expr{engine.Col(0), engine.Col(1), engine.Arith{Op: engine.Mul, L: engine.Col(2), R: engine.Const{V: 2.0}}}, fact.Schema)
	other := engine.NewSelect("other", shared, engine.Cmp{Op: engine.LT, L: engine.Col(1), R: engine.Const{V: int64(3)}})
	root, err := engine.NewUnionAll("union", double, other)
	if err != nil {
		t.Fatal(err)
	}
	want := coordinatorRows(t, nodes, root)
	chained := engine.NewProject("project", engine.NewScan("scan", fact, engine.Cmp{Op: engine.LT, L: engine.Col(2), R: engine.Const{V: 600.0}}, nil),
		[]engine.Expr{engine.Col(1)}, engine.Schema{{Name: "g", Type: engine.TypeInt}})
	wantChained := coordinatorRows(t, nodes, chained)

	arena := engine.NewArena()
	cfg := Config{Nodes: nodes, MaxWorkers: 1, Arena: arena}
	res, _ := mustExecute(t, cfg, root)
	if got := res.AllRows(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%d rows differ from the oracle's %d", len(got), len(want))
	}
	committed := tap.calls[0].inputs[0]
	snapshot := committed.ToPartitioned().Parts
	check := func(when string) {
		t.Helper()
		if o := arena.Outstanding(); o != 0 {
			t.Fatalf("%s: %d arena buffers outstanding", when, o)
		}
		if got := committed.ToPartitioned().Parts; !reflect.DeepEqual(got, snapshot) {
			t.Fatalf("%s: the committed scan rows changed", when)
		}
	}
	check("after the query")
	for range 3 {
		res, _ := mustExecute(t, cfg, chained)
		if got := res.AllRows(); !reflect.DeepEqual(got, wantChained) {
			t.Fatalf("chained scan: %d rows differ from the oracle's %d", len(got), len(wantChained))
		}
		check("after another query on the arena")
	}
}
