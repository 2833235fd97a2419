package runtime

import (
	"reflect"
	"testing"

	"ftpde/internal/engine"
	"ftpde/internal/sql"
	"ftpde/internal/tpch"
)

// findOp returns the operator named name in the tree under root, or nil.
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

// A chained join draws its build side from the arena, and the run gives it
// back once every goroutine of the run has returned. Q5's joins probe builds
// spread over every partition (orders, customer), so a clean run on a private
// arena must leave it balanced, run after run. Under fine recovery, join-4 dies
// after probing orders, the recovery drops orders' partition on that node and
// the recomputed scan dies once more: every orders result published before
// holds a build of its own. Those must go back too, each once. A killed
// attempt leaks its in-flight batches, so the check compares against the same
// kills with orders checkpointed, whose result nothing replaces: the two runs
// must leave exactly as many buffers out.
func TestJoinBuildReturnsToArena(t *testing.T) {
	const nodes = 4
	cat, err := tpch.Generate(0.005, nodes, 7)
	if err != nil {
		t.Fatal(err)
	}
	stmt, err := sql.Parse(servedQueries[2].text)
	if err != nil {
		t.Fatal(err)
	}
	compile := func(checkpointOrders bool) engine.Operator {
		t.Helper()
		phys, err := sql.Compile(stmt, cat)
		if err != nil {
			t.Fatal(err)
		}
		orders, ok := findOp(phys.Root, "scan-orders").(*engine.Scan)
		if !ok {
			t.Fatal("no scan-orders in the plan")
		}
		orders.SetMaterialize(checkpointOrders)
		return phys.Root
	}
	root := compile(false)
	want := coordinatorRows(t, nodes, root)

	arena := engine.NewArena()
	for run := range 3 {
		res, _ := mustExecute(t, Config{Nodes: nodes, Arena: arena}, root)
		if got := res.AllRows(); !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d: %d rows differ from the oracle's %d", run, len(got), len(want))
		}
		if o := arena.Outstanding(); o != 0 {
			t.Fatalf("run %d: %d arena buffers outstanding", run, o)
		}
	}

	leaked := func(checkpointOrders bool, failures int) int64 {
		t.Helper()
		arena := engine.NewArena()
		kills := engine.NewScriptedFailures().Add("join-4", 1, 0).Add("scan-orders", 1, 1)
		res, rep := mustExecute(t, Config{Nodes: nodes, Arena: arena, Injector: kills}, compile(checkpointOrders))
		if got := res.AllRows(); !reflect.DeepEqual(got, want) {
			t.Fatalf("checkpointed orders %v: %d recovered rows differ from the oracle's %d", checkpointOrders, len(got), len(want))
		}
		if rep.Failures != failures {
			t.Fatalf("checkpointed orders %v: %d failures, want %d", checkpointOrders, rep.Failures, failures)
		}
		o := arena.Outstanding()
		if o < 0 {
			t.Fatalf("checkpointed orders %v: %d arena buffers outstanding: a buffer was released twice", checkpointOrders, o)
		}
		return o
	}
	if volatile, checkpointed := leaked(false, 2), leaked(true, 1); volatile != checkpointed {
		t.Fatalf("recovery that replaced orders' result left %d arena buffers out, %d with orders checkpointed", volatile, checkpointed)
	}
}
