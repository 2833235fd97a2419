package runtime

import (
	"reflect"
	"testing"

	"ftpde/internal/engine"
	"ftpde/internal/schemes"
	"ftpde/internal/sql"
	"ftpde/internal/tpch"
)

// allMatPlan compiles a served query with every join materialized, the
// plan of the all-mat arm: agg-input then starts a stage of its own, cut off
// its producer join by the checkpoint, and chains the partial aggregate.
func allMatPlan(t *testing.T, cat *engine.Catalog, text string, nodes int) engine.Operator {
	t.Helper()
	stmt, err := sql.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	phys, err := sql.Compile(stmt, cat)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range phys.Joins {
		j.SetMaterialize(true)
	}
	plan, err := buildStages(phys.Root, nodes)
	if err != nil {
		t.Fatal(err)
	}
	if s := stageOf(t, plan, "agg-input"); s.source().Name() != "agg-input" || s.kind != srcNarrow || len(s.ops) < 2 {
		t.Fatalf("agg-input's stage is %v (source kind %d), want a chained stage with agg-input its narrow source", opNames(s.ops), s.kind)
	}
	return phys.Root
}

// TestNarrowSourceStreams: a narrow source of a chained stage runs as a kernel
// over slices of its committed input partition, its output drawn from the
// partition's arena Local. All-mat Q3 and Q5 must return the oracle's rows
// with a private arena balanced after every clean run and, with agg-input
// killed on partition 1 (on its second slice: batches of 16 rows give every
// partition several), the oracle's rows and failure count under fine and
// coarse recovery.
func TestNarrowSourceStreams(t *testing.T) {
	const nodes = 4
	cat, err := tpch.Generate(0.005, nodes, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range servedQueries[1:] {
		t.Run(q.name, func(t *testing.T) {
			root := allMatPlan(t, cat, q.text, nodes)
			want := coordinatorRows(t, nodes, root)
			arena := engine.NewArena()
			for run := range 2 {
				res, _ := mustExecute(t, Config{Nodes: nodes, BatchSize: 16, Arena: arena}, root)
				if got := res.AllRows(); !reflect.DeepEqual(got, want) {
					t.Fatalf("clean run %d: %d rows differ from the oracle's %d", run, len(got), len(want))
				}
				if o := arena.Outstanding(); o != 0 {
					t.Fatalf("clean run %d: %d arena buffers outstanding", run, o)
				}
			}
			for _, arm := range []struct {
				name string
				rec  schemes.Recovery
			}{{"fine", schemes.FineGrained}, {"coarse", schemes.CoarseRestart}} {
				kills := func() *engine.ScriptedFailures { return engine.NewScriptedFailures().Add("agg-input", 1, 0) }
				co := &engine.Coordinator{Nodes: nodes, Injector: kills(), Coarse: arm.rec == schemes.CoarseRestart}
				wantRes, wantRep, err := co.Execute(root)
				if err != nil {
					t.Fatal(err)
				}
				res, rep := mustExecute(t, Config{Nodes: nodes, BatchSize: 16, Injector: kills(), Recovery: arm.rec}, root)
				if got := res.AllRows(); !reflect.DeepEqual(got, wantRes.AllRows()) {
					t.Errorf("%s: %d recovered rows differ from the oracle's %d", arm.name, len(got), len(wantRes.AllRows()))
				}
				if rep.Failures != wantRep.Failures || rep.Failures != 1 {
					t.Errorf("%s: %d failures, the oracle %d, want 1", arm.name, rep.Failures, wantRep.Failures)
				}
			}
		})
	}
}
