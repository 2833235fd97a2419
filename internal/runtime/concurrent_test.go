package runtime

import (
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"ftpde/internal/engine"
	"ftpde/internal/sql"
	"ftpde/internal/tpch"
)

// compileServed compiles the served query named name over cat.
func compileServed(t *testing.T, cat *engine.Catalog, name string) *sql.PhysicalPlan {
	t.Helper()
	for _, q := range servedQueries {
		if q.name != name {
			continue
		}
		stmt, err := sql.Parse(q.text)
		if err != nil {
			t.Fatal(err)
		}
		phys, err := sql.Compile(stmt, cat)
		if err != nil {
			t.Fatal(err)
		}
		return phys
	}
	t.Fatalf("no served query %s", name)
	return nil
}

// Every execution derives its stage graph and run state from the root it is
// handed and shares nothing mutable with another execution of that root. One
// compiled root — served Q5, and Q3 with every join checkpointed to a
// DiskStore of each execution's own — runs from four goroutines at once,
// clean and with one scripted kill: every execution's rows and Report equal a
// serial execution's, and the rows and failure counts the Coordinator's.
func TestConcurrentExecutionsOfOneRoot(t *testing.T) {
	const nodes, runs = 4, 4
	cat, err := tpch.Generate(0.002, nodes, 7)
	if err != nil {
		t.Fatal(err)
	}
	q5 := compileServed(t, cat, "Q5")
	q3 := compileServed(t, cat, "Q3")
	for _, j := range q3.Joins {
		j.SetMaterialize(true)
	}
	for _, tc := range []struct {
		name string
		root engine.Operator
		disk bool   // each execution checkpoints to a DiskStore of its own
		kill string // the operator killed on partition 1, first attempt
		// want is every execution's Report but RecomputedPartitions.
		want engine.Report
	}{
		{name: "Q5 clean", root: q5.Root},
		{name: "Q5 killed", root: q5.Root, kill: "join-4", want: engine.Report{Failures: 1}},
		{name: "all-mat Q3 clean", root: q3.Root, disk: true,
			want: engine.Report{MaterializedPartitions: len(q3.Joins) * nodes}},
		{name: "all-mat Q3 killed", root: q3.Root, disk: true, kill: q3.Joins[len(q3.Joins)-1].Name(),
			want: engine.Report{Failures: 1, MaterializedPartitions: len(q3.Joins) * nodes}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			injector := func() engine.FailureInjector {
				if tc.kill == "" {
					return engine.NoFailures{}
				}
				return engine.NewScriptedFailures().Add(tc.kill, 1, 0)
			}
			config := func(run int) Config {
				cfg := Config{Nodes: nodes, Injector: injector()}
				if tc.disk {
					store, err := engine.NewDiskStore(filepath.Join(t.TempDir(), fmt.Sprint(run)))
					if err != nil {
						t.Fatal(err)
					}
					cfg.Store = store
				}
				return cfg
			}
			co := &engine.Coordinator{Nodes: nodes, Injector: injector()}
			oracle, orep, err := co.Execute(tc.root)
			if err != nil {
				t.Fatal(err)
			}
			serial, srep := mustExecute(t, config(-1), tc.root)
			if !reflect.DeepEqual(serial.Parts, oracle.Parts) {
				t.Fatalf("serial rows differ from the Coordinator's (%d vs %d)", len(serial.AllRows()), len(oracle.AllRows()))
			}
			// The Coordinator recomputes operator partitions, the runtime stage
			// partitions: only that count may differ.
			want := tc.want
			want.RecomputedPartitions = srep.RecomputedPartitions
			oracleRep := *orep
			oracleRep.RecomputedPartitions = want.RecomputedPartitions
			if *srep != want || oracleRep != want {
				t.Fatalf("serial report %+v, Coordinator's %+v, want %+v but for recomputed partitions", *srep, *orep, tc.want)
			}

			cfgs := make([]Config, runs)
			for i := range cfgs {
				cfgs[i] = config(i)
			}
			res := make([]*engine.PartitionedResult, runs)
			reps := make([]*engine.Report, runs)
			errs := make([]error, runs)
			var wg sync.WaitGroup
			for i := range runs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					r, err := New(cfgs[i])
					if err == nil {
						res[i], reps[i], err = r.Execute(context.Background(), tc.root)
					}
					errs[i] = err
				}()
			}
			within(t, 30*time.Second, wg.Wait)
			for i := range runs {
				if errs[i] != nil {
					t.Errorf("execution %d: %v", i, errs[i])
					continue
				}
				if !reflect.DeepEqual(res[i].Parts, serial.Parts) {
					t.Errorf("execution %d: rows differ from the serial execution's (%d vs %d)", i, len(res[i].AllRows()), len(serial.AllRows()))
				}
				if *reps[i] != *srep {
					t.Errorf("execution %d: report %+v, the serial execution's %+v", i, *reps[i], *srep)
				}
			}
		})
	}
}

// The stage graph is derived per Execute from the root as it stands, so
// marking a join as a materialization point between two executions of one
// root takes effect on the second: it checkpoints every partition of that
// join where the first checkpointed none, and returns the same rows.
func TestSetMaterializeBetweenExecutions(t *testing.T) {
	const nodes = 4
	cat, err := tpch.Generate(0.002, nodes, 7)
	if err != nil {
		t.Fatal(err)
	}
	phys := compileServed(t, cat, "Q5")
	cfg := Config{Nodes: nodes}
	before, rep := mustExecute(t, cfg, phys.Root)
	if rep.MaterializedPartitions != 0 {
		t.Fatalf("the compiled plan checkpointed %d partitions, want 0", rep.MaterializedPartitions)
	}
	phys.Joins[1].SetMaterialize(true)
	after, rep := mustExecute(t, cfg, phys.Root)
	if rep.MaterializedPartitions != nodes {
		t.Errorf("with %s marked, %d partitions checkpointed, want %d", phys.Joins[1].Name(), rep.MaterializedPartitions, nodes)
	}
	if !reflect.DeepEqual(after.Parts, before.Parts) {
		t.Errorf("rows changed when %s was marked (%d vs %d)", phys.Joins[1].Name(), len(after.AllRows()), len(before.AllRows()))
	}
}
