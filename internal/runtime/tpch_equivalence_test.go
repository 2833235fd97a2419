package runtime

import (
	"context"
	"reflect"
	"testing"

	"ftpde/internal/engine"
	"ftpde/internal/obs"
	"ftpde/internal/tpch"
)

// The acceptance bar for the runtime: byte-identical results to the oracle
// (engine.Coordinator, the telemetry-free row interpreter) on the TPC-H
// example queries, both clean and under scripted failure traces with
// fine-grained recovery.

const (
	eqSF    = 0.002
	eqNodes = 4
	eqSeed  = 7
)

type queryBuilder func(t *testing.T, cat *engine.Catalog) engine.Operator

func tpchQueries() map[string]queryBuilder {
	return map[string]queryBuilder{
		"q1": func(t *testing.T, cat *engine.Catalog) engine.Operator {
			q, err := tpch.EngineQ1(cat, 2500)
			if err != nil {
				t.Fatal(err)
			}
			return q
		},
		"q3": func(t *testing.T, cat *engine.Catalog) engine.Operator {
			q, err := tpch.EngineQ3(cat, "BUILDING", 1200, true)
			if err != nil {
				t.Fatal(err)
			}
			return q
		},
		"q5": func(t *testing.T, cat *engine.Catalog) engine.Operator {
			q, err := tpch.EngineQ5(cat, 1, 0, 2400, map[string]bool{"q5-join3": true})
			if err != nil {
				t.Fatal(err)
			}
			return q
		},
		"q1c": func(t *testing.T, cat *engine.Catalog) engine.Operator {
			q, err := tpch.EngineQ1C(cat, 2500)
			if err != nil {
				t.Fatal(err)
			}
			return q
		},
		"q2c": func(t *testing.T, cat *engine.Catalog) engine.Operator {
			q, err := tpch.EngineQ2C(cat, 25, 250.0)
			if err != nil {
				t.Fatal(err)
			}
			return q
		},
	}
}

func oracleRows(t *testing.T, cat *engine.Catalog, build queryBuilder, inj engine.FailureInjector) []engine.Row {
	t.Helper()
	co := &engine.Coordinator{Nodes: eqNodes, Injector: inj}
	res, _, err := co.Execute(build(t, cat))
	if err != nil {
		t.Fatal(err)
	}
	return res.AllRows()
}

func pipelinedRows(t *testing.T, cat *engine.Catalog, build queryBuilder, cfg Config) ([]engine.Row, *engine.Report) {
	t.Helper()
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, rep, err := executeWithin(t, r, context.Background(), build(t, cat))
	if err != nil {
		t.Fatal(err)
	}
	return res.AllRows(), rep
}

func TestTPCHPipelinedMatchesStaged(t *testing.T) {
	cat, err := tpch.Generate(eqSF, eqNodes, eqSeed)
	if err != nil {
		t.Fatal(err)
	}
	for name, build := range tpchQueries() {
		t.Run(name, func(t *testing.T) {
			want := oracleRows(t, cat, build, nil)
			if len(want) == 0 {
				t.Fatal("oracle produced no rows; test data too small")
			}
			for _, batch := range []int{7, 256} {
				got, rep := pipelinedRows(t, cat, build, Config{Nodes: eqNodes, BatchSize: batch})
				if !reflect.DeepEqual(got, want) {
					t.Errorf("batch=%d: pipelined result differs from the oracle (%d vs %d rows)",
						batch, len(got), len(want))
				}
				if rep.Failures != 0 {
					t.Errorf("batch=%d: clean run reported failures", batch)
				}
			}
		})
	}
}

func TestTPCHPipelinedRecoveryMatchesStaged(t *testing.T) {
	cat, err := tpch.Generate(eqSF, eqNodes, eqSeed)
	if err != nil {
		t.Fatal(err)
	}
	// One scripted trace per query, hitting a mid-plan operator so recovery
	// has real lineage to walk.
	scripts := map[string]func() *engine.ScriptedFailures{
		"q1": func() *engine.ScriptedFailures {
			return engine.NewScriptedFailures().Add("q1-agg", 0, 0)
		},
		"q3": func() *engine.ScriptedFailures {
			return engine.NewScriptedFailures().
				Add("q3-join-orders-lineitem", 1, 0).
				Add("q3-agg", 2, 0)
		},
		"q5": func() *engine.ScriptedFailures {
			return engine.NewScriptedFailures().
				Add("q5-join4", 3, 0).
				Add("q5-agg", 0, 0)
		},
		"q1c": func() *engine.ScriptedFailures {
			return engine.NewScriptedFailures().
				Add("q1c-join", 1, 0).
				Add("q1c-agg", 0, 0)
		},
		"q2c": func() *engine.ScriptedFailures {
			return engine.NewScriptedFailures().
				Add("q2c-mincost", 1, 0).
				Add("q2c-join-part", 2, 0)
		},
	}
	for name, build := range tpchQueries() {
		t.Run(name, func(t *testing.T) {
			want := oracleRows(t, cat, build, nil)
			got, rep := pipelinedRows(t, cat, build,
				Config{Nodes: eqNodes, Injector: scripts[name](), BatchSize: 16})
			if !reflect.DeepEqual(got, want) {
				t.Errorf("recovered pipelined result differs from the oracle (%d vs %d rows)",
					len(got), len(want))
			}
			if rep.Failures == 0 {
				t.Error("scripted failures did not fire")
			}
			if rep.RecomputedPartitions == 0 {
				t.Error("fine-grained recovery recomputed nothing")
			}
		})
	}
}

func TestTPCHSharedStoreAcrossRuntimes(t *testing.T) {
	// Checkpoints written by the pipelined runtime are keyed by operator
	// name, so the oracle can resume from them (and vice versa).
	cat, err := tpch.Generate(eqSF, eqNodes, eqSeed)
	if err != nil {
		t.Fatal(err)
	}
	build := tpchQueries()["q3"]
	store := engine.NewMatStore()
	want, _ := pipelinedRows(t, cat, build, Config{Nodes: eqNodes, Store: store})
	if store.Len() == 0 {
		t.Fatal("pipelined runtime materialized nothing")
	}

	co := &engine.Coordinator{Nodes: eqNodes, Store: store}
	res, rep, err := co.Execute(build(t, cat))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.AllRows(), want) {
		t.Error("oracle resumed from runtime checkpoints with different result")
	}
	if rep.MaterializedPartitions != 0 {
		t.Errorf("oracle re-materialized %d partitions, want 0 (restored)", rep.MaterializedPartitions)
	}
}

// TestTPCHProgressTrackedEquivalence is the no-interference acceptance bar:
// with live progress tracking attached (and scripted failures exercising the
// undo/reset paths), runs of the TPC-H queries stay byte-identical to the
// oracle, and the tracker converges to a complete snapshot.
func TestTPCHProgressTrackedEquivalence(t *testing.T) {
	cat, err := tpch.Generate(eqSF, eqNodes, eqSeed)
	if err != nil {
		t.Fatal(err)
	}
	scripts := map[string]func() *engine.ScriptedFailures{
		"q1": func() *engine.ScriptedFailures {
			return engine.NewScriptedFailures().Add("q1-agg", 0, 0)
		},
		"q3": func() *engine.ScriptedFailures {
			return engine.NewScriptedFailures().Add("q3-join-orders-lineitem", 1, 0)
		},
		"q5": func() *engine.ScriptedFailures {
			return engine.NewScriptedFailures().Add("q5-join4", 3, 0)
		},
	}
	for _, name := range []string{"q1", "q3", "q5"} {
		build := tpchQueries()[name]
		t.Run(name, func(t *testing.T) {
			want := oracleRows(t, cat, build, nil)

			reg := obs.NewProgressRegistry(8)
			pp := reg.Begin("test", name+"-pipelined")
			got, rep := pipelinedRows(t, cat, build,
				Config{Nodes: eqNodes, BatchSize: 16, Injector: scripts[name](), Progress: pp})
			reg.End(pp, nil)

			if !reflect.DeepEqual(got, want) {
				t.Errorf("progress-tracked result differs from the oracle (%d vs %d rows)",
					len(got), len(want))
			}
			if rep.Failures == 0 {
				t.Error("scripted failure did not fire")
			}
			// The failure run's scans may legitimately end below total: lineage
			// dropped on the failed node is only recomputed when no downstream
			// checkpoint covers it, and the tracker reports what actually ran.
			psnap := pp.Snapshot()
			if len(psnap.Stages) == 0 {
				t.Fatal("pipelined: no stages tracked")
			}
			root := psnap.Stages[len(psnap.Stages)-1]
			if root.DoneParts != root.TotalParts {
				t.Errorf("pipelined: root stage %s finished %d/%d parts", root.Name, root.DoneParts, root.TotalParts)
			}
			if psnap.Failures == 0 {
				t.Error("pipelined: tracker recorded no failures")
			}
			if !psnap.Done {
				t.Error("completed query not marked done")
			}
		})
	}
}
