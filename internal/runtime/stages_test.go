package runtime

import (
	"testing"

	"ftpde/internal/engine"
)

func chainTable(t *testing.T, parts int) *engine.Table {
	t.Helper()
	rows := make([]engine.Row, 40)
	for i := range rows {
		rows[i] = engine.Row{int64(i), float64(i)}
	}
	tb, err := engine.NewTable("t", engine.Schema{{Name: "k", Type: engine.TypeInt}, {Name: "v", Type: engine.TypeFloat}}, rows, parts, 0)
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

func TestBuildStagesChainsNarrowOps(t *testing.T) {
	// scan -> select -> project is one pipelined stage.
	tb := chainTable(t, 2)
	scan := engine.NewScan("scan", tb, nil, nil)
	sel := engine.NewSelect("sel", scan, engine.Cmp{Op: engine.LT, L: engine.Col(0), R: engine.Const{V: int64(30)}})
	proj := engine.NewProject("proj", sel, []engine.Expr{engine.Col(1)}, engine.Schema{{Name: "v", Type: engine.TypeFloat}})

	plan, err := buildStages(proj, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.stages) != 1 {
		t.Fatalf("got %d stages, want 1 (fully pipelined chain)", len(plan.stages))
	}
	s := plan.stages[0]
	if s.kind != srcScan || len(s.ops) != 3 {
		t.Errorf("stage shape wrong: kind=%d ops=%d", s.kind, len(s.ops))
	}
	if s.name() != "proj" {
		t.Errorf("stage named %q, want terminal op name", s.name())
	}
}

func TestBuildStagesCutsAtMaterializationAndWide(t *testing.T) {
	// scan -> sel(materialized) -> proj -> exchange -> agg:
	// the materialization point and the wide exchange are both barriers.
	tb := chainTable(t, 2)
	scan := engine.NewScan("scan", tb, nil, nil)
	sel := engine.NewSelect("sel", scan, engine.Cmp{Op: engine.LT, L: engine.Col(0), R: engine.Const{V: int64(30)}})
	sel.SetMaterialize(true)
	proj := engine.NewProject("proj", sel, []engine.Expr{engine.Col(0), engine.Col(1)},
		engine.Schema{{Name: "k", Type: engine.TypeInt}, {Name: "v", Type: engine.TypeFloat}})
	ex := engine.NewExchange("ex", proj, 0)
	agg := engine.NewHashAggregate("agg", ex, []int{0}, []engine.AggSpec{{Kind: engine.AggCount}},
		false, engine.Schema{{Name: "k", Type: engine.TypeInt}, {Name: "cnt", Type: engine.TypeInt}})

	plan, err := buildStages(agg, 2)
	if err != nil {
		t.Fatal(err)
	}
	// [scan,sel] | [proj] | [ex,agg]: the materialization point and the wide
	// exchange are barriers, but the partition-wise agg — stateful yet
	// streamable through its kernel — chains onto the exchange stage.
	if len(plan.stages) != 3 {
		t.Fatalf("got %d stages, want 3", len(plan.stages))
	}
	if !plan.stages[0].checkpoint || plan.stages[0].name() != "sel" {
		t.Errorf("materialized sel should terminate a checkpoint stage, got %q ckpt=%v",
			plan.stages[0].name(), plan.stages[0].checkpoint)
	}
	if plan.stages[1].kind != srcNarrow {
		t.Errorf("proj after a materialization point should be a narrow source, got %d", plan.stages[1].kind)
	}
	if plan.stages[2].kind != srcWide || len(plan.stages[2].ops) != 2 {
		t.Errorf("partition-wise agg should chain onto the exchange stage, got kind=%d ops=%d",
			plan.stages[2].kind, len(plan.stages[2].ops))
	}
	if plan.stages[2].name() != "agg" {
		t.Errorf("chained stage named %q, want terminal op name agg", plan.stages[2].name())
	}
	if plan.root != plan.stages[2] {
		t.Error("root stage mismatch")
	}
}

func TestBuildStagesSharedSubplan(t *testing.T) {
	// A sub-plan with two consumers is a stage boundary even when narrow.
	tb := chainTable(t, 2)
	scan := engine.NewScan("scan", tb, nil, nil)
	sel := engine.NewSelect("sel", scan, engine.Cmp{Op: engine.LT, L: engine.Col(0), R: engine.Const{V: int64(30)}})
	join := engine.NewHashJoin("join", sel, sel, 0, 0)

	plan, err := buildStages(join, 2)
	if err != nil {
		t.Fatal(err)
	}
	// [scan,sel] | [join]; sel feeds the join twice but is computed once.
	if len(plan.stages) != 2 {
		t.Fatalf("got %d stages, want 2", len(plan.stages))
	}
	if len(plan.stages[1].deps) != 1 {
		t.Errorf("shared input should be deduplicated into one dep, got %d", len(plan.stages[1].deps))
	}
	if got := len(plan.stages[1].ancestors); got != 2 {
		t.Errorf("ancestors = %d, want 2", got)
	}
}

func TestBuildStagesRejectsDuplicateNames(t *testing.T) {
	tb := chainTable(t, 2)
	scan := engine.NewScan("dup", tb, nil, nil)
	sel := engine.NewSelect("dup", scan, engine.Cmp{Op: engine.LT, L: engine.Col(0), R: engine.Const{V: int64(30)}})
	if _, err := buildStages(sel, 2); err == nil {
		t.Fatal("duplicate operator names not rejected")
	}
}
