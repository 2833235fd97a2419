package runtime

import (
	"reflect"
	"slices"
	"testing"

	"ftpde/internal/engine"
	"ftpde/internal/sql"
	"ftpde/internal/tpch"
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
	// [scan,sel] | [join]; sel feeds the join twice but is computed once, and
	// the join, building and probing sel, does not chain onto its stage.
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

// opNames lists the operators' names, for comparing stage shapes.
func opNames(ops []engine.Operator) []string {
	out := make([]string, len(ops))
	for i, op := range ops {
		out[i] = op.Name()
	}
	return out
}

func stageNames(ss []*stage) []string {
	var out []string
	for _, s := range ss {
		out = append(out, s.name())
	}
	return out
}

// stageOf returns the stage holding the operator named name.
func stageOf(t *testing.T, plan *stagePlan, name string) *stage {
	t.Helper()
	for op, s := range plan.byOp {
		if op.Name() == name {
			return s
		}
	}
	t.Fatalf("no operator %s in the plan", name)
	return nil
}

// A broadcast join streams from its probe input when that input is a chain
// tail nobody else reads and nothing checkpoints; its build side becomes a
// side of the stage.
func TestBuildStagesChainsJoinsOnTheProbeSide(t *testing.T) {
	tb := chainTable(t, 2)
	for _, tc := range []struct {
		name   string
		plan   func(scan, dim1, dim2 *engine.Scan) engine.Operator
		stage  string   // the operator whose stage is checked
		ops    []string // that stage's chain
		sides  []string // and its sides, by stage name
		ckpt   bool
		stages int
	}{
		{"chain", func(scan, dim1, dim2 *engine.Scan) engine.Operator {
			return engine.NewHashJoin("join2", dim2, engine.NewHashJoin("join1", dim1, scan, 0, 0), 0, 0)
		}, "join2", []string{"scan", "join1", "join2"}, []string{"dim1", "dim2"}, false, 3},
		{"materialized terminal keeps its name", func(scan, dim1, dim2 *engine.Scan) engine.Operator {
			j := engine.NewHashJoin("join1", dim1, scan, 0, 0)
			j.SetMaterialize(true)
			return j
		}, "join1", []string{"scan", "join1"}, []string{"dim1"}, true, 2},
		{"materialized probe", func(scan, dim1, dim2 *engine.Scan) engine.Operator {
			scan.SetMaterialize(true)
			return engine.NewHashJoin("join1", dim1, scan, 0, 0)
		}, "join1", []string{"join1"}, nil, false, 3},
		{"probe with two consumers", func(scan, dim1, dim2 *engine.Scan) engine.Operator {
			// scan feeds join1's probe and join2's build; join2 still chains
			// onto join1's stage, whose terminal nobody else reads.
			return engine.NewHashJoin("join2", scan, engine.NewHashJoin("join1", dim1, scan, 0, 0), 0, 0)
		}, "join2", []string{"join1", "join2"}, []string{"scan"}, false, 3},
		// A join that builds and probes one operator: TestBuildStagesSharedSubplan.
	} {
		t.Run(tc.name, func(t *testing.T) {
			root := tc.plan(engine.NewScan("scan", tb, nil, nil), engine.NewScan("dim1", tb, nil, nil), engine.NewScan("dim2", tb, nil, nil))
			plan, err := buildStages(root, 2)
			if err != nil {
				t.Fatal(err)
			}
			s := stageOf(t, plan, tc.stage)
			if got := opNames(s.ops); !reflect.DeepEqual(got, tc.ops) {
				t.Errorf("stage ops %v, want %v", got, tc.ops)
			}
			if got := stageNames(s.sides); !reflect.DeepEqual(got, tc.sides) {
				t.Errorf("stage sides %v, want %v", got, tc.sides)
			}
			if s.name() != tc.stage || s.checkpoint != tc.ckpt {
				t.Errorf("stage %q checkpoint=%v, want %q checkpoint=%v", s.name(), s.checkpoint, tc.stage, tc.ckpt)
			}
			if len(plan.stages) != tc.stages {
				t.Errorf("%d stages, want %d", len(plan.stages), tc.stages)
			}
			for _, side := range s.sides {
				if !slices.Contains(s.ancestors, side) {
					t.Errorf("side %s is not an ancestor of the stage: a node failure would keep its volatile partition", side.name())
				}
			}
		})
	}
}

// The served Q5 as sql.Compile plans it: the lineitem scan streams through
// three joins, one stage loop, whose sides are the build stages it reads in
// full.
func TestBuildStagesChainsServedQ5(t *testing.T) {
	cat, err := tpch.Generate(0.001, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	stmt, err := sql.Parse(`SELECT n_name, SUM(l_extendedprice * (1 - l_discount)) AS revenue
		FROM region
		JOIN nation ON r_regionkey = n_regionkey
		JOIN supplier ON n_nationkey = s_nationkey
		JOIN lineitem ON s_suppkey = l_suppkey
		JOIN orders ON l_orderkey = o_orderkey
		JOIN customer ON o_custkey = c_custkey
		GROUP BY n_name
		ORDER BY revenue DESC`)
	if err != nil {
		t.Fatal(err)
	}
	pp, err := sql.Compile(stmt, cat)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := buildStages(pp.Root, 4)
	if err != nil {
		t.Fatal(err)
	}
	s := stageOf(t, plan, "join-5")
	// agg-input, the projection feeding the aggregate, streams on too.
	if got, want := opNames(s.ops), []string{"scan-lineitem", "join-3", "join-4", "join-5", "agg-input"}; !reflect.DeepEqual(got, want) {
		t.Errorf("stage ops %v, want %v", got, want)
	}
	if got, want := stageNames(s.sides), []string{"join-2", "scan-orders", "scan-customer"}; !reflect.DeepEqual(got, want) {
		t.Errorf("stage sides %v, want %v", got, want)
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
