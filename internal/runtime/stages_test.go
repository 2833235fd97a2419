package runtime

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"ftpde/internal/cost"
	"ftpde/internal/engine"
	"ftpde/internal/plan"
	"ftpde/internal/sql"
	"ftpde/internal/stats"
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
	// agg-input, the projection feeding the aggregate, streams on too, and so
	// does the partial aggregate: n_name is no key lineitem is partitioned on.
	if got, want := opNames(s.ops), []string{"scan-lineitem", "join-3", "join-4", "join-5", "agg-input", "agg-partial"}; !reflect.DeepEqual(got, want) {
		t.Errorf("stage ops %v, want %v", got, want)
	}
	if got, want := stageNames(s.sides), []string{"join-2", "scan-orders", "scan-customer"}; !reflect.DeepEqual(got, want) {
		t.Errorf("stage sides %v, want %v", got, want)
	}
}

// The cost model prices collapsed operators (cost.Collapse); the runtime runs
// and recovers stages (buildStages). For every materialization configuration
// of the served queries and of the other shapes sql.Compile emits (a scan
// alone, ORDER BY, LIMIT, DISTINCT, a global aggregate, a post-join filter),
// each engine operator belongs to exactly one collapsed group and each group
// is a union of whole stages.
// Inside a group, stages meet only at a boundary the model prices as part of
// one pipelined group:
//   - a wide source: the stage's source reads every partition of its input
//     (exchange, join, global aggregation, sort, limit);
//   - a broadcast side: the build input of a join chained onto its probe;
//   - the group's own checkpoint, read by the unpriced filter and projection
//     placed after its terminal.
func TestCollapsedGroupsAreStages(t *testing.T) {
	cat, err := tpch.Generate(0.001, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	tstats, err := sql.CollectStats(cat, []string{"region", "nation", "supplier", "customer", "orders", "lineitem"})
	if err != nil {
		t.Fatal(err)
	}
	cp := stats.CostParams{CPUPerRow: 1e-6, WritePerRow: 1.7e-5, Nodes: 4}
	m := cost.Model{MTBF: 3600, MTTR: 1, Percentile: 0.95, PipeConst: 1, Nodes: 4}
	for _, q := range []struct{ name, text string }{
		{"Q1", `SELECT l_returnflag, l_linestatus, SUM(l_quantity) AS sum_qty, SUM(l_extendedprice) AS sum_price, COUNT(*) AS cnt
			FROM lineitem WHERE l_shipdate <= 1200 GROUP BY l_returnflag, l_linestatus`},
		{"Q3", `SELECT l_orderkey, SUM(l_extendedprice * (1 - l_discount)) AS revenue
			FROM customer JOIN orders ON c_custkey = o_custkey JOIN lineitem ON o_orderkey = l_orderkey
			WHERE c_mktsegment = 'BUILDING' AND o_orderdate < 1200
			GROUP BY l_orderkey ORDER BY revenue DESC`},
		{"Q5", `SELECT n_name, SUM(l_extendedprice * (1 - l_discount)) AS revenue
			FROM region JOIN nation ON r_regionkey = n_regionkey JOIN supplier ON n_nationkey = s_nationkey
			JOIN lineitem ON s_suppkey = l_suppkey JOIN orders ON l_orderkey = o_orderkey
			JOIN customer ON o_custkey = c_custkey
			GROUP BY n_name ORDER BY revenue DESC`},
		{"scan-only", `SELECT l_orderkey, l_quantity FROM lineitem WHERE l_shipdate <= 1200`},
		{"order-by", `SELECT l_orderkey, l_quantity FROM lineitem WHERE l_shipdate <= 1200 ORDER BY l_quantity`},
		{"limit", `SELECT o_orderkey FROM orders JOIN customer ON o_custkey = c_custkey LIMIT 5`},
		{"distinct", `SELECT DISTINCT n_name FROM nation JOIN supplier ON n_nationkey = s_nationkey ORDER BY n_name`},
		{"global-aggregate", `SELECT SUM(l_extendedprice), COUNT(*) FROM lineitem JOIN orders ON l_orderkey = o_orderkey
			WHERE o_orderdate < 1200`},
		{"post-join-filter", `SELECT c_custkey, o_orderkey FROM customer JOIN orders ON c_custkey = o_custkey
			WHERE o_orderkey > c_custkey`},
	} {
		t.Run(q.name, func(t *testing.T) {
			stmt, err := sql.Parse(q.text)
			if err != nil {
				t.Fatal(err)
			}
			audit, err := sql.BuildAuditPlan(stmt, cat, tstats, cp, m)
			if err != nil {
				t.Fatal(err)
			}
			p, err := sql.CostPlan(stmt, cat, tstats, cp)
			if err != nil {
				t.Fatal(err)
			}
			free := p.FreeOperators()
			for mask := uint64(0); mask < 1<<len(free); mask++ {
				cfg := p.Clone()
				if err := cfg.Apply(plan.ConfigFromMask(free, mask)); err != nil {
					t.Fatal(err)
				}
				for _, op := range cfg.Operators() {
					ops := audit.Ops[op.ID]
					ops[len(ops)-1].(interface{ SetMaterialize(bool) }).SetMaterialize(op.Materialize)
				}
				c, err := cost.Collapse(cfg, m)
				if err != nil {
					t.Fatal(err)
				}
				sp, err := buildStages(audit.Phys.Root, 4)
				if err != nil {
					t.Fatal(err)
				}
				checkGroupsAreStages(t, fmt.Sprintf("mask %b", mask), cfg, c, audit.Ops, sp)
			}
		})
	}
}

func checkGroupsAreStages(t *testing.T, label string, p *plan.Plan, c *cost.Collapsed, ops map[plan.OpID][]engine.Operator, sp *stagePlan) {
	t.Helper()
	group := map[engine.Operator]plan.OpID{}
	for cid, members := range c.Members {
		for _, id := range members {
			for _, op := range ops[id] {
				if g, dup := group[op]; dup {
					t.Errorf("%s: %s is in groups %s and %s", label, op.Name(), c.P.Op(g).Name, c.P.Op(cid).Name)
				}
				group[op] = cid
			}
		}
	}
	if len(group) != len(sp.byOp) {
		t.Errorf("%s: the groups hold %d engine operators, the plan %d", label, len(group), len(sp.byOp))
	}
	stageGroup := map[*stage]plan.OpID{}
	for _, s := range sp.stages {
		for _, op := range s.ops {
			g, ok := group[op]
			if !ok {
				t.Fatalf("%s: %s is in no group", label, op.Name())
			}
			if sg, seen := stageGroup[s]; seen && sg != g {
				t.Errorf("%s: stage %s spans groups %s and %s", label, s.name(), c.P.Op(sg).Name, c.P.Op(g).Name)
			}
			stageGroup[s] = g
		}
	}
	for _, s := range sp.stages {
		for _, d := range s.deps { // a side is always a priced boundary
			if stageGroup[d] != stageGroup[s] || s.kind == srcWide {
				continue
			}
			unpriced := true
			for _, op := range s.ops {
				switch op.(type) {
				case *engine.Select, *engine.Project:
				default:
					unpriced = false
				}
			}
			if !d.checkpoint || !unpriced {
				t.Errorf("%s: stages %s and %s of group %s meet at a boundary the model does not price",
					label, d.name(), s.name(), c.P.Op(stageGroup[s]).Name)
			}
		}
	}
	for _, op := range p.Operators() {
		mat := ops[op.ID][len(ops[op.ID])-1]
		if s := sp.byOp[mat]; op.Materialize && (s.terminal() != mat || !s.checkpoint) {
			t.Errorf("%s: %s materializes, but %s does not end a checkpointed stage", label, op.Name, mat.Name())
		}
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
