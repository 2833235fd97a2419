// Throughput and allocation benchmarks of the runtime (internal/runtime) and
// the engine kernels it drives. Tracked numbers come from benchmark/ (see
// BENCHMARK.json); these are for measuring while you work, plus the gated
// allocation-ceiling test.
//
// Run with:
//
//	go test -bench=Runtime -benchmem
package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"ftpde/internal/core"
	"ftpde/internal/cost"
	"ftpde/internal/engine"
	"ftpde/internal/failure"
	"ftpde/internal/obs"
	"ftpde/internal/plan"
	"ftpde/internal/runtime"
	"ftpde/internal/service"
	"ftpde/internal/sql"
	"ftpde/internal/stats"
	"ftpde/internal/tpch"
)

// multiBranchPlan builds a multi-stage DAG with `branches` independent
// scan -> select -> project -> global-agg chains whose one-row outputs are
// combined by a chain of cheap joins. The runtime overlaps the branches, so
// with GOMAXPROCS >= branches it scales past the partition count.
func multiBranchPlan(rowsPerBranch, branches, parts int) (engine.Operator, error) {
	schema := engine.Schema{{Name: "k", Type: engine.TypeInt}, {Name: "v", Type: engine.TypeFloat}}
	heavy := func(c engine.Expr) engine.Expr {
		// A few rounds of arithmetic per row stands in for a real UDF.
		e := c
		for i := 0; i < 8; i++ {
			e = engine.Arith{Op: engine.Add,
				L: engine.Arith{Op: engine.Mul, L: e, R: engine.Const{V: 1.0000001}},
				R: engine.Const{V: 0.5}}
		}
		return e
	}
	var root engine.Operator
	for b := 0; b < branches; b++ {
		rows := make([]engine.Row, rowsPerBranch)
		for i := range rows {
			rows[i] = engine.Row{int64(i), float64((i*7 + b) % 1000)}
		}
		tb, err := engine.NewTable(fmt.Sprintf("t%d", b), schema, rows, parts, 0)
		if err != nil {
			return nil, err
		}
		scan := engine.NewScan(fmt.Sprintf("scan-%d", b), tb, nil, nil)
		sel := engine.NewSelect(fmt.Sprintf("sel-%d", b), scan,
			engine.Cmp{Op: engine.LT, L: engine.Col(1), R: engine.Const{V: 900.0}})
		proj := engine.NewProject(fmt.Sprintf("proj-%d", b), sel,
			[]engine.Expr{engine.Const{V: int64(1)}, heavy(engine.Col(1))},
			engine.Schema{{Name: "one", Type: engine.TypeInt}, {Name: "u", Type: engine.TypeFloat}})
		agg := engine.NewHashAggregate(fmt.Sprintf("agg-%d", b), proj, []int{0},
			[]engine.AggSpec{{Kind: engine.AggSum, Col: 1}}, true,
			engine.Schema{{Name: "one", Type: engine.TypeInt}, {Name: "sum", Type: engine.TypeFloat}})
		if root == nil {
			root = agg
		} else {
			root = engine.NewHashJoin(fmt.Sprintf("combine-%d", b), agg, root, 0, 0)
		}
	}
	return root, nil
}

const (
	benchBranchRows = 60000
	benchBranches   = 4
	benchParts      = 2 // fewer partitions than cores: stage overlap is the win
)

func BenchmarkRuntimePipelinedMultiBranch(b *testing.B) {
	root, err := multiBranchPlan(benchBranchRows, benchBranches, benchParts)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := runtime.New(runtime.Config{Nodes: benchParts})
		if err != nil {
			b.Fatal(err)
		}
		res, _, err := r.Execute(context.Background(), root)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.AllRows()) == 0 {
			b.Fatal("empty result")
		}
	}
}

// TPC-H Q3 end to end on the pipelined runtime, with and without an
// injected failure — the pipelined counterpart of BenchmarkEngineQ3.
func benchPipelinedQ3(b *testing.B, withFailure bool) {
	cat, err := tpch.Generate(0.002, 4, 7)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q, err := tpch.EngineQ3(cat, "BUILDING", 1200, true)
		if err != nil {
			b.Fatal(err)
		}
		var inj engine.FailureInjector = engine.NoFailures{}
		if withFailure {
			inj = engine.NewScriptedFailures().Add("q3-join-orders-lineitem", 1, 0)
		}
		r, err := runtime.New(runtime.Config{Nodes: 4, Injector: inj})
		if err != nil {
			b.Fatal(err)
		}
		res, _, err := r.Execute(context.Background(), q)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.AllRows()) == 0 {
			b.Fatal("empty result")
		}
	}
}

func BenchmarkRuntimePipelinedQ3(b *testing.B)         { benchPipelinedQ3(b, false) }
func BenchmarkRuntimePipelinedQ3Recovery(b *testing.B) { benchPipelinedQ3(b, true) }

// TPC-H Q1 end to end on the pipelined runtime — the alloc-budget anchor:
// scan → select → aggregate over lineitem with the arena recycling batch
// buffers across the pipeline. Plan construction happens outside the timed
// loop so the measurement is pure execution.
func BenchmarkRuntimePipelinedQ1(b *testing.B) {
	cat, err := tpch.Generate(0.002, 4, 7)
	if err != nil {
		b.Fatal(err)
	}
	q1, err := tpch.EngineQ1(cat, 2500)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := runtime.New(runtime.Config{Nodes: 4})
		if err != nil {
			b.Fatal(err)
		}
		res, _, err := r.Execute(context.Background(), q1)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.AllRows()) == 0 {
			b.Fatal("empty result")
		}
	}
}

// benchServedQuery runs one of ftserve's templates in the shape the benchmark
// harness's exec_scan_join workload does: compiled from SQL once, SF 0.005, 4
// nodes, nothing materialized. What it allocates is the planner's doing as
// much as the engine's — which columns the compiled scans and joins carry.
// checkpointed materializes every join instead, into a DiskStore over a fresh
// directory per iteration, so each run writes all its checkpoints.
func benchServedQuery(b *testing.B, name string, checkpointed bool) {
	cat, err := tpch.Generate(0.005, 4, 7)
	if err != nil {
		b.Fatal(err)
	}
	var root engine.Operator
	for _, q := range service.TPCHQueries() {
		if q.Name != name {
			continue
		}
		stmt, err := sql.Parse(q.Text)
		if err != nil {
			b.Fatal(err)
		}
		pp, err := sql.Compile(stmt, cat)
		if err != nil {
			b.Fatal(err)
		}
		for _, j := range pp.Joins {
			j.SetMaterialize(checkpointed)
		}
		root = pp.Root
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := runtime.Config{Nodes: 4}
		if checkpointed {
			store, err := engine.NewDiskStore(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			cfg.Store = store
		}
		r, err := runtime.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		res, rep, err := r.Execute(context.Background(), root)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.AllRows()) == 0 || (rep.MaterializedPartitions > 0) != checkpointed {
			b.Fatalf("%d result rows, %d partitions materialized", len(res.AllRows()), rep.MaterializedPartitions)
		}
	}
}

// BenchmarkRuntimePipelinedQ5 is the served six-way join. It runs in eight
// stages: the nation scan streams through two joins and the lineitem scan
// through three, and four are a single scan. Its allocation ceiling is what
// keeps chained joins from materializing their outputs, stage boundaries from
// copying their batches again, wide operators from doing their shared work
// once per partition, and the planner from carrying dead columns through the
// joins.
func BenchmarkRuntimePipelinedQ5(b *testing.B) { benchServedQuery(b, "Q5", false) }

// BenchmarkRuntimeCheckpointedQ5 is the same plan with all five joins
// materialized to disk. Its ceiling is what keeps the checkpoint path
// columnar: a boxed row between a stage and the store is an object per row of
// every join output, several times the figure.
func BenchmarkRuntimeCheckpointedQ5(b *testing.B) { benchServedQuery(b, "Q5", true) }

// BenchmarkRuntimePipelinedQ3SQL is the served three-way join —
// BenchmarkRuntimePipelinedQ3 runs the hand-built plan, which projects at its
// scans whatever sql.Compile does.
func BenchmarkRuntimePipelinedQ3SQL(b *testing.B) { benchServedQuery(b, "Q3", false) }

// BenchmarkRuntimePipelinedQ1Progress is the same workload with a live
// obs.Progress attached, the way ftserve runs every query. The delta against
// BenchmarkRuntimePipelinedQ1 is the whole cost of introspection; the
// alloc_budget.json ceiling for pipelined_q1_progress keeps that delta from
// growing silently, and benchmark/ reports it as obs.overhead_frac.
func BenchmarkRuntimePipelinedQ1Progress(b *testing.B) {
	cat, err := tpch.Generate(0.002, 4, 7)
	if err != nil {
		b.Fatal(err)
	}
	q1, err := tpch.EngineQ1(cat, 2500)
	if err != nil {
		b.Fatal(err)
	}
	reg := obs.NewProgressRegistry(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prog := reg.Begin("bench", "q1")
		r, err := runtime.New(runtime.Config{Nodes: 4, Progress: prog})
		if err != nil {
			b.Fatal(err)
		}
		res, _, err := r.Execute(context.Background(), q1)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.AllRows()) == 0 {
			b.Fatal("empty result")
		}
		reg.End(prog, nil)
	}
}

// Scan→filter→project through the shared operator kernels, columnar vs. the
// []Row baseline. The baseline table carries a plain-int key column, which
// defeats strict typing: the same kernel objects then execute their
// interpreted row-at-a-time paths over raw batches — the pre-refactor
// execution shape — so the comparison isolates the representation, not the
// operator logic.
const sfpRows = 100000

func sfpTable(b testing.TB, columnar bool) *engine.Table {
	schema := engine.Schema{{Name: "k", Type: engine.TypeInt}, {Name: "v", Type: engine.TypeFloat}}
	rows := make([]engine.Row, sfpRows)
	for i := range rows {
		var k engine.Value = int64(i)
		if !columnar {
			k = int(i)
		}
		rows[i] = engine.Row{k, float64((i * 7) % 1000)}
	}
	tb, err := engine.NewTable("sfp", schema, rows, benchParts, -1)
	if err != nil {
		b.Fatal(err)
	}
	return tb
}

func sfpOps(b testing.TB, tb *engine.Table) (*engine.Scan, *engine.Select, *engine.Project) {
	scan := engine.NewScan("sfp-scan", tb, nil, nil)
	sel := engine.NewSelect("sfp-sel", scan,
		engine.Cmp{Op: engine.LT, L: engine.Col(1), R: engine.Const{V: 900.0}})
	proj := engine.NewProject("sfp-proj", sel,
		[]engine.Expr{engine.Col(0),
			engine.Arith{Op: engine.Mul, L: engine.Col(1), R: engine.Const{V: 1.01}}},
		engine.Schema{{Name: "k", Type: engine.TypeInt}, {Name: "u", Type: engine.TypeFloat}})
	return scan, sel, proj
}

func benchScanFilterProject(b *testing.B, columnar bool) {
	tb := sfpTable(b, columnar)
	scan, sel, proj := sfpOps(b, tb)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := 0
		for p := 0; p < benchParts; p++ {
			batch, err := scan.ComputeBatch(p, nil)
			if err != nil {
				b.Fatal(err)
			}
			fk, _ := engine.NewOperatorKernel(sel)
			pk, _ := engine.NewOperatorKernel(proj)
			fb, err := fk.Process(batch)
			if err != nil {
				b.Fatal(err)
			}
			if fb == nil {
				continue
			}
			pb, err := pk.Process(fb)
			if err != nil {
				b.Fatal(err)
			}
			if pb != nil {
				rows += pb.Len()
			}
		}
		if rows == 0 {
			b.Fatal("stage produced no rows")
		}
	}
}

func BenchmarkScanFilterProjectColumnar(b *testing.B) { benchScanFilterProject(b, true) }
func BenchmarkScanFilterProjectRowBaseline(b *testing.B) {
	benchScanFilterProject(b, false)
}

// BenchmarkFindBestFTPlanQ5 is the optimizer alone: findBestFTPlan over the
// top-20 join orders of the paper's Q5 at SF 100 with memoized dominant
// paths, under ftserve's plan-time model. Its ceiling is what keeps the
// enumerator from building a collapsed plan per configuration it scores, or
// a copy of each candidate.
func BenchmarkFindBestFTPlanQ5(b *testing.B) {
	prm := tpch.Params{SF: 100, Nodes: 4}
	graph, err := tpch.Q5JoinGraph(prm)
	if err != nil {
		b.Fatal(err)
	}
	coster, err := tpch.Q5Coster(prm)
	if err != nil {
		b.Fatal(err)
	}
	trees, err := graph.TopK(20)
	if err != nil {
		b.Fatal(err)
	}
	plans := make([]*plan.Plan, len(trees))
	for i, t := range trees {
		plans[i] = tpch.Q5PlanFromTree(t, graph, coster)
	}
	opt := core.Options{
		Model:        cost.Model{MTBF: failure.OneHour, MTTR: 1, Percentile: 0.95, PipeConst: 1, Nodes: 4},
		MemoizePaths: true,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.FindBestFTPlan(plans, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFTPlanQ5 is both phases of the optimizer on a served query:
// sql.FTPlan on ftserve's Q5 at SF 0.005 ranks the top-20 join orders, builds
// a cost plan for each and scores their materialization configurations,
// under ftserve's plan-time cost constants. Its ceiling is what keeps the
// join enumerator from allocating per candidate it ranks, and plan
// construction from allocating per operator.
func BenchmarkFTPlanQ5(b *testing.B) {
	cat, err := tpch.Generate(0.005, 4, 7)
	if err != nil {
		b.Fatal(err)
	}
	stmt, err := sql.Parse(service.TPCHQueries()[2].Text)
	if err != nil {
		b.Fatal(err)
	}
	tables := make([]string, 0, len(stmt.From))
	for _, tr := range stmt.From {
		tables = append(tables, tr.Table)
	}
	tstats, err := sql.CollectStats(cat, tables)
	if err != nil {
		b.Fatal(err)
	}
	cp := stats.CostParams{CPUPerRow: 1e-6, WritePerRow: 1.7e-5, Nodes: 4}
	m := cost.Model{MTBF: failure.OneHour, MTTR: 1, Percentile: 0.95, PipeConst: 1, Nodes: 4}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sql.FTPlan(stmt, cat, tstats, cp, m, 20); err != nil {
			b.Fatal(err)
		}
	}
}

// allocPoint records an allocation measurement from testing.Benchmark.
type allocPoint struct {
	SecondsPerOp float64 `json:"seconds_per_op"`
	AllocsPerOp  int64   `json:"allocs_per_op"`
	BytesPerOp   int64   `json:"bytes_per_op"`
}

func toAllocPoint(r testing.BenchmarkResult) allocPoint {
	return allocPoint{
		SecondsPerOp: r.T.Seconds() / float64(r.N),
		AllocsPerOp:  r.AllocsPerOp(),
		BytesPerOp:   r.AllocedBytesPerOp(),
	}
}

// allocCeiling is one entry of alloc_budget.json: the hard upper bound a
// benchmark's per-op allocation profile must stay under.
type allocCeiling struct {
	AllocsPerOp int64 `json:"allocs_per_op"`
	BytesPerOp  int64 `json:"bytes_per_op"`
}

// TestAllocBudget enforces the checked-in allocation ceilings in
// alloc_budget.json: scan→filter→project through the columnar kernels, TPC-H
// Q1 end to end on the pipelined runtime, the served Q3 and Q5 as sql.Compile
// plans them, Q5 again with every join checkpointed to disk, findBestFTPlan
// over Q5's top-20 join orders, and both optimizer phases on the served Q5
// must not allocate past the budget. The ceilings sit ~1.5x over what they
// measure (Q1 0.35 MB / ~380 allocs, SQL Q3 0.56 MB / ~3,900, SQL Q5
// 0.40 MB / ~1,230, checkpointed Q5 7.1 MB / ~2,100, findBestFTPlan 63 kB /
// ~220, sql.FTPlan 156 kB / ~750; Q1's, SQL Q3's and
// scan-filter-project's object counts, small enough or noisy enough to move by
// a handful, keep a wider margin), so a trip means the arena or a kernel lost
// its recycling path, a stage boundary copies its batch again, a join chained
// onto its probe stream materializes its output again (SQL Q5 read 6.4 MB
// before joins chained), an aggregation exchanges every row instead of its
// partials (SQL Q5 read 2.0 MB so) or boxes its groups (SQL Q3 read ~11,800
// allocs so), a wide operator repeats its shared work per
// partition, the planner carries columns nothing reads, or a boxed row is
// back between a stage and the checkpoint store (with one,
// checkpointed Q5 reads 25 MB / ~400,000), or the optimizer builds a plan per
// configuration again (it read 1.11 MB / ~28,700 doing so), copies and
// re-collapses each candidate again (0.20 MB / ~4,560), allocates per
// operator array of a candidate's shape again (73 kB / ~820), or the join
// enumerator and plan construction allocate per candidate, operator and
// edge again (sql.FTPlan read 223 kB / ~2,720 so) — not timing
// noise: allocation figures are deterministic in a way wall time is not.
// Gated behind ALLOC_BUDGET=1 because testing.Benchmark reruns each workload
// until timing stabilizes, which is too slow for the default test sweep.
func TestAllocBudget(t *testing.T) {
	if os.Getenv("ALLOC_BUDGET") == "" {
		t.Skip("set ALLOC_BUDGET=1 to enforce the allocation ceilings")
	}
	data, err := os.ReadFile("alloc_budget.json")
	if err != nil {
		t.Fatal(err)
	}
	var budget map[string]allocCeiling
	if err := json.Unmarshal(data, &budget); err != nil {
		t.Fatal(err)
	}
	measured := map[string]allocPoint{
		"scan_filter_project_columnar": toAllocPoint(testing.Benchmark(func(b *testing.B) {
			benchScanFilterProject(b, true)
		})),
		"pipelined_q1":          toAllocPoint(testing.Benchmark(BenchmarkRuntimePipelinedQ1)),
		"pipelined_q1_progress": toAllocPoint(testing.Benchmark(BenchmarkRuntimePipelinedQ1Progress)),
		"pipelined_q5":          toAllocPoint(testing.Benchmark(BenchmarkRuntimePipelinedQ5)),
		"checkpointed_q5":       toAllocPoint(testing.Benchmark(BenchmarkRuntimeCheckpointedQ5)),
		"pipelined_q3_sql":      toAllocPoint(testing.Benchmark(BenchmarkRuntimePipelinedQ3SQL)),
		"findbest_q5_top20":     toAllocPoint(testing.Benchmark(BenchmarkFindBestFTPlanQ5)),
		"ftplan_q5_top20":       toAllocPoint(testing.Benchmark(BenchmarkFTPlanQ5)),
	}
	for name, ceiling := range budget {
		got, ok := measured[name]
		if !ok {
			t.Errorf("alloc_budget.json names %q but no benchmark measures it", name)
			continue
		}
		t.Logf("%s: %d allocs/op (budget %d), %d B/op (budget %d)",
			name, got.AllocsPerOp, ceiling.AllocsPerOp, got.BytesPerOp, ceiling.BytesPerOp)
		if got.AllocsPerOp > ceiling.AllocsPerOp {
			t.Errorf("%s allocates %d objects/op, over the %d budget — a recycling path regressed",
				name, got.AllocsPerOp, ceiling.AllocsPerOp)
		}
		if got.BytesPerOp > ceiling.BytesPerOp {
			t.Errorf("%s allocates %d B/op, over the %d budget",
				name, got.BytesPerOp, ceiling.BytesPerOp)
		}
	}
	for name := range measured {
		if _, ok := budget[name]; !ok {
			t.Errorf("benchmark %q has no ceiling in alloc_budget.json", name)
		}
	}
}
