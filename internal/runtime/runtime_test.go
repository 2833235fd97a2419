package runtime

import (
	"context"
	"errors"
	"fmt"
	goruntime "runtime"
	"sync/atomic"
	"testing"

	"ftpde/internal/engine"
	"ftpde/internal/schemes"
)

// testPipeline builds scan -> select -> join(dim) -> global agg over a small
// fact table (the same shape as the staged engine's recovery tests), with
// the join optionally materialized.
func testPipeline(t *testing.T, parts int, matJoin bool) engine.Operator {
	t.Helper()
	factRows := make([]engine.Row, 100)
	for i := range factRows {
		factRows[i] = engine.Row{int64(i % 10), float64(i)}
	}
	schema := engine.Schema{{Name: "k", Type: engine.TypeInt}, {Name: "v", Type: engine.TypeFloat}}
	fact, err := engine.NewTable("fact", schema, factRows, parts, 0)
	if err != nil {
		t.Fatal(err)
	}
	dim, err := engine.NewTable("dim",
		engine.Schema{{Name: "id", Type: engine.TypeInt}, {Name: "w", Type: engine.TypeFloat}},
		[]engine.Row{{int64(0), 2.0}, {int64(1), 3.0}, {int64(2), 4.0}}, parts, 0)
	if err != nil {
		t.Fatal(err)
	}

	scan := engine.NewScan("scan", fact, nil, nil)
	sel := engine.NewSelect("sel", scan, engine.Cmp{Op: engine.LT, L: engine.Col(0), R: engine.Const{V: int64(5)}})
	build := engine.NewScan("dimscan", dim, nil, nil)
	join := engine.NewHashJoin("join", build, sel, 0, 0)
	if matJoin {
		join.SetMaterialize(true)
	}
	return engine.NewHashAggregate("agg", join, nil,
		[]engine.AggSpec{{Kind: engine.AggSum, Col: 1}, {Kind: engine.AggCount}},
		true, engine.Schema{{Name: "sum", Type: engine.TypeFloat}, {Name: "cnt", Type: engine.TypeInt}})
}

func runQuery(t *testing.T, root engine.Operator, cfg Config) (float64, int64, *engine.Report) {
	t.Helper()
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, rep, err := executeWithin(t, r, context.Background(), root)
	if err != nil {
		t.Fatal(err)
	}
	rows := res.AllRows()
	if len(rows) != 1 {
		t.Fatalf("expected a single aggregate row, got %d", len(rows))
	}
	return rows[0][0].(float64), rows[0][1].(int64), rep
}

func TestPipelinedMatchesStagedClean(t *testing.T) {
	// Ground truth from the staged engine.
	co := &engine.Coordinator{Nodes: 4}
	sres, _, err := co.Execute(testPipeline(t, 4, false))
	if err != nil {
		t.Fatal(err)
	}
	wantSum := sres.AllRows()[0][0].(float64)
	wantCnt := sres.AllRows()[0][1].(int64)

	for _, batch := range []int{1, 3, 256} {
		sum, cnt, rep := runQuery(t, testPipeline(t, 4, false), Config{Nodes: 4, BatchSize: batch})
		if sum != wantSum || cnt != wantCnt {
			t.Errorf("batch=%d: pipelined (%g,%d) != staged (%g,%d)", batch, sum, cnt, wantSum, wantCnt)
		}
		if rep.Failures != 0 {
			t.Errorf("batch=%d: clean run reported failures", batch)
		}
	}
}

func TestRecoveryProducesSameResult(t *testing.T) {
	wantSum, wantCnt, cleanRep := runQuery(t, testPipeline(t, 4, false), Config{Nodes: 4})
	if cleanRep.Failures != 0 {
		t.Fatal("clean run reported failures")
	}

	inj := engine.NewScriptedFailures().Add("join", 2, 0)
	sum, cnt, rep := runQuery(t, testPipeline(t, 4, false), Config{Nodes: 4, Injector: inj})
	if sum != wantSum || cnt != wantCnt {
		t.Errorf("failed run result (%g,%d) != clean (%g,%d)", sum, cnt, wantSum, wantCnt)
	}
	if rep.Failures != 1 {
		t.Errorf("failures = %d, want 1", rep.Failures)
	}
	if rep.RecomputedPartitions == 0 {
		t.Error("no lineage recomputation recorded")
	}
}

func TestMaterializationLimitsRecomputation(t *testing.T) {
	injA := engine.NewScriptedFailures().Add("agg", 0, 0)
	sumA, cntA, repA := runQuery(t, testPipeline(t, 4, true), Config{Nodes: 4, Injector: injA})

	injB := engine.NewScriptedFailures().Add("agg", 0, 0)
	sumB, cntB, repB := runQuery(t, testPipeline(t, 4, false), Config{Nodes: 4, Injector: injB})

	if sumA != sumB || cntA != cntB {
		t.Errorf("materialized vs volatile results differ: (%g,%d) vs (%g,%d)", sumA, cntA, sumB, cntB)
	}
	// agg is wide: without materialization, the lost node's join/sel/scan
	// lineage must be recomputed; with the join checkpointed only agg re-runs.
	if repA.RecomputedPartitions >= repB.RecomputedPartitions {
		t.Errorf("materialization did not reduce recomputation: %d >= %d",
			repA.RecomputedPartitions, repB.RecomputedPartitions)
	}
	if repA.MaterializedPartitions == 0 {
		t.Error("no partitions materialized despite flag")
	}
}

func TestRepeatedFailuresSamePartition(t *testing.T) {
	inj := engine.NewScriptedFailures().
		Add("join", 1, 0).
		Add("join", 1, 1).
		Add("join", 1, 2)
	sum, cnt, rep := runQuery(t, testPipeline(t, 4, false), Config{Nodes: 4, Injector: inj})
	wantSum, wantCnt, _ := runQuery(t, testPipeline(t, 4, false), Config{Nodes: 4})
	if sum != wantSum || cnt != wantCnt {
		t.Error("result corrupted by repeated failures")
	}
	if rep.Failures != 3 {
		t.Errorf("failures = %d, want 3", rep.Failures)
	}
}

func TestFailureDuringRecoveryOfUpstream(t *testing.T) {
	// Fail the agg first; during its recovery the re-run of the lost join
	// partition fails too.
	inj := engine.NewScriptedFailures().
		Add("agg", 0, 0).
		Add("join", 0, 1)
	sum, cnt, rep := runQuery(t, testPipeline(t, 4, false), Config{Nodes: 4, Injector: inj})
	wantSum, wantCnt, _ := runQuery(t, testPipeline(t, 4, false), Config{Nodes: 4})
	if sum != wantSum || cnt != wantCnt {
		t.Error("nested-failure result incorrect")
	}
	if rep.Failures < 2 {
		t.Errorf("failures = %d, want >= 2", rep.Failures)
	}
}

func TestFailureInChainedOperator(t *testing.T) {
	// "sel" is a chained pipeline operator (mid-stage, not a source): a
	// scripted failure there must kill the whole stage partition mid-stream
	// and recover it.
	inj := engine.NewScriptedFailures().Add("sel", 1, 0)
	sum, cnt, rep := runQuery(t, testPipeline(t, 4, false),
		Config{Nodes: 4, Injector: inj, BatchSize: 4})
	wantSum, wantCnt, _ := runQuery(t, testPipeline(t, 4, false), Config{Nodes: 4})
	if sum != wantSum || cnt != wantCnt {
		t.Error("chained-operator failure corrupted the result")
	}
	if rep.Failures != 1 {
		t.Errorf("failures = %d, want 1", rep.Failures)
	}
}

func TestCoarseRestartRecovery(t *testing.T) {
	inj := engine.NewScriptedFailures().Add("join", 2, 0)
	sum, cnt, rep := runQuery(t, testPipeline(t, 4, false),
		Config{Nodes: 4, Injector: inj, Recovery: schemes.CoarseRestart})
	wantSum, wantCnt, _ := runQuery(t, testPipeline(t, 4, false), Config{Nodes: 4})
	if sum != wantSum || cnt != wantCnt {
		t.Error("coarse restart produced wrong result")
	}
	if rep.Restarts != 1 {
		t.Errorf("restarts = %d, want 1", rep.Restarts)
	}
}

func TestCoarseRestartAborts(t *testing.T) {
	inj := engine.NewScriptedFailures()
	for attempt := 0; attempt < 50; attempt++ {
		inj.Add("join", 0, attempt) // fail every attempt: query can never finish
	}
	r, err := New(Config{Nodes: 2, Injector: inj, Recovery: schemes.CoarseRestart, MaxRestarts: 5})
	if err != nil {
		t.Fatal(err)
	}
	_, rep, err := executeWithin(t, r, context.Background(), testPipeline(t, 2, false))
	if err == nil {
		t.Fatal("expected abort error")
	}
	if !rep.Aborted {
		t.Error("report not marked aborted")
	}
	if rep.Restarts != 6 {
		t.Errorf("restarts = %d, want 6 (MaxRestarts+1)", rep.Restarts)
	}
}

func TestDiskStoreResume(t *testing.T) {
	// First run materializes the join to disk; a second runtime over the
	// same directory restores it instead of recomputing.
	dir := t.TempDir()
	store, err := engine.NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	wantSum, wantCnt, rep := runQuery(t, testPipeline(t, 4, true), Config{Nodes: 4, Store: store})
	if rep.MaterializedPartitions == 0 {
		t.Fatal("nothing checkpointed to disk")
	}
	if err := store.Err(); err != nil {
		t.Fatal(err)
	}

	store2, err := engine.NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	sum2, cnt2, rep2 := runQuery(t, testPipeline(t, 4, true), Config{Nodes: 4, Store: store2})
	if sum2 != wantSum || cnt2 != wantCnt {
		t.Error("resumed run produced a different result")
	}
	if rep2.MaterializedPartitions != 0 {
		t.Errorf("resumed run re-materialized %d partitions, want 0 (served from disk)", rep2.MaterializedPartitions)
	}
}

func TestMetricsCounters(t *testing.T) {
	m := &Metrics{}
	inj := engine.NewScriptedFailures().Add("join", 1, 0)
	_, _, rep := runQuery(t, testPipeline(t, 4, true),
		Config{Nodes: 4, Injector: inj, Metrics: m, BatchSize: 8})
	snap := m.Snapshot()
	if snap.Batches == 0 || snap.Rows == 0 {
		t.Errorf("no batch/row flow recorded: %+v", snap)
	}
	if snap.Failures != int64(rep.Failures) {
		t.Errorf("metrics failures %d != report %d", snap.Failures, rep.Failures)
	}
	if snap.CheckpointParts == 0 || snap.CheckpointBytes == 0 {
		t.Errorf("checkpoint counters empty: %+v", snap)
	}
	if snap.Recoveries == 0 {
		t.Error("no recoveries counted")
	}
	if len(snap.Stages) == 0 {
		t.Error("no per-stage wall time recorded")
	}
	if snap.String() == "" {
		t.Error("empty snapshot rendering")
	}
}

func TestContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r, err := New(Config{Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := executeWithin(t, r, ctx, testPipeline(t, 4, false)); err == nil {
		t.Fatal("expected error from cancelled context")
	}
}

// cancelAt is a FailureInjector that kills where its script says and cancels
// the query from inside FailCompute at one (op, part, attempt): the cut point
// is a fixed position in the partition loop, not a timer.
type cancelAt struct {
	script  *engine.ScriptedFailures
	op      string
	part    int
	attempt int
	cancel  context.CancelFunc
	fired   atomic.Bool
}

func (c *cancelAt) FailCompute(op string, part, attempt int) bool {
	if op == c.op && part == c.part && attempt == c.attempt {
		c.fired.Store(true)
		c.cancel()
	}
	return c.script.FailCompute(op, part, attempt)
}

// TestCancelMidQueryTerminates: a query cancelled before it starts, while a
// stage runs, during a fine recovery or during a coarse restart returns the
// context's error within a deadline, leaves no goroutine behind, and writes
// nothing to the store after Execute has returned. The materialized join keeps
// checkpoint writes in flight at the cut.
func TestCancelMidQueryTerminates(t *testing.T) {
	for _, row := range []struct {
		name     string
		kill     bool // kill join/2 on its first attempt
		attempt  int  // cancel on this attempt of join/2; -1 cancels before Execute
		recovery schemes.Recovery
	}{
		{"pre-cancelled", false, -1, schemes.FineGrained},
		{"first attempt, mid-stage", false, 0, schemes.FineGrained},
		{"fine recovery, attempt 1", true, 1, schemes.FineGrained},
		{"coarse restart", true, 1, schemes.CoarseRestart},
	} {
		t.Run(row.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			inj := &cancelAt{script: engine.NewScriptedFailures(), op: "join", part: 2, attempt: row.attempt, cancel: cancel}
			if row.kill {
				inj.script.Add("join", 2, 0)
			}
			if row.attempt < 0 {
				cancel()
			}
			store := &countingStore{MatStore: engine.NewMatStore(), groups: map[string][]int{}}
			written := func() string {
				store.mu.Lock()
				defer store.mu.Unlock()
				return fmt.Sprint(store.groups)
			}
			r, err := New(Config{Nodes: 4, Store: store, Injector: inj, Recovery: row.recovery, MaxRestarts: 1})
			if err != nil {
				t.Fatal(err)
			}
			root := testPipeline(t, 4, true)
			before := goruntime.NumGoroutine()
			res, rep, err := executeWithin(t, r, ctx, root)
			atReturn := written()
			if !errors.Is(err, context.Canceled) || res != nil {
				t.Fatalf("Execute = (%v, %v), want no result and context.Canceled", res, err)
			}
			if row.attempt >= 0 && !inj.fired.Load() {
				t.Fatalf("join/2 never reached attempt %d", row.attempt)
			}
			if row.kill && rep.Failures == 0 {
				t.Error("the kill before the cancel did not fire")
			}
			if row.recovery == schemes.CoarseRestart && rep.Restarts != 1 {
				t.Errorf("restarts = %d, want 1", rep.Restarts)
			}
			waitForGoroutines(t, before, row.name)
			if got := written(); got != atReturn {
				t.Errorf("store written after Execute returned: %s, then %s", atReturn, got)
			}
		})
	}
}

func TestBoundedWorkerPool(t *testing.T) {
	// MaxWorkers=1 must still complete (no deadlock between the pool and
	// pipeline goroutines or recovery).
	inj := engine.NewScriptedFailures().Add("join", 0, 0)
	sum, cnt, _ := runQuery(t, testPipeline(t, 4, false),
		Config{Nodes: 4, MaxWorkers: 1, Injector: inj})
	wantSum, wantCnt, _ := runQuery(t, testPipeline(t, 4, false), Config{Nodes: 4})
	if sum != wantSum || cnt != wantCnt {
		t.Error("single-worker run produced wrong result")
	}
}

func TestExecuteRejectsNonColumnarPlan(t *testing.T) {
	// A plain-int constant has no vector type, so the projection cannot run
	// on typed columns: Execute must refuse the whole plan up front — no
	// result, no checkpoint (the scan below it is a materialization point),
	// no goroutine left behind.
	tb, err := engine.NewTable("t", engine.Schema{{Name: "k", Type: engine.TypeInt}},
		[]engine.Row{{int64(1)}, {int64(2)}, {int64(3)}}, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	scan := engine.NewScan("scan", tb, nil, nil)
	scan.SetMaterialize(true)
	ex := engine.NewExchange("ex", scan, 0)
	proj := engine.NewProject("proj", ex, []engine.Expr{engine.Const{V: 3}},
		engine.Schema{{Name: "three", Type: engine.TypeInt}})

	store := &countingStore{MatStore: engine.NewMatStore(), groups: map[string][]int{}}
	r, err := New(Config{Nodes: 2, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	before := goruntime.NumGoroutine()
	res, _, err := r.Execute(context.Background(), proj)
	if !errors.Is(err, engine.ErrNotColumnar) {
		t.Fatalf("Execute error = %v, want ErrNotColumnar", err)
	}
	if res != nil {
		t.Errorf("Execute returned a result alongside the error: %v", res.Parts)
	}
	if len(store.groups) != 0 {
		t.Errorf("%d operators checkpointed by a refused plan", len(store.groups))
	}
	waitForGoroutines(t, before, "refused plan")
}

func TestAggregateOutputMustFitSchema(t *testing.T) {
	// SUM yields float64; a schema declaring the column int cannot hold it,
	// and the query fails rather than degrade to untyped rows.
	tb, err := engine.NewTable("t", engine.Schema{{Name: "v", Type: engine.TypeFloat}},
		[]engine.Row{{1.5}, {2.5}}, 2, -1)
	if err != nil {
		t.Fatal(err)
	}
	agg := engine.NewHashAggregate("agg", engine.NewScan("scan", tb, nil, nil), nil,
		[]engine.AggSpec{{Kind: engine.AggSum, Col: 0}}, true, engine.Schema{{Name: "sum", Type: engine.TypeInt}})
	r, err := New(Config{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res, _, err := r.Execute(context.Background(), agg); !errors.Is(err, engine.ErrNotColumnar) || res != nil {
		t.Fatalf("Execute = (%v, %v), want no result and ErrNotColumnar", res, err)
	}
}

// A block of the stage's width with one column of another type (the same
// operator name under another plan) is a checkpoint miss: that partition alone
// is recomputed and rewritten, and the rows are the clean run's.
func TestRetypedCheckpointColumnIsAMiss(t *testing.T) {
	store, err := engine.NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	wantSum, wantCnt, rep := runQuery(t, testPipeline(t, 4, true), Config{Nodes: 4, Store: store})
	if rep.MaterializedPartitions != 4 {
		t.Fatalf("first run materialized %d partitions, want 4", rep.MaterializedPartitions)
	}
	victim, rows := -1, []engine.Row(nil)
	for part := 0; part < 4 && len(rows) == 0; part++ {
		victim = part
		rows, _ = store.Get("join", part)
	}
	if len(rows) == 0 {
		t.Fatal("no join partition holds a row")
	}
	for _, r := range rows {
		r[3] = int64(r[3].(float64)) // the join emits (int, float, int, float)
	}
	if err := store.Put("join", victim, rows, 4); err != nil {
		t.Fatal(err)
	}
	for run, wantMat := range []int{1, 0} {
		sum, cnt, rep := runQuery(t, testPipeline(t, 4, true), Config{Nodes: 4, Store: store})
		if sum != wantSum || cnt != wantCnt {
			t.Errorf("run %d over the retyped block = (%v, %d), clean run = (%v, %d)", run, sum, cnt, wantSum, wantCnt)
		}
		if rep.MaterializedPartitions != wantMat {
			t.Errorf("run %d re-materialized %d partitions, want %d", run, rep.MaterializedPartitions, wantMat)
		}
	}
}

func TestMistypedCheckpointIsAMiss(t *testing.T) {
	// A store holding rows that do not fit the stage schema (another query's
	// output under the same name, a stale format) is a checkpoint miss: the
	// partition is recomputed and the checkpoint rewritten.
	wantSum, wantCnt, _ := runQuery(t, testPipeline(t, 4, true), Config{Nodes: 4})

	store := engine.NewMatStore()
	for part, rows := range [][]engine.Row{
		{{"not", "the", "join", "schema"}},    // wrong types
		{{int64(1), 2.0}},                     // too narrow
		{{1, 2.0, 1, 2.0}},                    // plain ints
		{{int64(1), 2.0, int64(1), nil}, nil}, // nil value, nil row
	} {
		if err := store.Put("join", part, rows, 4); err != nil {
			t.Fatal(err)
		}
	}
	sum, cnt, rep := runQuery(t, testPipeline(t, 4, true), Config{Nodes: 4, Store: store})
	if sum != wantSum || cnt != wantCnt {
		t.Errorf("result over mistyped checkpoints = (%v, %d), clean run = (%v, %d)", sum, cnt, wantSum, wantCnt)
	}
	if rep.MaterializedPartitions != 4 {
		t.Errorf("re-materialized %d partitions, want all 4", rep.MaterializedPartitions)
	}
}
