package runtime

import (
	"context"
	"fmt"
	"reflect"
	goruntime "runtime"
	"sync"
	"testing"

	"ftpde/internal/engine"
	"ftpde/internal/obs"
	"ftpde/internal/schemes"
)

// The stage hand-off contract: a single-operator stage commits the batch its
// operator returned (possibly a view over table or input storage), every
// partition of a stage attempt is handed the same input results, and a
// recovery is handed new ones exactly when an input partition was replaced.

// tapOp is a wide pass-through operator that records the input results each
// ComputeBatch call was handed — the runtime's side of the contract, seen
// from where an operator stands. As a chain's source it is handed the sides'
// results too. gate, when set, is called after recording with the call's
// partition and how many calls that partition had before.
type tapOp struct {
	name string
	in   engine.Operator
	gate func(part, nth int)

	mu    sync.Mutex
	calls []tapCall
}

type tapCall struct {
	part   int
	inputs []*engine.BatchResult
}

func (o *tapOp) Name() string              { return o.name }
func (o *tapOp) Inputs() []engine.Operator { return []engine.Operator{o.in} }
func (o *tapOp) OutSchema() engine.Schema  { return o.in.OutSchema() }
func (o *tapOp) Materialize() bool         { return false }
func (o *tapOp) Wide() bool                { return true }

func (o *tapOp) Compute(part int, inputs []*engine.PartitionedResult) ([]engine.Row, error) {
	return inputs[0].Parts[part], nil
}

func (o *tapOp) ComputeBatch(part int, inputs []*engine.BatchResult) (*engine.Batch, error) {
	o.mu.Lock()
	nth := len(o.callsOf(part))
	o.calls = append(o.calls, tapCall{part, inputs})
	o.mu.Unlock()
	if o.gate != nil {
		o.gate(part, nth)
	}
	return inputs[0].Parts[part], nil
}

// callsOf returns the recorded calls for one partition, in call order.
func (o *tapOp) callsOf(part int) []tapCall {
	var out []tapCall
	for _, c := range o.calls {
		if c.part == part {
			out = append(out, c)
		}
	}
	return out
}

func handoffTable(t *testing.T, name string, rows, parts int) *engine.Table {
	t.Helper()
	data := make([]engine.Row, rows)
	for i := range data {
		data[i] = engine.Row{int64(i), int64(i % 7), float64(i) / 2}
	}
	schema := engine.Schema{{Name: "k", Type: engine.TypeInt}, {Name: "g", Type: engine.TypeInt}, {Name: "v", Type: engine.TypeFloat}}
	tb, err := engine.NewTable(name, schema, data, parts, 0)
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

// sameStorage reports whether two non-empty vectors share a backing array.
func sameStorage(a, b *engine.Vector) bool {
	switch a.Type {
	case engine.TypeInt:
		return &a.Ints[0] == &b.Ints[0]
	case engine.TypeFloat:
		return &a.Floats[0] == &b.Floats[0]
	default:
		return &a.Strings[0] == &b.Strings[0]
	}
}

func mustExecute(t *testing.T, cfg Config, root engine.Operator) (*engine.PartitionedResult, *engine.Report) {
	t.Helper()
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, rep, err := executeWithin(t, r, context.Background(), root)
	if err != nil {
		t.Fatal(err)
	}
	return res, rep
}

func TestScanStageCommitsTableStorage(t *testing.T) {
	const nodes = 4
	tb := handoffTable(t, "fact", 400, nodes)
	tap := &tapOp{name: "tap", in: engine.NewScan("scan", tb, nil, nil)}
	mustExecute(t, Config{Nodes: nodes}, tap)
	if len(tap.calls) != nodes {
		t.Fatalf("tap computed %d partitions, want %d", len(tap.calls), nodes)
	}
	for p, got := range tap.calls[0].inputs[0].Parts {
		want := tb.ColParts[p]
		if got.Len() != want.Len() {
			t.Fatalf("partition %d: %d rows committed, table holds %d", p, got.Len(), want.Len())
		}
		for c := range want.Cols {
			if !sameStorage(&got.Cols[c], &want.Cols[c]) {
				t.Errorf("partition %d column %d: the committed scan partition is a copy, not the table's storage", p, c)
			}
		}
	}
}

// A scan feeding a global count touches every row and keeps none: with the
// scan stage handing the table's batch over, Execute allocates bookkeeping
// only — far less than one copy of the 3.2 MB the two stages read.
func TestSingleOpStageAllocatesNoCopy(t *testing.T) {
	const nodes, rows = 4, 200000
	tb := handoffTable(t, "fact", rows, nodes)
	root := engine.NewHashAggregate("count", engine.NewScan("scan", tb, nil, []int{0, 2}), nil,
		[]engine.AggSpec{{Kind: engine.AggCount}}, true, engine.Schema{{Name: "n", Type: engine.TypeInt}})
	r, err := New(Config{Nodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	res, _, err := r.Execute(context.Background(), root)
	goruntime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.AllRows(); len(got) != 1 || got[0][0] != int64(rows) {
		t.Fatalf("count = %v, want %d", got, rows)
	}
	const ceiling = 256 << 10
	if got := after.TotalAlloc - before.TotalAlloc; got > ceiling {
		t.Errorf("Execute allocated %d bytes over %d scanned rows, ceiling %d: a stage boundary is copying its batch", got, rows, ceiling)
	}
}

// killPlan is scan → join(dim) → sort, every stage a single operator: the
// probe scan is checkpointed, so the join cannot chain onto it and is a stage
// source. matBuild checkpoints the join's build input too.
func killPlan(t *testing.T, nodes int, matBuild bool) engine.Operator {
	t.Helper()
	fact := handoffTable(t, "fact", 300, nodes)
	dim := handoffTable(t, "dim", 7, nodes)
	build := engine.NewScan("dimscan", dim, nil, []int{0, 2})
	build.SetMaterialize(matBuild)
	probe := engine.NewScan("scan", fact, engine.Cmp{Op: engine.LT, L: engine.Col(2), R: engine.Const{V: 120.0}}, nil)
	probe.SetMaterialize(true)
	join := engine.NewHashJoin("join", build, probe, 0, 1)
	return engine.NewSort("sort", join, 2, true)
}

func TestKillSingleOpStages(t *testing.T) {
	const nodes = 4
	for _, tc := range []struct {
		op         string
		part       int
		recomputed int // partitions fine-grained recovery re-runs: the victim plus its volatile lineage on the node
	}{
		{"scan", 1, 1},
		{"join", 2, 2}, // dimscan/2, join/2
		{"sort", 0, 3}, // dimscan/0, join/0, sort/0
	} {
		for _, recovery := range []schemes.Recovery{schemes.FineGrained, schemes.CoarseRestart} {
			t.Run(fmt.Sprintf("%s/%v", tc.op, recovery), func(t *testing.T) {
				root := killPlan(t, nodes, false)
				co := &engine.Coordinator{Nodes: nodes, Coarse: recovery == schemes.CoarseRestart,
					Injector: engine.NewScriptedFailures().Add(tc.op, tc.part, 0)}
				want, wantRep, err := co.Execute(root)
				if err != nil {
					t.Fatal(err)
				}
				tracer := obs.NewTracer(obs.DefaultCapacity)
				m := &Metrics{}
				got, rep := mustExecute(t, Config{Nodes: nodes, Recovery: recovery, Tracer: tracer, Metrics: m,
					Injector: engine.NewScriptedFailures().Add(tc.op, tc.part, 0)}, root)
				if !reflect.DeepEqual(got.Parts, want.Parts) {
					t.Errorf("rows differ from the oracle's (%d vs %d)", len(got.AllRows()), len(want.AllRows()))
				}
				if rep.Failures != 1 || rep.Failures != wantRep.Failures || rep.Restarts != wantRep.Restarts {
					t.Errorf("report %+v, oracle %+v, want one failure", *rep, *wantRep)
				}
				if recovery == schemes.FineGrained && rep.RecomputedPartitions != tc.recomputed {
					t.Errorf("recomputed %d partitions, want %d", rep.RecomputedPartitions, tc.recomputed)
				}
				var failures, answers int
				for _, sp := range tracer.Snapshot() {
					switch sp.Kind {
					case obs.KindFailure:
						failures++
						if sp.Name != tc.op || sp.Part != tc.part || sp.Attempt != 0 {
							t.Errorf("failure event %s/%d attempt %d, want %s/%d attempt 0", sp.Name, sp.Part, sp.Attempt, tc.op, tc.part)
						}
					case obs.KindRecovery, obs.KindRestart:
						answers++
						if sp.Name != tc.op || sp.Part != tc.part {
							t.Errorf("%v for %s/%d, want %s/%d", sp.Kind, sp.Name, sp.Part, tc.op, tc.part)
						}
					}
				}
				if failures != 1 || answers != 1 {
					t.Errorf("%d failure events answered by %d recoveries/restarts, want 1 and 1", failures, answers)
				}
				led := m.Ledger().Snapshot()
				if led.Failures != 1 || led.Unresolved != 0 {
					t.Errorf("ledger inconsistent: %s", led.String())
				}
			})
		}
	}
}

// A materialized scan with a predicate commits a view — the table's columns
// under a selection vector. The checkpoint must hold the selected rows only,
// and a second run must restore exactly those.
func TestMaterializedViewCheckpointsSelectedRows(t *testing.T) {
	const nodes = 3
	tb := handoffTable(t, "fact", 200, nodes)
	plan := func() engine.Operator {
		scan := engine.NewScan("scan", tb, engine.Cmp{Op: engine.EQ, L: engine.Col(1), R: engine.Const{V: int64(3)}}, []int{0, 1})
		scan.SetMaterialize(true)
		return engine.NewSort("sort", scan, 0, false)
	}
	want, _, err := (&engine.Coordinator{Nodes: nodes}).Execute(plan())
	if err != nil {
		t.Fatal(err)
	}
	store := engine.NewMatStore()
	got, rep := mustExecute(t, Config{Nodes: nodes, Store: store}, plan())
	if !reflect.DeepEqual(got.Parts, want.Parts) {
		t.Fatalf("rows differ from the oracle's")
	}
	if rep.MaterializedPartitions == 0 {
		t.Fatal("nothing checkpointed")
	}
	for p := 0; p < nodes; p++ {
		stored, _ := store.Get("scan", p)
		if len(stored) >= len(tb.Parts[p]) {
			t.Errorf("partition %d: checkpoint holds %d rows of a %d-row table partition, want the selected ones only", p, len(stored), len(tb.Parts[p]))
		}
		for _, r := range stored {
			if len(r) != 2 || r[1] != int64(3) {
				t.Fatalf("partition %d: checkpointed row %v is not a selected, projected row", p, r)
			}
		}
	}
	again, rep2 := mustExecute(t, Config{Nodes: nodes, Store: store}, plan())
	if rep2.MaterializedPartitions != 0 {
		t.Errorf("second run re-materialized %d partitions, want a restore", rep2.MaterializedPartitions)
	}
	if !reflect.DeepEqual(again.Parts, want.Parts) {
		t.Errorf("restored rows differ from the oracle's")
	}
}

// A killed join partition re-probes the surviving build side when the build
// input is checkpointed, and rebuilds it when the kill took a volatile build
// partition with it; either way the rows are the oracle's.
func TestJoinRecoveryReprobesOrRebuilds(t *testing.T) {
	const nodes = 4
	for _, matBuild := range []bool{true, false} {
		t.Run(fmt.Sprintf("buildCheckpointed=%v", matBuild), func(t *testing.T) {
			plan := func() engine.Operator { return killPlan(t, nodes, matBuild) }
			want, wantRep, err := (&engine.Coordinator{Nodes: nodes,
				Injector: engine.NewScriptedFailures().Add("join", 1, 0)}).Execute(plan())
			if err != nil {
				t.Fatal(err)
			}
			for _, batch := range []int{3, 256} {
				got, rep := mustExecute(t, Config{Nodes: nodes, BatchSize: batch,
					Injector: engine.NewScriptedFailures().Add("join", 1, 0)}, plan())
				if !reflect.DeepEqual(got.Parts, want.Parts) {
					t.Errorf("batch=%d: rows differ from the oracle's", batch)
				}
				if rep.Failures != wantRep.Failures {
					t.Errorf("batch=%d: %d failures, oracle %d", batch, rep.Failures, wantRep.Failures)
				}
			}
		})
	}
}

// A chained join's build side is a side of its stage: when a failure takes a
// volatile build partition with the node, the retried partition is handed a
// new build result — whose hash index is built afresh — while a partition
// already running keeps probing the old one, which nothing writes.
func TestChainedJoinRecoveryRebuildsItsSide(t *testing.T) {
	const nodes = 4
	started0, release := make(chan struct{}), make(chan struct{})
	tap := &tapOp{name: "tap", in: engine.NewScan("scan", handoffTable(t, "fact", 400, nodes), nil, nil),
		gate: func(part, nth int) {
			switch {
			case part == 0:
				close(started0)
				<-release // running across partition 1's failure and recovery
			case part == 1 && nth == 0:
				<-started0
			case part == 1 && nth == 1:
				close(release) // partition 1's retry has its inputs
			}
		}}
	dim := engine.NewScan("dimscan", handoffTable(t, "dim", 7, nodes), nil, nil)
	root := engine.NewHashJoin("join", dim, tap, 0, 1) // chains onto tap's stage
	kill := func() engine.FailureInjector { return engine.NewScriptedFailures().Add("join", 1, 0) }

	want, _, err := (&engine.Coordinator{Nodes: nodes, Injector: kill()}).Execute(root)
	if err != nil {
		t.Fatal(err)
	}
	got, rep := mustExecute(t, Config{Nodes: nodes, MaxWorkers: 2, Injector: kill()}, root)
	if !reflect.DeepEqual(got.Parts, want.Parts) {
		t.Fatal("rows differ from the oracle's")
	}
	if rep.Failures != 1 || rep.RecomputedPartitions != 3 { // scan/1, dimscan/1, the chain's partition 1
		t.Errorf("report %+v, want one failure and three recomputed partitions", *rep)
	}
	side := func(c tapCall) *engine.BatchResult { return c.inputs[len(c.inputs)-1] }
	p0, p1 := tap.callsOf(0), tap.callsOf(1)
	if len(p0) != 1 || len(p1) != 2 {
		t.Fatalf("partition 0 computed %d times, partition 1 %d times; want 1 and 2", len(p0), len(p1))
	}
	if n := len(p1[0].inputs); n != 2 {
		t.Fatalf("the chain's source was handed %d inputs, want its own plus one side", n)
	}
	if side(p1[1]) == side(p1[0]) {
		t.Error("the failure dropped a volatile build partition, but the retry was handed the old build result")
	}
	if side(p0[0]) != side(p1[0]) {
		t.Error("partition 0 ran across the recovery but was not handed the build result partition 1 first saw")
	}
}

// What a wide operator's partitions share hangs off the input result they are
// handed, so the runtime hands all of them the same one — and a recovery gets
// a new one exactly when the failure replaced a partition of that input.
func TestWideStageSharesOneInputResult(t *testing.T) {
	const nodes = 4
	run := func(matInput bool, inj engine.FailureInjector) []tapCall {
		tb := handoffTable(t, "fact", 400, nodes)
		scan := engine.NewScan("scan", tb, nil, nil)
		scan.SetMaterialize(matInput)
		tap := &tapOp{name: "tap", in: scan}
		mustExecute(t, Config{Nodes: nodes, Injector: inj}, tap)
		return tap.calls
	}

	clean := run(false, nil)
	if len(clean) != nodes {
		t.Fatalf("clean run computed %d partitions, want %d", len(clean), nodes)
	}
	for _, c := range clean {
		if c.inputs[0] != clean[0].inputs[0] {
			t.Fatalf("clean run: partitions %d and %d were handed different input results", clean[0].part, c.part)
		}
	}

	kill := func() engine.FailureInjector { return engine.NewScriptedFailures().Add("tap", 1, 0) }
	survived := run(true, kill())
	if len(survived) != nodes+1 {
		t.Fatalf("killed run computed %d partitions, want %d", len(survived), nodes+1)
	}
	for _, c := range survived {
		if c.inputs[0] != survived[0].inputs[0] {
			t.Errorf("checkpointed input survived the kill, but partition %d was handed a new input result", c.part)
		}
	}

	// The volatile input loses partition 1 with the node, so the retry of
	// partition 1 must be handed a result holding the recomputed partition.
	lost := run(false, kill())
	var attempts []*engine.BatchResult
	for _, c := range lost {
		if c.part == 1 {
			attempts = append(attempts, c.inputs[0])
		}
	}
	if len(lost) != nodes+1 || len(attempts) != 2 {
		t.Fatalf("killed run computed %d partitions (%d of them partition 1), want %d (2)", len(lost), len(attempts), nodes+1)
	}
	if attempts[0] == attempts[1] {
		t.Error("input partition 1 was dropped and recomputed, but the retry was handed the old input result")
	}
}
