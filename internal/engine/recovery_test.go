package engine

import (
	"reflect"
	"sort"
	"testing"
)

// pipeline builds scan -> select -> join(dim) -> global agg over a small
// fact table, with the join optionally materialized.
func pipeline(t *testing.T, parts int, matJoin bool) (Operator, *Coordinator) {
	t.Helper()
	factRows := make([]Row, 100)
	for i := range factRows {
		factRows[i] = Row{int64(i % 10), float64(i)}
	}
	fact := mustTable(t, "fact", kvSchema(), factRows, parts, 0)
	dim := mustTable(t, "dim",
		Schema{{Name: "id", Type: TypeInt}, {Name: "w", Type: TypeFloat}},
		[]Row{{int64(0), 2.0}, {int64(1), 3.0}, {int64(2), 4.0}}, parts, 0)

	scan := NewScan("scan", fact, nil, nil)
	sel := NewSelect("sel", scan, Cmp{Op: LT, L: Col(0), R: Const{V: int64(5)}})
	build := NewScan("dimscan", dim, nil, nil)
	join := NewHashJoin("join", build, sel, 0, 0)
	if matJoin {
		join.SetMaterialize(true)
	}
	agg := NewHashAggregate("agg", join, nil, []AggSpec{{Kind: AggSum, Col: 1}, {Kind: AggCount}},
		true, Schema{{Name: "sum", Type: TypeFloat}, {Name: "cnt", Type: TypeInt}})
	return agg, &Coordinator{Nodes: parts}
}

func runPipeline(t *testing.T, root Operator, co *Coordinator) (float64, int64, *Report) {
	t.Helper()
	res, rep, err := co.Execute(root)
	if err != nil {
		t.Fatal(err)
	}
	rows := res.AllRows()
	if len(rows) != 1 {
		t.Fatalf("expected a single aggregate row, got %d", len(rows))
	}
	return rows[0][0].(float64), rows[0][1].(int64), rep
}

func TestRecoveryProducesSameResult(t *testing.T) {
	// Ground truth without failures.
	root, co := pipeline(t, 4, false)
	wantSum, wantCnt, cleanRep := runPipeline(t, root, co)
	if cleanRep.Failures != 0 {
		t.Fatal("clean run reported failures")
	}

	// Inject a failure on the join's partition 2, first attempt.
	root2, co2 := pipeline(t, 4, false)
	co2.Injector = NewScriptedFailures().Add("join", 2, 0)
	sum, cnt, rep := runPipeline(t, root2, co2)
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
	// With the join materialized, a failure in the aggregation must restore
	// the join partitions from the FT store instead of recomputing the whole
	// lineage.
	rootA, coA := pipeline(t, 4, true)
	coA.Injector = NewScriptedFailures().Add("agg", 0, 0)
	sumA, cntA, repA := runPipeline(t, rootA, coA)

	rootB, coB := pipeline(t, 4, false)
	coB.Injector = NewScriptedFailures().Add("agg", 0, 0)
	sumB, cntB, repB := runPipeline(t, rootB, coB)

	if sumA != sumB || cntA != cntB {
		t.Errorf("materialized vs volatile results differ: (%g,%d) vs (%g,%d)", sumA, cntA, sumB, cntB)
	}
	// agg is wide: without materialization, the lost node's join/sel/scan
	// partitions must be recomputed; with materialization only agg re-runs.
	if repA.RecomputedPartitions >= repB.RecomputedPartitions {
		t.Errorf("materialization did not reduce recomputation: %d >= %d",
			repA.RecomputedPartitions, repB.RecomputedPartitions)
	}
	if repA.MaterializedPartitions == 0 {
		t.Error("no partitions materialized despite flag")
	}
}

func TestRepeatedFailuresSamePartition(t *testing.T) {
	root, co := pipeline(t, 4, false)
	co.Injector = NewScriptedFailures().
		Add("join", 1, 0).
		Add("join", 1, 1).
		Add("join", 1, 2)
	sum, cnt, rep := runPipeline(t, root, co)

	rootClean, coClean := pipeline(t, 4, false)
	wantSum, wantCnt, _ := runPipeline(t, rootClean, coClean)
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
	root, co := pipeline(t, 4, false)
	co.Injector = NewScriptedFailures().
		Add("agg", 0, 0).
		Add("join", 0, 1) // second attempt of join partition 0 (recovery)
	sum, cnt, rep := runPipeline(t, root, co)
	rootClean, coClean := pipeline(t, 4, false)
	wantSum, wantCnt, _ := runPipeline(t, rootClean, coClean)
	if sum != wantSum || cnt != wantCnt {
		t.Error("nested-failure result incorrect")
	}
	if rep.Failures < 2 {
		t.Errorf("failures = %d, want >= 2", rep.Failures)
	}
}

func TestCoarseRestartRecovery(t *testing.T) {
	root, co := pipeline(t, 4, false)
	co.Coarse = true
	co.Injector = NewScriptedFailures().Add("join", 2, 0)
	sum, cnt, rep := runPipeline(t, root, co)
	rootClean, coClean := pipeline(t, 4, false)
	wantSum, wantCnt, _ := runPipeline(t, rootClean, coClean)
	if sum != wantSum || cnt != wantCnt {
		t.Error("coarse restart produced wrong result")
	}
	if rep.Restarts != 1 {
		t.Errorf("restarts = %d, want 1", rep.Restarts)
	}
}

func TestCoarseRestartAborts(t *testing.T) {
	root, co := pipeline(t, 2, false)
	co.Coarse = true
	co.MaxRestarts = 5
	inj := NewScriptedFailures()
	for attempt := 0; attempt < 50; attempt++ {
		inj.Add("join", 0, attempt) // fail every attempt: query can never finish
	}
	co.Injector = inj
	_, rep, err := co.Execute(root)
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

func TestExchangeRecovery(t *testing.T) {
	// Wide operator recovery: losing one node's exchange output requires all
	// upstream partitions again.
	tb := mustTable(t, "t", kvSchema(), kvRows(50), 4, -1)
	scan := NewScan("scan", tb, nil, nil)
	ex := NewExchange("ex", scan, 0)
	agg := NewHashAggregate("agg", ex, []int{0}, []AggSpec{{Kind: AggCount}},
		false, Schema{{Name: "k", Type: TypeInt}, {Name: "cnt", Type: TypeInt}})

	clean := &Coordinator{Nodes: 4}
	cleanRes, _, err := clean.Execute(agg)
	if err != nil {
		t.Fatal(err)
	}

	tb2 := mustTable(t, "t", kvSchema(), kvRows(50), 4, -1)
	scan2 := NewScan("scan", tb2, nil, nil)
	ex2 := NewExchange("ex", scan2, 0)
	agg2 := NewHashAggregate("agg", ex2, []int{0}, []AggSpec{{Kind: AggCount}},
		false, Schema{{Name: "k", Type: TypeInt}, {Name: "cnt", Type: TypeInt}})
	co := &Coordinator{Nodes: 4, Injector: NewScriptedFailures().Add("ex", 3, 0)}
	res, rep, err := co.Execute(agg2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failures != 1 {
		t.Errorf("failures = %d, want 1", rep.Failures)
	}
	if !sameRows(cleanRes.AllRows(), res.AllRows()) {
		t.Error("exchange recovery changed the result")
	}
}

func sameRows(a, b []Row) bool {
	if len(a) != len(b) {
		return false
	}
	key := func(r Row) string {
		s := ""
		for _, v := range r {
			s += reflect.TypeOf(v).String() + ":"
			s += sortableString(v) + "|"
		}
		return s
	}
	ka := make([]string, len(a))
	kb := make([]string, len(b))
	for i := range a {
		ka[i] = key(a[i])
		kb[i] = key(b[i])
	}
	sort.Strings(ka)
	sort.Strings(kb)
	for i := range ka {
		if ka[i] != kb[i] {
			return false
		}
	}
	return true
}

func sortableString(v Value) string {
	switch x := v.(type) {
	case int64:
		return "i" + string(rune(x))
	case float64:
		return "f" + string(rune(int64(x*100)))
	case string:
		return x
	default:
		return "?"
	}
}

// TestParseFailures pins the -fail vocabulary: op/partition/attempt triples,
// comma-separated, with blanks tolerated and anything that could never fire
// rejected.
func TestParseFailures(t *testing.T) {
	for _, tc := range []struct {
		spec  string
		kills []failPoint // nil when the spec is malformed
	}{
		{"", []failPoint{}},
		{" , ", []failPoint{}},
		{"join-1/2/0", []failPoint{{"join-1", 2, 0}}},
		{"join-1/2/0, aggregate/0/3,", []failPoint{{"join-1", 2, 0}, {"aggregate", 0, 3}}},
		{"join-1/2/0,join-1/2/0", []failPoint{{"join-1", 2, 0}}},
		{"join-1/2", nil},
		{"join-1/2/0/1", nil},
		{"/2/0", nil},
		{"join-1/x/0", nil},
		{"join-1/2/y", nil},
		{"join-1/-1/0", nil},
		{"join-1/2/-1", nil},
		{"join-1/2/0,bad", nil},
	} {
		s, err := ParseFailures(tc.spec)
		if tc.kills == nil {
			if err == nil {
				t.Errorf("%q: accepted, want an error", tc.spec)
			}
			continue
		}
		if err != nil {
			t.Errorf("%q: %v", tc.spec, err)
			continue
		}
		want := map[failPoint]bool{}
		for _, k := range tc.kills {
			want[k] = true
		}
		if !reflect.DeepEqual(s.script, want) {
			t.Errorf("%q: script %v, want %v", tc.spec, s.script, want)
		}
		for k := range want {
			if !s.FailCompute(k.op, k.part, k.attempt) || s.FailCompute(k.op, k.part, k.attempt+1) {
				t.Errorf("%q: FailCompute disagrees with the script at %v", tc.spec, k)
			}
		}
	}
}
