package exec

import (
	"math"
	"testing"
	"time"

	"ftpde/internal/cost"
	"ftpde/internal/failure"
	"ftpde/internal/plan"
	"ftpde/internal/schemes"
)

func testModel() cost.Model {
	return cost.Model{MTBF: 60, MTTR: 1, Percentile: 0.95, PipeConst: 1}
}

func emptyTrace(nodes int) *failure.Trace {
	return &failure.Trace{PerNode: make([][]float64, nodes)}
}

func opts(nodes int, rec schemes.Recovery) Options {
	return Options{
		Cluster:  failure.Spec{Nodes: nodes, MTBF: 60, MTTR: 1},
		Model:    testModel(),
		Recovery: rec,
	}
}

func TestRunNoFailuresMatchesMakespan(t *testing.T) {
	p := plan.PaperExample()
	for _, rec := range []schemes.Recovery{schemes.FineGrained, schemes.CoarseRestart} {
		res, err := Run(p, opts(2, rec), emptyTrace(2))
		if err != nil {
			t.Fatal(err)
		}
		want, err := FailureFreeMakespan(p, testModel())
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.Runtime-want) > 1e-9 {
			t.Errorf("recovery=%d: runtime %g, want makespan %g", rec, res.Runtime, want)
		}
		if res.Failures != 0 || res.Restarts != 0 || res.Aborted {
			t.Errorf("clean trace produced failures: %+v", res)
		}
	}
}

func TestPaperExampleMakespan(t *testing.T) {
	// Figure 3 config: stages {1,2,3} (t=4), {4,5} (t=3), {6} (t=1), {7}
	// (t=2). Critical path: 4+3+2 = 9.
	p := plan.PaperExample()
	got, err := FailureFreeMakespan(p, testModel())
	if err != nil {
		t.Fatal(err)
	}
	if got != 9 {
		t.Errorf("makespan = %g, want 9", got)
	}
}

func TestFineGrainedSingleFailure(t *testing.T) {
	// Single-node cluster, failure at t=2 during stage {1,2,3} (work 4).
	// Node restarts the stage at 2+MTTR=3 and finishes at 7; total = 7+3+2 = 12.
	p := plan.PaperExample()
	tr := &failure.Trace{PerNode: [][]float64{{2}}}
	res, err := Run(p, opts(1, schemes.FineGrained), tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures != 1 {
		t.Errorf("failures = %d, want 1", res.Failures)
	}
	if math.Abs(res.Runtime-12) > 1e-9 {
		t.Errorf("runtime = %g, want 12", res.Runtime)
	}
}

func TestFineGrainedFailureOnlyDelaysOneStage(t *testing.T) {
	// Failure happens while stage {4,5} runs (interval [4,7) on node 0).
	// Only that stage re-runs: lost work from 4 to 5, resume at 6, stage ends
	// at 9, sinks at 10/11 -> runtime 11 (one extra wasted unit + MTTR).
	p := plan.PaperExample()
	tr := &failure.Trace{PerNode: [][]float64{{5}}}
	res, err := Run(p, opts(1, schemes.FineGrained), tr)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Runtime-11) > 1e-9 {
		t.Errorf("runtime = %g, want 11", res.Runtime)
	}
}

func TestFineGrainedOnlyFailedNodeRetries(t *testing.T) {
	// Two nodes; node 1 fails at t=1 during the first stage. Node 0 finishes
	// at 4, node 1 restarts at 2 and finishes at 6 -> stage end 6.
	p := plan.PaperExample()
	tr := &failure.Trace{PerNode: [][]float64{{}, {1}}}
	res, err := Run(p, opts(2, schemes.FineGrained), tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stages) == 0 {
		t.Fatal("no stage reports")
	}
	SortStages(res.Stages)
	first := res.Stages[0]
	if math.Abs(first.End-6) > 1e-9 {
		t.Errorf("first stage end = %g, want 6", first.End)
	}
	if first.Retries != 1 {
		t.Errorf("first stage retries = %d, want 1", first.Retries)
	}
	if math.Abs(res.Runtime-11) > 1e-9 { // 6+3+2
		t.Errorf("runtime = %g, want 11", res.Runtime)
	}
}

func TestCoarseRestart(t *testing.T) {
	// Makespan 9. Failures at 5 and 20 on node 0: restart at 6, second run
	// [6,15) finishes before 20 -> runtime 15, 1 restart.
	p := plan.PaperExample()
	if err := p.Apply(plan.NoMat(p)); err != nil {
		t.Fatal(err)
	}
	// No materialization: makespan = critical tr path = 7.7.
	tr := &failure.Trace{PerNode: [][]float64{{5, 20}}}
	res, err := Run(p, opts(1, schemes.CoarseRestart), tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Restarts != 1 {
		t.Errorf("restarts = %d, want 1", res.Restarts)
	}
	want := 6 + 7.7
	if math.Abs(res.Runtime-want) > 1e-9 {
		t.Errorf("runtime = %g, want %g", res.Runtime, want)
	}
}

func TestCoarseRestartAborts(t *testing.T) {
	// Failures every 2 units but makespan 7.7: the query can never finish.
	times := make([]float64, 200)
	for i := range times {
		times[i] = float64(i+1) * 2
	}
	p := plan.PaperExample()
	if err := p.Apply(plan.NoMat(p)); err != nil {
		t.Fatal(err)
	}
	tr := &failure.Trace{PerNode: [][]float64{times}}
	o := opts(1, schemes.CoarseRestart)
	o.Cluster.MTTR = 0
	res, err := Run(p, o, tr)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Aborted {
		t.Fatal("expected abort")
	}
	if res.Restarts != defaultMaxRestarts+1 {
		t.Errorf("restarts = %d, want %d", res.Restarts, defaultMaxRestarts+1)
	}
}

func TestMaterializationReducesLossUnderFailures(t *testing.T) {
	// Deterministic comparison: same trace, all-mat vs no-mat on a long
	// 2-stage pipeline with a late failure. All-mat pays materialization but
	// loses only the second stage; no-mat (lineage) loses everything.
	p := plan.New()
	a := p.Add(plan.Operator{Name: "a", RunCost: 10, MatCost: 1})
	b := p.Add(plan.Operator{Name: "b", RunCost: 10, MatCost: 1})
	p.MustConnect(a, b)

	tr := &failure.Trace{PerNode: [][]float64{{20}}}
	o := opts(1, schemes.FineGrained)

	allMat := p.Clone()
	if err := allMat.Apply(plan.AllMat(allMat)); err != nil {
		t.Fatal(err)
	}
	resAll, err := Run(allMat, o, tr)
	if err != nil {
		t.Fatal(err)
	}

	noMat := p.Clone()
	if err := noMat.Apply(plan.NoMat(noMat)); err != nil {
		t.Fatal(err)
	}
	resNo, err := Run(noMat, o, tr)
	if err != nil {
		t.Fatal(err)
	}

	// all-mat: stage a [0,11), stage b [11,21) interrupted at 20 -> restart
	// at 21, done 32 (stage b work includes mat: 11). Wait: work b = 11,
	// started 11, failure at 20 -> resume 21, finish 32.
	if math.Abs(resAll.Runtime-32) > 1e-9 {
		t.Errorf("all-mat runtime = %g, want 32", resAll.Runtime)
	}
	// no-mat: single stage work 20 [0,20) interrupted at 20? NextFailure(0,0)
	// = 20 >= 0+20 -> finishes exactly at 20 unharmed.
	if math.Abs(resNo.Runtime-20) > 1e-9 {
		t.Errorf("no-mat runtime = %g, want 20", resNo.Runtime)
	}

	// Move the failure one unit earlier: now no-mat loses all 19 units.
	tr2 := &failure.Trace{PerNode: [][]float64{{19}}}
	resNo2, err := Run(noMat, o, tr2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(resNo2.Runtime-40) > 1e-9 { // 19 lost + MTTR 1 + 20
		t.Errorf("no-mat late-failure runtime = %g, want 40", resNo2.Runtime)
	}
	resAll2, err := Run(allMat, o, tr2)
	if err != nil {
		t.Fatal(err)
	}
	if resAll2.Runtime >= resNo2.Runtime {
		t.Errorf("all-mat (%g) should beat no-mat (%g) for a late failure",
			resAll2.Runtime, resNo2.Runtime)
	}
}

func TestMeasuredOverhead(t *testing.T) {
	p := plan.PaperExample()
	baseline := 7.7
	o := opts(2, schemes.FineGrained)
	traces := []*failure.Trace{emptyTrace(2), emptyTrace(2)}
	// Figure 3 config materializes, so even with clean traces the overhead
	// is the materialization cost: makespan 9 vs baseline 7.7.
	mean, aborted, err := MeasuredOverhead(p, o, traces, baseline)
	if err != nil {
		t.Fatal(err)
	}
	if aborted {
		t.Error("clean traces reported abort")
	}
	want := (9 - 7.7) / 7.7 * 100
	if math.Abs(mean-want) > 1e-9 {
		t.Errorf("overhead = %g%%, want %g%%", mean, want)
	}
	if _, _, err := MeasuredOverhead(p, o, traces, 0); err == nil {
		t.Error("zero baseline accepted")
	}
	if _, _, err := MeasuredOverhead(p, o, nil, 1); err == nil {
		t.Error("no traces accepted")
	}
}

func TestMeanRuntime(t *testing.T) {
	p := plan.PaperExample()
	o := opts(2, schemes.FineGrained)
	mean, ok, err := MeanRuntime(p, o, []*failure.Trace{emptyTrace(2)})
	if err != nil || !ok {
		t.Fatalf("MeanRuntime failed: %v ok=%v", err, ok)
	}
	if math.Abs(mean-9) > 1e-9 {
		t.Errorf("mean runtime = %g, want 9", mean)
	}
}

// TestZeroMTTRConsumesEachArrivalOnce: with no repair wait a task resumes at
// the instant it failed, and the arrival that killed it must not fire again.
// One operator of work 10 on one node, one arrival at 5: one failure, and the
// retry runs [5, 15). The run is bounded by a timeout so a livelock fails the
// test by name instead of exhausting memory.
func TestZeroMTTRConsumesEachArrivalOnce(t *testing.T) {
	p := plan.New()
	p.Add(plan.Operator{Name: "scan", Kind: plan.KindScan, RunCost: 10})
	tr := &failure.Trace{PerNode: [][]float64{{5}}}
	for _, rec := range []schemes.Recovery{schemes.FineGrained, schemes.CoarseRestart} {
		o := opts(1, rec)
		o.Cluster.MTTR = 0
		o.MaxRestarts = 3
		done := make(chan *Result, 1)
		go func() {
			res, err := Run(p, o, tr)
			if err != nil {
				t.Error(err)
			}
			done <- res
		}()
		var res *Result
		select {
		case res = <-done:
		case <-time.After(time.Second):
			t.Fatalf("recovery=%d: simulation did not terminate with MTTR 0", rec)
		}
		if res == nil {
			continue
		}
		if res.Failures != 1 || res.Aborted {
			t.Errorf("recovery=%d: failures %d aborted %v, want one failure and no abort", rec, res.Failures, res.Aborted)
		}
		if math.Abs(res.Runtime-15) > 1e-9 {
			t.Errorf("recovery=%d: runtime %g, want 15", rec, res.Runtime)
		}
	}
}

func TestRunValidation(t *testing.T) {
	p := plan.PaperExample()
	if _, err := Run(p, opts(2, schemes.FineGrained), nil); err == nil {
		t.Error("nil trace accepted")
	}
	if _, err := Run(p, opts(5, schemes.FineGrained), emptyTrace(2)); err == nil {
		t.Error("trace smaller than cluster accepted")
	}
	bad := opts(0, schemes.FineGrained)
	if _, err := Run(p, bad, emptyTrace(2)); err == nil {
		t.Error("invalid cluster accepted")
	}
	badRec := opts(2, schemes.Recovery(99))
	if _, err := Run(p, badRec, emptyTrace(2)); err == nil {
		t.Error("unknown recovery accepted")
	}
}

// Simulated runtimes should statistically match the cost model's estimate
// regime: with MTBF far above the makespan, runs finish at the makespan.
func TestLongMTBFRunsClean(t *testing.T) {
	p := plan.PaperExample()
	spec := failure.Spec{Nodes: 4, MTBF: 1e9, MTTR: 1}
	traces := failure.NewTraces(spec, 1e6, 42, 5)
	o := Options{Cluster: spec, Model: testModel(), Recovery: schemes.FineGrained}
	for _, tr := range traces {
		res, err := Run(p, o, tr)
		if err != nil {
			t.Fatal(err)
		}
		if res.Failures != 0 {
			t.Errorf("unexpected failure with MTBF=1e9")
		}
	}
}
