package runtime

import (
	"context"
	"math"
	"sync"
	"testing"
	"time"

	"ftpde/internal/engine"
	"ftpde/internal/obs"
	"ftpde/internal/obs/metrics"
	"ftpde/internal/tpch"
)

// The observability acceptance bar: a scripted failure trace must show up in
// the span timeline as failure events followed by recovery spans with
// matching operator names and partition IDs. Run under
// `go test -race` this also exercises concurrent span emission from the
// partition workers against the collector's Snapshot drain.

type failurePoint struct {
	op   string
	part int
}

// assertFailureRecoveryOrdering checks that every scripted failure appears as
// a KindFailure event and is followed (in time) by a KindRecovery span for
// the same operator and partition.
func assertFailureRecoveryOrdering(t *testing.T, spans []obs.Span, want []failurePoint) {
	t.Helper()
	failures := map[failurePoint]time.Time{}
	for _, sp := range spans {
		if sp.Kind == obs.KindFailure {
			failures[failurePoint{sp.Name, sp.Part}] = sp.Start
		}
	}
	for _, fp := range want {
		at, ok := failures[fp]
		if !ok {
			t.Errorf("no failure event for %s/%d (got %v)", fp.op, fp.part, failures)
			continue
		}
		recovered := false
		for _, sp := range spans {
			if sp.Kind == obs.KindRecovery && sp.Name == fp.op && sp.Part == fp.part && !sp.Start.Before(at) {
				recovered = true
				break
			}
		}
		if !recovered {
			t.Errorf("failure %s/%d has no recovery span at or after %v", fp.op, fp.part, at)
		}
	}
	if len(failures) != len(want) {
		t.Errorf("observed %d failure events, want %d", len(failures), len(want))
	}
}

func q3Trace(t *testing.T) (engine.Operator, *engine.ScriptedFailures, []failurePoint) {
	t.Helper()
	cat, err := tpch.Generate(eqSF, eqNodes, eqSeed)
	if err != nil {
		t.Fatal(err)
	}
	q, err := tpch.EngineQ3(cat, "BUILDING", 1200, true)
	if err != nil {
		t.Fatal(err)
	}
	inj := engine.NewScriptedFailures().
		Add("q3-join-orders-lineitem", 1, 0).
		Add("q3-agg", 2, 0)
	points := []failurePoint{
		{"q3-join-orders-lineitem", 1},
		{"q3-agg", 2},
	}
	return q, inj, points
}

func TestPipelinedScriptedFailureTrace(t *testing.T) {
	q, inj, points := q3Trace(t)
	tracer := obs.NewTracer(obs.DefaultCapacity)
	r, err := New(Config{Nodes: eqNodes, Injector: inj, Tracer: tracer})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := executeWithin(t, r, context.Background(), q); err != nil {
		t.Fatal(err)
	}
	spans := tracer.Snapshot()
	assertFailureRecoveryOrdering(t, spans, points)

	var queries, checkpoints, retried int
	for _, sp := range spans {
		switch sp.Kind {
		case obs.KindQuery:
			queries++
		case obs.KindCheckpoint:
			checkpoints++
			if sp.Bytes <= 0 {
				t.Errorf("checkpoint span %s/%d has no byte size", sp.Name, sp.Part)
			}
		case obs.KindTask:
			if sp.Attempt >= 1 {
				retried++
			}
		}
	}
	if queries != 1 {
		t.Errorf("query spans = %d, want 1", queries)
	}
	if checkpoints == 0 {
		t.Error("materializing plan emitted no checkpoint spans")
	}
	if retried == 0 {
		t.Error("no task span with attempt >= 1 after injected failures")
	}
	if tracer.Dropped() != 0 {
		t.Errorf("dropped %d spans with default capacity", tracer.Dropped())
	}
}

// TestTracingDisabledIsNoop pins the nil-tracer fast path: execution with a
// nil tracer must behave identically (results and report) to an instrumented
// run.
func TestTracingDisabledIsNoop(t *testing.T) {
	cat, err := tpch.Generate(eqSF, eqNodes, eqSeed)
	if err != nil {
		t.Fatal(err)
	}
	build := func() engine.Operator {
		q, err := tpch.EngineQ1(cat, 2500)
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	r1, err := New(Config{Nodes: eqNodes})
	if err != nil {
		t.Fatal(err)
	}
	res1, rep1, err := executeWithin(t, r1, context.Background(), build())
	if err != nil {
		t.Fatal(err)
	}
	tracer := obs.NewTracer(obs.DefaultCapacity)
	r2, err := New(Config{Nodes: eqNodes, Tracer: tracer})
	if err != nil {
		t.Fatal(err)
	}
	res2, rep2, err := executeWithin(t, r2, context.Background(), build())
	if err != nil {
		t.Fatal(err)
	}
	a, b := res1.AllRows(), res2.AllRows()
	if len(a) != len(b) {
		t.Fatalf("row counts differ with tracing: %d vs %d", len(a), len(b))
	}
	if rep1.Failures != rep2.Failures {
		t.Errorf("reports differ: %+v vs %+v", rep1, rep2)
	}
	if len(tracer.Snapshot()) == 0 {
		t.Error("instrumented run emitted no spans")
	}
}

// assertLedgerReconciles checks the acceptance bar that ledger totals agree
// with the span timeline: booked recompute seconds must match the summed
// KindRecovery span durations within 1% (the spans strictly contain the
// attributed windows, so the slack is a few clock reads per recovery).
func assertLedgerReconciles(t *testing.T, led metrics.LedgerSnapshot, spans []obs.Span, wantFailures int64) {
	t.Helper()
	if led.Failures != wantFailures {
		t.Errorf("ledger failures = %d, want %d", led.Failures, wantFailures)
	}
	if led.Unresolved != 0 {
		t.Errorf("ledger left %d failures unresolved", led.Unresolved)
	}
	if open := led.Paired(); len(open) != 0 {
		t.Errorf("unpaired failure entries: %v", open)
	}
	booked := led.Seconds(metrics.CauseRecompute)
	if booked <= 0 {
		t.Fatalf("no recompute seconds booked: %s", led.String())
	}
	var spanSum float64
	for _, sp := range spans {
		if sp.Kind == obs.KindRecovery {
			spanSum += sp.End.Sub(sp.Start).Seconds()
		}
	}
	if spanSum <= 0 {
		t.Fatal("no recovery spans in the timeline")
	}
	diff := math.Abs(spanSum - booked)
	if diff > 0.01*spanSum && diff > 5e-3 {
		t.Errorf("ledger recompute %.6fs does not reconcile with recovery spans %.6fs", booked, spanSum)
	}
}

func TestPipelinedLedgerReconcilesWithSpans(t *testing.T) {
	q, inj, points := q3Trace(t)
	tracer := obs.NewTracer(obs.DefaultCapacity)
	m := &Metrics{}
	r, err := New(Config{Nodes: eqNodes, Injector: inj, Tracer: tracer, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := executeWithin(t, r, context.Background(), q); err != nil {
		t.Fatal(err)
	}
	assertLedgerReconciles(t, m.Ledger().Snapshot(), tracer.Snapshot(), int64(len(points)))
}

// TestLedgerAttributionUnderConcurrentFailures drives several runtimes at
// once, each with injected failures and its own ledger — the race-detector
// coverage for attribution from partition workers and recovery loops running
// simultaneously.
func TestLedgerAttributionUnderConcurrentFailures(t *testing.T) {
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		q, inj, _ := q3Trace(t)
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := &Metrics{}
			r, err := New(Config{Nodes: eqNodes, Injector: inj, Tracer: obs.NewTracer(obs.DefaultCapacity), Metrics: m})
			if err != nil {
				t.Error(err)
				return
			}
			if _, _, err := r.Execute(context.Background(), q); err != nil {
				t.Error(err)
				return
			}
			led := m.Ledger().Snapshot()
			if led.Failures == 0 || led.Unresolved != 0 || len(led.Paired()) != 0 {
				t.Errorf("concurrent run ledger inconsistent: %s", led.String())
			}
		}()
	}
	wg.Wait()
}

func TestMetricsCheckpointLatencyAndStageRows(t *testing.T) {
	m := &Metrics{}
	inj := engine.NewScriptedFailures().Add("join", 1, 0)
	_, _, _ = runQuery(t, testPipeline(t, 4, true),
		Config{Nodes: 4, Injector: inj, Metrics: m, BatchSize: 8})
	snap := m.Snapshot()
	if snap.CheckpointParts == 0 {
		t.Fatalf("no checkpoints written: %+v", snap)
	}
	if snap.CheckpointMin <= 0 || snap.CheckpointAvg < snap.CheckpointMin || snap.CheckpointMax < snap.CheckpointAvg {
		t.Errorf("checkpoint latency not min<=avg<=max>0: min=%v avg=%v max=%v",
			snap.CheckpointMin, snap.CheckpointAvg, snap.CheckpointMax)
	}
	if len(snap.StageRows) == 0 {
		t.Error("no per-stage row counts recorded")
	}
	for stage, rows := range snap.StageRows {
		if rows <= 0 {
			t.Errorf("stage %q recorded %d rows", stage, rows)
		}
		if _, ok := snap.StageWall[stage]; !ok {
			t.Errorf("stage %q has rows but no wall time", stage)
		}
	}
	// The rendering must be deterministic (sorted stages) for log diffing.
	if s1, s2 := snap.String(), snap.String(); s1 != s2 {
		t.Errorf("snapshot rendering not stable:\n%s\nvs\n%s", s1, s2)
	}
}
