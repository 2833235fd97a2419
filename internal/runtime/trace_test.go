package runtime

import (
	"context"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"ftpde/internal/engine"
	"ftpde/internal/obs"
	"ftpde/internal/schemes"
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

// TestFoldsReplayFromTrace holds the one emission path to its contract: the
// tracer records every event the live folds saw, in emission order, so
// folding the recorded spans offline in ID order reproduces the execution's
// report, metrics snapshot, ledger (entry by entry) and progress exactly.
// Scripted Q3 failures with a checkpointed stage exercise every event kind
// between them: fine recovery drops lineage and recomputes it, coarse
// recovery aborts attempts and restores the checkpointed stage.
func TestFoldsReplayFromTrace(t *testing.T) {
	for _, tc := range []struct {
		name     string
		recovery schemes.Recovery
		kinds    []obs.Kind
	}{
		{"fine", schemes.FineGrained, []obs.Kind{obs.KindFailure, obs.KindLost, obs.KindRecovery, obs.KindCheckpoint}},
		{"coarse", schemes.CoarseRestart, []obs.Kind{obs.KindFailure, obs.KindRestart, obs.KindRestore, obs.KindCheckpoint}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			q, inj, points := q3Trace(t)
			tracer := obs.NewTracer(obs.DefaultCapacity)
			m := &Metrics{}
			prog := obs.NewProgressRegistry(1).Begin("tenant", "q3")
			r, err := New(Config{Nodes: eqNodes, Injector: inj, Recovery: tc.recovery, Tracer: tracer, Metrics: m, Progress: prog})
			if err != nil {
				t.Fatal(err)
			}
			_, rep, err := executeWithin(t, r, context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			spans := tracer.Snapshot()
			if tracer.Dropped() != 0 {
				t.Fatalf("tracer dropped %d spans", tracer.Dropped())
			}
			sort.Slice(spans, func(i, j int) bool { return spans[i].ID < spans[j].ID })
			seen := map[obs.Kind]bool{}
			for _, sp := range spans {
				seen[sp.Kind] = true
			}
			for _, k := range tc.kinds {
				if !seen[k] {
					t.Errorf("no %s event: the scenario does not exercise its fold", k)
				}
			}

			replay := &events{metrics: &Metrics{}, progress: obs.NewProgressRegistry(1).Begin("tenant", "q3")}
			for _, sp := range spans {
				replay.emit(sp)
			}

			if replay.report != *rep {
				t.Errorf("replayed report %+v, live %+v", replay.report, *rep)
			}
			if rep.Failures != len(points) {
				t.Errorf("report counts %d failures, want %d", rep.Failures, len(points))
			}
			live, offline := m.Snapshot(), replay.metrics.Snapshot()
			live.Batches = 0 // the one counter the runtime adds to per batch, not per event
			if !reflect.DeepEqual(offline, live) {
				t.Errorf("replayed metrics\n%+v\nlive\n%+v", offline, live)
			}
			led, offLed := m.Ledger().Snapshot(), replay.metrics.Ledger().Snapshot()
			if !reflect.DeepEqual(offLed, led) {
				t.Errorf("replayed ledger\n%s\nlive\n%s", offLed, led)
			}
			if led.Failures != int64(len(points)) || led.Unresolved != 0 || led.DroppedEntries != 0 {
				t.Errorf("ledger does not pair %d failures: %s", len(points), led)
			}
			// Elapsed time is the snapshot's clock, not an event.
			ps, offPs := prog.Snapshot(), replay.progress.Snapshot()
			ps.ElapsedSeconds, offPs.ElapsedSeconds = 0, 0
			if !reflect.DeepEqual(offPs, ps) {
				t.Errorf("replayed progress\n%+v\nlive\n%+v", offPs, ps)
			}
		})
	}
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
			if led.Failures == 0 || led.Unresolved != 0 {
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
	if len(snap.Stages) == 0 {
		t.Error("no per-stage rows recorded")
	}
	for _, st := range snap.Stages {
		if st.Rows <= 0 || st.WallNS <= 0 {
			t.Errorf("stage %q recorded %d rows in %v", st.Stage, st.Rows, st.WallNS)
		}
	}
	// The rendering must be deterministic (sorted stages) for log diffing.
	if s1, s2 := snap.String(), snap.String(); s1 != s2 {
		t.Errorf("snapshot rendering not stable:\n%s\nvs\n%s", s1, s2)
	}
}
