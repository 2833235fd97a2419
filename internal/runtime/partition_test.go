package runtime

import (
	"bytes"
	"fmt"
	"reflect"
	goruntime "runtime"
	"sync"
	"testing"

	"ftpde/internal/engine"
	"ftpde/internal/obs"
	"ftpde/internal/schemes"
)

// A stage partition is one loop on the pool worker that holds the slot: the
// operators of a chained stage run back to back on one goroutine, the kill
// points are positions in that loop, and Execute leaves no goroutine behind.

const (
	chainNodes = 4
	chainBatch = 4
	chainPart  = 1 // the partition whose size the tests vary and whose worker they kill
)

var chainSchema = engine.Schema{{Name: "k", Type: engine.TypeInt}, {Name: "g", Type: engine.TypeInt}, {Name: "v", Type: engine.TypeFloat}}

// killTable holds n rows in partition chainPart and five in every other one.
// The table is laid out directly, so partition sizes are exact.
func killTable(t *testing.T, n int) *engine.Table {
	t.Helper()
	tb := &engine.Table{Name: "fact", Schema: chainSchema, ColParts: make([]*engine.Batch, chainNodes)}
	for p := range tb.ColParts {
		size := 5
		if p == chainPart {
			size = n
		}
		rows := make([]engine.Row, size)
		for i := range rows {
			rows[i] = engine.Row{int64(100*p + i), int64(i % 3), float64(i) / 2}
		}
		b, err := engine.RowsToBatch(chainSchema, rows)
		if err != nil {
			t.Fatal(err)
		}
		tb.ColParts[p] = b
	}
	return tb
}

// filterChain is scan → select → project, one stage of three operators; the
// predicate keeps every row, so each slice reaches the last kernel.
func filterChain(tb *engine.Table) engine.Operator {
	sel := engine.NewSelect("select", engine.NewScan("scan", tb, nil, nil),
		engine.Cmp{Op: engine.GE, L: engine.Col(2), R: engine.Const{V: 0.0}})
	return engine.NewProject("project", sel,
		[]engine.Expr{engine.Col(0), engine.Arith{Op: engine.Mul, L: engine.Col(2), R: engine.Const{V: 2.0}}},
		engine.Schema{{Name: "k", Type: engine.TypeInt}, {Name: "w", Type: engine.TypeFloat}})
}

// aggChain is scan → partition-wise aggregate → project: the aggregate buffers,
// so the projection's only batch is the one the aggregate flushes at end of
// stream.
func aggChain(tb *engine.Table) engine.Operator {
	agg := engine.NewHashAggregate("aggregate", engine.NewScan("scan", tb, nil, nil), []int{1},
		[]engine.AggSpec{{Kind: engine.AggCount}}, false,
		engine.Schema{{Name: "g", Type: engine.TypeInt}, {Name: "n", Type: engine.TypeInt}})
	return engine.NewProject("project", agg, []engine.Expr{engine.Col(1), engine.Col(0)},
		engine.Schema{{Name: "n", Type: engine.TypeInt}, {Name: "g", Type: engine.TypeInt}})
}

// dimTable maps the fact tables' g column (0..2) to one row each, spread over
// the partitions by key.
func dimTable(t *testing.T) *engine.Table {
	t.Helper()
	tb, err := engine.NewTable("dim", engine.Schema{{Name: "g", Type: engine.TypeInt}, {Name: "x", Type: engine.TypeFloat}},
		[]engine.Row{{int64(0), 0.5}, {int64(1), 1.5}, {int64(2), 2.5}}, chainNodes, 0)
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

// joinChain is scan → join → join, one stage of three operators whose sides
// are two scans of dim; every fact row matches one dim row in each, so each
// slice reaches the last kernel.
func joinChain(tb, dim *engine.Table) engine.Operator {
	first := engine.NewHashJoin("join1", engine.NewScan("dim1", dim, nil, nil), engine.NewScan("scan", tb, nil, nil), 0, 1)
	return engine.NewHashJoin("join2", engine.NewScan("dim2", dim, nil, nil), first, 0, 1)
}

// failCall is one FailCompute decision as the injector saw it.
type failCall struct {
	op            string
	part, attempt int
	goroutine     string // the calling goroutine, "goroutine N"
	batches       int64  // Metrics.Batches at the call
}

// callRecorder is a scripted injector that records every decision it is asked
// for, in order.
type callRecorder struct {
	script  *engine.ScriptedFailures
	metrics *Metrics

	mu    sync.Mutex
	calls []failCall
}

func (r *callRecorder) FailCompute(op string, part, attempt int) bool {
	buf := make([]byte, 64)
	buf = buf[:goruntime.Stack(buf, false)]
	if i := bytes.Index(buf, []byte(" [")); i > 0 {
		buf = buf[:i]
	}
	r.mu.Lock()
	r.calls = append(r.calls, failCall{op, part, attempt, string(buf), r.metrics.Batches.Load()})
	r.mu.Unlock()
	return r.script.FailCompute(op, part, attempt)
}

// waitForGoroutines polls until the process is back to at most want
// goroutines: a checkpoint's persist goroutine settles its write, which is
// what close waits for, a moment before it exits.
func waitForGoroutines(t *testing.T, want int, when string) {
	t.Helper()
	waitFor(t, fmt.Sprintf("%s: the process is back at its %d goroutines", when, want),
		func() bool { return goruntime.NumGoroutine() <= want })
}

// TestChainedStageRunsOnThePoolWorker: with MaxWorkers 1 every operator of a
// (stage, partition) attempt is attempted on one goroutine — the one holding
// the pool's only slot, so the attempts of different partitions never
// interleave — and Execute returns the process to the goroutines it had.
func TestChainedStageRunsOnThePoolWorker(t *testing.T) {
	for _, arm := range []struct {
		name     string
		kill     bool
		recovery schemes.Recovery
	}{
		{"clean", false, schemes.FineGrained},
		{"fine", true, schemes.FineGrained},
		{"coarse", true, schemes.CoarseRestart},
	} {
		t.Run(arm.name, func(t *testing.T) {
			m := &Metrics{}
			rec := &callRecorder{script: engine.NewScriptedFailures(), metrics: m}
			if arm.kill {
				rec.script.Add("select", chainPart, 0)
			}
			root := filterChain(killTable(t, 10))
			before := goruntime.NumGoroutine()
			_, rep := mustExecute(t, Config{Nodes: chainNodes, MaxWorkers: 1, BatchSize: chainBatch,
				Injector: rec, Recovery: arm.recovery, Metrics: m}, root)
			waitForGoroutines(t, before, arm.name)

			if (rep.Failures == 1) != arm.kill {
				t.Errorf("failures = %d with kill=%v", rep.Failures, arm.kill)
			}
			if len(rec.calls)%3 != 0 || len(rec.calls) < 3*chainNodes {
				t.Fatalf("%d failure decisions for a three-operator stage over %d partitions", len(rec.calls), chainNodes)
			}
			for i := 0; i < len(rec.calls); i += 3 {
				src := rec.calls[i]
				for j, op := range []string{"scan", "select", "project"} {
					c := rec.calls[i+j]
					if c.part != src.part || c.attempt != src.attempt {
						t.Fatalf("decision %d is %s/%d attempt %d in the middle of partition %d's attempt %d: partition attempts interleave",
							i+j, c.op, c.part, c.attempt, src.part, src.attempt)
					}
					if c.op != op {
						t.Errorf("partition %d attempt %d: decision %d is %s's, want %s's: the chain is not attempted in order",
							c.part, c.attempt, j, c.op, op)
					}
					if c.goroutine != src.goroutine {
						t.Errorf("partition %d attempt %d: %s attempted on %s, the source on %s",
							c.part, c.attempt, c.op, c.goroutine, src.goroutine)
					}
				}
			}
		})
	}
}

// TestKillPoints pins where a killed operator of a chained stage dies, by the
// batches the partition's attempt counted before the death: a function of the
// schedule alone, so the same on every run.
func TestKillPoints(t *testing.T) {
	dim := dimTable(t)
	chains := map[string]func(*engine.Table) engine.Operator{"filter": filterChain, "agg": aggChain,
		"join": func(tb *engine.Table) engine.Operator { return joinChain(tb, dim) }}
	// Fine recovery re-runs the killed chain partition plus the volatile
	// lineage on its node: for the join chain, the partitions of its two
	// sides there.
	recomputed := map[string]int{"filter": 1, "agg": 1, "join": 3}
	for _, tc := range []struct {
		chain   string
		killed  string
		rows    int // in the killed partition: empty, one slice, three slices
		batches int // counted by the dying attempt
		why     string
	}{
		{"filter", "scan", 0, 0, "no slice to hand over"},
		{"filter", "scan", 3, 3, "first slice through both kernels, then the source dies"},
		{"filter", "scan", 10, 3, "first slice through both kernels, then the source dies"},
		{"filter", "select", 0, 0, "dies at end of stream"},
		{"filter", "select", 3, 3, "one slice through both kernels, dies at end of stream"},
		{"filter", "select", 10, 4, "dies on receiving the second slice"},
		{"filter", "project", 0, 0, "dies at end of stream"},
		{"filter", "project", 3, 3, "one slice through both kernels, dies at end of stream"},
		{"filter", "project", 10, 5, "second slice passes the filter, dies on receiving it"},
		{"agg", "scan", 0, 0, "no slice to hand over"},
		{"agg", "scan", 3, 2, "first slice absorbed by the aggregate, then the source dies"},
		{"agg", "scan", 10, 2, "first slice absorbed by the aggregate, then the source dies"},
		{"agg", "aggregate", 0, 0, "dies at end of stream"},
		{"agg", "aggregate", 3, 2, "one slice absorbed, dies at end of stream before flushing"},
		{"agg", "aggregate", 10, 3, "dies on receiving the second slice"},
		{"agg", "project", 0, 0, "nothing flushed, dies at end of stream"},
		{"agg", "project", 3, 3, "the flushed batch is its first; dies at end of stream"},
		{"agg", "project", 10, 7, "three slices absorbed, the flushed batch projected, dies at end of stream"},
		{"join", "scan", 10, 3, "first slice probed by both joins, then the source dies"},
		{"join", "join1", 10, 4, "dies on receiving the second slice"},
		{"join", "join2", 0, 0, "dies at end of stream"},
		{"join", "join2", 3, 3, "one slice probed by both joins, dies at end of stream"},
	} {
		for _, recovery := range []schemes.Recovery{schemes.FineGrained, schemes.CoarseRestart} {
			t.Run(fmt.Sprintf("%s/%s/rows=%d/%v", tc.chain, tc.killed, tc.rows, recovery), func(t *testing.T) {
				tb := killTable(t, tc.rows)
				root := chains[tc.chain](tb)
				want, _, err := (&engine.Coordinator{Nodes: chainNodes}).Execute(root)
				if err != nil {
					t.Fatal(err)
				}
				cleanMetrics := &Metrics{}
				clean, _ := mustExecute(t, Config{Nodes: chainNodes, MaxWorkers: 1, BatchSize: chainBatch, Metrics: cleanMetrics}, root)
				if !reflect.DeepEqual(clean.Parts, want.Parts) {
					t.Fatalf("clean run differs from the oracle (%d vs %d rows)", len(clean.AllRows()), len(want.AllRows()))
				}
				for run := 0; run < 20; run++ {
					m := &Metrics{}
					tracer := obs.NewTracer(obs.DefaultCapacity)
					rec := &callRecorder{script: engine.NewScriptedFailures().Add(tc.killed, chainPart, 0), metrics: m}
					got, rep := mustExecute(t, Config{Nodes: chainNodes, MaxWorkers: 1, BatchSize: chainBatch,
						Injector: rec, Recovery: recovery, Metrics: m, Tracer: tracer}, root)
					if !reflect.DeepEqual(got.Parts, clean.Parts) {
						t.Fatalf("run %d: rows differ from the clean run (%d vs %d)", run, len(got.AllRows()), len(clean.AllRows()))
					}
					if rep.Failures != 1 {
						t.Fatalf("run %d: failures = %d, want 1", run, rep.Failures)
					}
					failures := 0
					for _, sp := range tracer.Snapshot() {
						if sp.Kind == obs.KindFailure {
							failures++
							if sp.Name != tc.killed || sp.Part != chainPart || sp.Attempt != 0 {
								t.Errorf("run %d: failure event %s/%d attempt %d, want %s/%d attempt 0", run, sp.Name, sp.Part, sp.Attempt, tc.killed, chainPart)
							}
						}
					}
					if failures != 1 {
						t.Fatalf("run %d: %d failure events, want 1", run, failures)
					}
					if led := m.Ledger().Snapshot(); led.Failures != 1 || led.Unresolved != 0 {
						t.Fatalf("run %d: ledger failures=%d unresolved=%d", run, led.Failures, led.Unresolved)
					}
					// One worker, so nothing else counts a batch between the
					// dying attempt's three decisions and the next one taken:
					// the retry's under fine recovery, the restart's under
					// coarse.
					died := -1
					for i, c := range rec.calls {
						if c.op == "scan" && c.part == chainPart && c.attempt == 0 {
							died = i
						}
					}
					if died < 0 || died+3 >= len(rec.calls) {
						t.Fatalf("run %d: no decision follows the dying attempt (%d decisions)", run, len(rec.calls))
					}
					if got := rec.calls[died+3].batches - rec.calls[died].batches; got != int64(tc.batches) {
						t.Fatalf("run %d: the dying attempt counted %d batches, want %d (%s)", run, got, tc.batches, tc.why)
					}
					if recovery == schemes.FineGrained {
						if got, want := m.Batches.Load(), cleanMetrics.Batches.Load()+int64(tc.batches); got != want {
							t.Fatalf("run %d: %d batches in all, want the clean run's %d plus the dying attempt's %d", run, got, cleanMetrics.Batches.Load(), tc.batches)
						}
						if rep.RecomputedPartitions != recomputed[tc.chain] {
							t.Fatalf("run %d: recomputed %d partitions, want %d", run, rep.RecomputedPartitions, recomputed[tc.chain])
						}
					}
				}
			})
		}
	}
}
