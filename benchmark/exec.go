package main

import (
	"fmt"
	goruntime "runtime"
	"time"

	"ftpde/internal/engine"
	"ftpde/internal/runtime"
	"ftpde/internal/service"
	"ftpde/internal/sql"
)

const execSF = 0.005

// compiled is one query ready to execute, with the staged engine's answer.
type compiled struct {
	name    string
	root    engine.Operator
	ref     digest
	scanned int // base-table rows one execution scans
}

// execRun is exec_scan_join after set-up: Q1, Q3 and Q5 compiled once, run
// on a bare runtime (no tracer, no progress, in-memory store, no
// materialization, no failures). One operation is one round, the three
// queries back to back: a single Execute would make the latency distribution
// three clusters a decade apart, with the median on the edge of one.
type execRun struct {
	cat       *catalog
	plans     []compiled
	next      int // executions so far
	attempted int // rounds
	failed    int // rounds with a wrong result
}

// compileTemplates compiles the three service templates against cat and
// takes their references from the staged Coordinator.
func compileTemplates(cat *catalog) ([]compiled, error) {
	var out []compiled
	for _, q := range service.TPCHQueries() {
		stmt, err := sql.Parse(q.Text)
		if err != nil {
			return nil, err
		}
		pp, err := sql.Compile(stmt, cat.cat)
		if err != nil {
			return nil, err
		}
		c := compiled{name: q.Name, root: pp.Root}
		start := time.Now()
		if c.ref, err = reference(cat.cat, q.Text); err != nil {
			return nil, err
		}
		if q.Name == "Q3" {
			cat.layer["engine.staged_q3_ms"] = exact(time.Since(start).Seconds()*1e3, "ms")
		}
		if c.scanned, err = cat.scannedRows(stmt); err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
}

func setupExec(seed int64, _ string) (runner, error) {
	cat, err := generate(seed, execSF)
	if err != nil {
		return nil, err
	}
	e := &execRun{cat: cat}
	if e.plans, err = compileTemplates(cat); err != nil {
		return nil, err
	}
	// Warm-up: one round, so the shared arena's freelists are filled.
	if _, err := e.loop(time.Now(), nil, runtime.Config{Nodes: nodes}, nil); err != nil {
		return nil, err
	}
	if e.failed > 0 {
		return nil, fmt.Errorf("exec_scan_join warm-up: a result differs from the staged reference")
	}
	return e, nil
}

func (e *execRun) close() {}

// one executes the next query of the round and checks its result.
func (e *execRun) one(rec *recorder, cfg runtime.Config) (q compiled, ex execution, ok bool, err error) {
	q = e.plans[e.next%len(e.plans)]
	ex, err = execute(rec, 0, e.next, cfg, q.root)
	e.next++
	return q, ex, err == nil && digestResult(ex.res) == q.ref, err
}

// loop runs rounds until the deadline and returns each round's latency in
// milliseconds.
func (e *execRun) loop(until time.Time, rec *recorder, cfg runtime.Config, each func(compiled, execution)) ([]float64, error) {
	var latencyMS []float64
	for len(latencyMS) == 0 || time.Now().Before(until) {
		var round time.Duration
		right := true
		for range e.plans {
			q, ex, ok, err := e.one(rec, cfg)
			if err != nil {
				return nil, err
			}
			round += ex.wall
			right = right && ok
			if each != nil {
				each(q, ex)
			}
		}
		e.attempted++
		if !right {
			e.failed++
		}
		latencyMS = append(latencyMS, round.Seconds()*1e3)
	}
	return latencyMS, nil
}

func (e *execRun) measure(seconds float64) (outcome, error) {
	e.attempted, e.failed = 0, 0
	t, err := trials(seconds, trialSeconds, func(until time.Time) ([]float64, float64, error) {
		lat, err := e.loop(until, nil, runtime.Config{Nodes: nodes}, nil)
		return lat, float64(len(lat)), err
	})
	if err != nil {
		return outcome{}, err
	}
	return outcome{attempted: e.attempted, failed: e.failed, metrics: closedLoopMetrics(t)}, nil
}

// trace runs rounds untraced and traced, then Q5 alone on a single worker,
// then one ComputeBatch probe per engine kernel.
func (e *execRun) trace(seconds float64, rec *recorder) (outcome, error) {
	e.attempted, e.failed = 0, 0
	start := time.Now()
	lat, err := e.loop(deadline(0.15*seconds), nil, runtime.Config{Nodes: nodes}, nil)
	if err != nil {
		return outcome{}, err
	}
	untraced := float64(len(lat)) / time.Since(start).Seconds()

	arena := engine.NewArena()
	byQuery := map[string][]float64{}
	var batches, rows, scanned, stageWall, wall, heapPeak float64
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	start = time.Now()
	lat, err = e.loop(deadline(0.35*seconds), rec, runtime.Config{Nodes: nodes, Arena: arena}, func(q compiled, ex execution) {
		byQuery[q.name] = append(byQuery[q.name], ex.wall.Seconds()*1e3)
		batches += float64(ex.snap.Batches)
		rows += float64(ex.snap.Rows)
		scanned += float64(q.scanned)
		stageWall += ex.stageWall().Seconds()
		wall += ex.wall.Seconds()
		goruntime.ReadMemStats(&after)
		heapPeak = max(heapPeak, float64(after.HeapInuse)/1e6)
	})
	if err != nil {
		return outcome{}, err
	}
	elapsed := time.Since(start).Seconds()
	rounds := float64(len(lat))
	ops := rounds * float64(len(e.plans)) // the runtime.* figures are per Execute

	// Q5 alone, one worker: what the pipeline's parallelism is worth.
	q5 := e.plans[2]
	var single []float64
	for until := deadline(0.1 * seconds); len(single) < 3 || time.Now().Before(until); {
		ex, err := execute(nil, 0, 0, runtime.Config{Nodes: nodes, MaxWorkers: 1}, q5.root)
		if err != nil {
			return outcome{}, err
		}
		single = append(single, ex.wall.Seconds()*1e3)
	}

	m, err := kernelProbes(e.cat.cat, rec, 0.4*seconds)
	if err != nil {
		return outcome{}, err
	}
	m["runtime.exec_q1_p50_ms"] = medianOf(byQuery["Q1"], "ms")
	m["runtime.exec_q3_p50_ms"] = medianOf(byQuery["Q3"], "ms")
	m["runtime.exec_q5_p50_ms"] = medianOf(byQuery["Q5"], "ms")
	m["runtime.exec_q5_workers1_p50_ms"] = medianOf(single, "ms")
	m["runtime.batches_per_op"] = exact(batches/ops, "count")
	m["runtime.rows_per_op"] = exact(rows/ops, "count")
	m["runtime.stage_wall_ms_per_op"] = exact(stageWall/ops*1e3, "ms")
	m["runtime.stage_busy_frac"] = exact(stageWall/(wall*float64(goruntime.GOMAXPROCS(0))), "ratio")
	m["runtime.allocs_per_op"] = exact(float64(after.Mallocs-before.Mallocs)/ops, "count")
	m["runtime.heap_peak_mb"] = exact(heapPeak, "MB")
	m["runtime.rows_per_s"] = exact(scanned/elapsed, "1/s")
	m["engine.arena_hit_ratio"] = exact(arena.HitRatio(), "ratio")
	m["bench.trace_overhead_frac"] = traceOverhead(untraced, rounds/elapsed)
	e.cat.merge(m)
	return outcome{attempted: e.attempted, failed: e.failed, metrics: m}, nil
}
