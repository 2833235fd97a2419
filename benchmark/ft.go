package main

import (
	"fmt"
	"os"
	"time"

	"ftpde/internal/cost"
	"ftpde/internal/engine"
	"ftpde/internal/runtime"
	"ftpde/internal/schemes"
	"ftpde/internal/service"
	"ftpde/internal/sql"
)

const ftSF = 0.005

// ftModel is the failure model the cost-based arm plans against: a cluster
// that loses a node several times within one of these queries.
var ftModel = cost.Model{MTBF: 0.3, MTTR: 0.05, Percentile: 0.95, PipeConst: 1, Nodes: nodes}

// The five arms of the paper's comparison. clean is the failure-free run
// every overhead is a ratio to; the other four replay the round's failures.
var arms = []string{"clean", "allmat", "lineage", "restart", "costbased"}

// ftQuery is one query with a plan per materialization choice and its
// failure schedules.
type ftQuery struct {
	name      string
	ref       digest
	noMat     engine.Operator // clean, lineage and restart arms
	allMat    engine.Operator
	costBased engine.Operator
	matStages map[string]bool // stages the all-mat plan checkpoints
	schedules [][2]kill
	perRound  int // schedules (each run through all arms) per round
}

func (q *ftQuery) root(arm string) engine.Operator {
	switch arm {
	case "allmat":
		return q.allMat
	case "costbased":
		return q.costBased
	}
	return q.noMat
}

// ftRun is ft_schemes after set-up. A round runs Q3 under two schedules and
// Q5 under one, each through all five arms: 15 executions, two thirds of
// them Q3, so that neither the median nor the 95th percentile of the
// execution times falls in the gap between the two queries' clusters.
type ftRun struct {
	cat       *catalog
	queries   []*ftQuery
	tmp       string
	round     int
	attempted int
	failed    int
}

// opNames lists the plan's operators, producers first.
func opNames(root engine.Operator) []string {
	var out []string
	seen := map[engine.Operator]bool{}
	var walk func(engine.Operator)
	walk = func(o engine.Operator) {
		if seen[o] {
			return
		}
		seen[o] = true
		for _, in := range o.Inputs() {
			walk(in)
		}
		out = append(out, o.Name())
	}
	walk(root)
	return out
}

func setupFT(seed int64, tmp string) (runner, error) {
	cat, err := generate(seed, ftSF)
	if err != nil {
		return nil, err
	}
	tstats, err := cat.collectStats()
	if err != nil {
		return nil, err
	}
	f := &ftRun{cat: cat, tmp: tmp}
	for i, tq := range service.TPCHQueries()[1:] {
		stmt, err := sql.Parse(tq.Text)
		if err != nil {
			return nil, err
		}
		q := &ftQuery{name: tq.Name, matStages: map[string]bool{}, perRound: 2 - i}
		if q.ref, err = reference(cat.cat, tq.Text); err != nil {
			return nil, err
		}
		noMat, err := sql.Compile(stmt, cat.cat)
		if err != nil {
			return nil, err
		}
		allMat, err := sql.Compile(stmt, cat.cat)
		if err != nil {
			return nil, err
		}
		for _, j := range allMat.Joins {
			j.SetMaterialize(true)
			q.matStages[j.Name()] = true
		}
		audit, err := sql.BuildAuditPlan(stmt, cat.cat, tstats, planParams, ftModel)
		if err != nil {
			return nil, err
		}
		q.noMat, q.allMat, q.costBased = noMat.Root, allMat.Root, audit.Phys.Root
		q.schedules = failureSchedules(seed, q.name, opNames(q.noMat), 1024)
		f.queries = append(f.queries, q)
	}
	// Warm-up: one round.
	if _, err := f.runRound(nil, nil); err != nil {
		return nil, err
	}
	if f.failed > 0 {
		return nil, fmt.Errorf("ft_schemes warm-up: %d of %d results differ from the staged reference", f.failed, f.attempted)
	}
	return f, nil
}

func (f *ftRun) close() {}

// runArm executes one arm of q under sched with a fresh DiskStore, which is
// removed afterwards: a store that outlived the execution would let the next
// one resume from its checkpoints.
func (f *ftRun) runArm(rec *recorder, q *ftQuery, arm string, sched [2]kill) (execution, error) {
	dir, err := os.MkdirTemp(f.tmp, "ckpt-")
	if err != nil {
		return execution{}, err
	}
	defer os.RemoveAll(dir)
	store, err := engine.NewDiskStore(dir)
	if err != nil {
		return execution{}, err
	}
	cfg := runtime.Config{Nodes: nodes, Store: store}
	if arm != "clean" {
		inj := engine.NewScriptedFailures()
		for _, k := range sched {
			inj.Add(k.Op, k.Part, 0)
		}
		cfg.Injector = inj
	}
	if arm == "restart" {
		cfg.Recovery = schemes.CoarseRestart
	}
	ex, err := execute(rec, 0, f.attempted, cfg, q.root(arm))
	f.attempted++
	if err == nil {
		err = store.Err()
	}
	if err != nil {
		return ex, fmt.Errorf("%s %s: %w", q.name, arm, err)
	}
	if digestResult(ex.res) != q.ref {
		f.failed++
	}
	return ex, nil
}

// runRound runs one round; the arm order rotates with the round so that no
// arm always runs on the heap its predecessor left. each sees every
// execution.
func (f *ftRun) runRound(rec *recorder, each func(q *ftQuery, arm string, ex execution)) ([]float64, error) {
	var latencyMS []float64
	for _, q := range f.queries {
		for k := 0; k < q.perRound; k++ {
			sched := q.schedules[(f.round*q.perRound+k)%len(q.schedules)]
			for a := range arms {
				arm := arms[(a+f.round)%len(arms)]
				ex, err := f.runArm(rec, q, arm, sched)
				if err != nil {
					return nil, err
				}
				latencyMS = append(latencyMS, ex.wall.Seconds()*1e3)
				if each != nil {
					each(q, arm, ex)
				}
			}
		}
	}
	f.round++
	return latencyMS, nil
}

// measure ranks its trials by how long their clean executions took, not by
// their throughput: rounds differ in where their failures land, so the
// fastest trials would be those with the cheapest failure schedules, whereas
// the clean arm does the same work in every round and tells only how quiet
// the host was.
func (f *ftRun) measure(seconds float64) (outcome, error) {
	f.attempted, f.failed, f.round = 0, 0, 0
	var cleanMS []float64 // per trial: mean time of a clean execution
	ts, err := trials(seconds, trialSeconds, func(until time.Time) ([]float64, float64, error) {
		var latencyMS, clean []float64
		for len(latencyMS) == 0 || time.Now().Before(until) {
			lat, err := f.runRound(nil, func(_ *ftQuery, arm string, ex execution) {
				if arm == "clean" {
					clean = append(clean, ex.wall.Seconds()*1e3)
				}
			})
			if err != nil {
				return nil, 0, err
			}
			latencyMS = append(latencyMS, lat...)
		}
		cleanMS = append(cleanMS, mean(clean))
		return latencyMS, float64(len(latencyMS)), nil
	})
	if err != nil {
		return outcome{}, err
	}
	for i := range ts {
		ts[i].quiet = -cleanMS[i]
	}
	return outcome{attempted: f.attempted, failed: f.failed, metrics: closedLoopMetrics(ts)}, nil
}

// trace runs rounds untraced, then traced, then probes the checkpoint codec
// and the disk store on their own. The program's counters are summed over
// the first countRounds traced rounds only, a number fixed by -seconds, so
// that they repeat exactly for a seed however many rounds the host manages
// (wasted and stalled seconds are summed over the same rounds); the other
// timings use every traced round.
func (f *ftRun) trace(seconds float64, rec *recorder) (outcome, error) {
	f.attempted, f.failed, f.round = 0, 0, 0
	start, ops := time.Now(), 0
	for until := deadline(0.15 * seconds); ops == 0 || time.Now().Before(until); {
		lat, err := f.runRound(nil, nil)
		if err != nil {
			return outcome{}, err
		}
		ops += len(lat)
	}
	untraced := float64(ops) / time.Since(start).Seconds()

	countRounds := max(1, int(seconds/3))
	armSeconds := map[string]float64{}
	var failures, recomputed, restarts, matParts, ckptBytes, matRows, allMatBytes, wasted, stall, ckptMaxMS float64
	var ckptAvgMS []float64
	rounds := 0
	start, ops = time.Now(), 0
	for until := deadline(0.55 * seconds); rounds < countRounds || time.Now().Before(until); rounds++ {
		counting := rounds < countRounds
		lat, err := f.runRound(rec, func(q *ftQuery, arm string, ex execution) {
			armSeconds[arm] += ex.wall.Seconds()
			if ex.snap.CheckpointParts > 0 {
				ckptAvgMS = append(ckptAvgMS, ex.snap.CheckpointAvg.Seconds()*1e3)
				ckptMaxMS = max(ckptMaxMS, ex.snap.CheckpointMax.Seconds()*1e3)
			}
			if !counting {
				return
			}
			wasted += ex.snap.WastedSeconds
			stall += ex.stall
			failures += float64(ex.report.Failures)
			recomputed += float64(ex.report.RecomputedPartitions)
			restarts += float64(ex.report.Restarts)
			matParts += float64(ex.report.MaterializedPartitions)
			ckptBytes += float64(ex.snap.CheckpointBytes)
			if arm == "allmat" {
				allMatBytes += float64(ex.snap.CheckpointBytes)
				for _, st := range ex.snap.Stages {
					if q.matStages[st.Stage] {
						matRows += float64(st.Rows)
					}
				}
			}
		})
		if err != nil {
			return outcome{}, err
		}
		ops += len(lat)
	}
	traced := float64(ops) / time.Since(start).Seconds()

	m, err := f.storeProbes(rec, 0.3*seconds)
	if err != nil {
		return outcome{}, err
	}
	clean := armSeconds["clean"]
	overhead := func(arm string) measured { return exact(armSeconds[arm]/clean, "ratio") }
	bestOther := min(armSeconds["allmat"], armSeconds["lineage"], armSeconds["restart"])
	m["ft.clean_total_s"] = exact(clean, "s")
	m["ft.costbased_overhead"] = overhead("costbased")
	m["ft.allmat_overhead"] = overhead("allmat")
	m["ft.lineage_overhead"] = overhead("lineage")
	m["ft.restart_overhead"] = overhead("restart")
	m["ft.costbased_regret"] = exact(armSeconds["costbased"]/bestOther, "ratio")
	m["ft.ckpt_bytes_per_row"] = exact(allMatBytes/max(matRows, 1), "B")
	m["runtime.failures"] = exact(failures, "count")
	m["runtime.recomputed_parts"] = exact(recomputed, "count")
	m["runtime.restarts"] = exact(restarts, "count")
	m["runtime.materialized_parts"] = exact(matParts, "count")
	m["runtime.ckpt_bytes"] = exact(ckptBytes, "B")
	m["runtime.wasted_s"] = exact(wasted, "s")
	m["runtime.ckpt_stall_s"] = exact(stall, "s")
	m["runtime.ckpt_avg_ms"] = medianOf(ckptAvgMS, "ms")
	m["runtime.ckpt_max_ms"] = exact(ckptMaxMS, "ms")
	m["bench.trace_overhead_frac"] = traceOverhead(untraced, traced)
	f.cat.merge(m)
	return outcome{attempted: f.attempted, failed: f.failed, metrics: m}, nil
}

// storeProbes times the column-block codec and the disk store on one
// lineitem partition, outside any query. The store writes a temporary file,
// fsyncs it and renames it, as it does for every checkpoint.
func (f *ftRun) storeProbes(rec *recorder, seconds float64) (map[string]measured, error) {
	li, err := f.cat.cat.Table("lineitem")
	if err != nil {
		return nil, err
	}
	rows := li.Parts[0]
	dir, err := os.MkdirTemp(f.tmp, "probe-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	store, err := engine.NewDiskStore(dir)
	if err != nil {
		return nil, err
	}
	var encodeNS, decodeNS, putMS, getMS []float64
	var block []byte
	until := deadline(seconds)
	for pass := 0; pass < 3 || time.Now().Before(until); pass++ {
		var ok bool
		d := rec.timed("engine.EncodeColumnBlock", 0, pass, func() { block, ok = engine.EncodeColumnBlock(rows) })
		if !ok {
			return nil, fmt.Errorf("lineitem rows have no column-block form")
		}
		encodeNS = append(encodeNS, float64(d.Nanoseconds())/float64(len(rows)))
		var err error
		d = rec.timed("engine.DecodeBlockFile", 0, pass, func() { _, err = engine.DecodeBlockFile(block) })
		if err != nil {
			return nil, err
		}
		decodeNS = append(decodeNS, float64(d.Nanoseconds())/float64(len(rows)))
		d = rec.timed("engine.DiskStore.Put", 0, pass, func() { err = store.Put("probe", pass%nodes, rows, nodes) })
		if err != nil {
			return nil, err
		}
		putMS = append(putMS, d.Seconds()*1e3)
		d = rec.timed("engine.DiskStore.Get", 0, pass, func() { _, ok = store.Get("probe", pass%nodes) })
		if !ok {
			return nil, fmt.Errorf("disk store lost the partition it just wrote: %v", store.Err())
		}
		getMS = append(getMS, d.Seconds()*1e3)
	}
	return map[string]measured{
		"engine.colblock_encode_ns_row": medianOf(encodeNS, "ns"),
		"engine.colblock_decode_ns_row": medianOf(decodeNS, "ns"),
		"engine.colblock_bytes_row":     exact(float64(len(block))/float64(len(rows)), "B"),
		"engine.diskstore_put_ms":       medianOf(putMS, "ms"),
		"engine.diskstore_get_ms":       medianOf(getMS, "ms"),
	}, nil
}
