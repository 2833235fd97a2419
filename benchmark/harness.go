package main

import (
	"fmt"
	goruntime "runtime"
	"sort"
	"time"
)

// spec declares one metric; BENCHMARK.json repeats these tables and the
// smoke test holds the two together.
type spec struct {
	Name   string
	Unit   string
	Better string
	Bound  float64 // end-to-end only: allowed worsening of the median
}

// endToEnd are the metrics a user of ftpde sees, reported by every workload
// from its untraced run. What one operation is differs by workload (a session
// of five query replies, a round of three queries, one runtime.Execute, one
// optimizer suite pass); README.md has the table, and the measurements behind
// the bounds.
var endToEnd = []spec{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_ops_s", "1/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_p95_ms", "ms", "lower", 0.25},
	{"alloc_mb_per_op", "MB", "lower", 0.1},
}

// outcome is what one run of a workload reports.
type outcome struct {
	attempted int
	failed    int
	metrics   map[string]measured
}

// runner is a workload after set-up. measure is the untraced run that gives
// the end-to-end metrics; trace repeats the workload with spans recorded
// around every call into a layer and gives the per-layer metrics.
type runner interface {
	measure(seconds float64) (outcome, error)
	trace(seconds float64, rec *recorder) (outcome, error)
	close()
}

type workload struct {
	name string
	why  string
	// setup builds the workload's inputs from seed; tmp is a directory the
	// workload may write under.
	setup func(seed int64, tmp string) (runner, error)
}

var workloads = []workload{
	{"serve_mixed", "sessions of Q1/Q3/Q5 over TCP, 70% repeated texts: the one workload where every layer runs and none dominates", setupServe},
	{"exec_scan_join", "precompiled plans on the bare runtime: engine kernels and the pipeline do all the work, planner and service none", setupExec},
	{"ft_schemes", "the paper's experiment: five fault-tolerance arms replay one scripted failure schedule; checkpoint and recovery paths dominate", setupFT},
	{"plan_enum", "optimizer only, no row touched: join-order and materialization enumeration with pruning", setupPlan},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// trialSeconds is how long one trial of a run lasts: the host's disturbances
// last from a fraction of a second to fifteen (README.md, "Noise"), so a
// trial of half a second is short enough to be mostly inside one or outside
// them all, and still holds three of the longest operations.
const trialSeconds = 0.5

// trial is one stretch of an untraced run.
type trial struct {
	ops       float64 // operations completed
	seconds   float64
	allocMB   float64   // MemStats.TotalAlloc delta
	latencyMS []float64 // one sample per operation
	// quiet ranks the trial against the others of its run, higher is
	// quieter: the throughput of a closed loop unless the workload has a
	// better witness, minus the mean latency of an open one.
	quiet float64
}

func (t trial) opsPerS() float64 { return t.ops / t.seconds }

// trials cuts seconds into trials of each seconds and runs body once per
// trial; body works until its deadline and returns the latency of every
// operation it completed and how many those were (a workload whose clients
// stop in the middle of an operation counts the finished part of it). The
// boundaries between trials are fixed when the run starts and a trial ends at
// the first one its last operation reaches, so the run ends at most one
// operation late however long an operation is.
func trials(seconds, each float64, body func(until time.Time) (latencyMS []float64, ops float64, err error)) ([]trial, error) {
	var (
		out           []trial
		before, after goruntime.MemStats
	)
	n := max(1, int(seconds/each+0.5))
	per := time.Duration(seconds / float64(n) * float64(time.Second))
	begin := time.Now()
	for time.Since(begin) < time.Duration(n)*per {
		goruntime.ReadMemStats(&before)
		start := time.Now()
		lat, ops, err := body(begin.Add((start.Sub(begin)/per + 1) * per))
		elapsed := time.Since(start).Seconds()
		if err != nil {
			return nil, err
		}
		if ops == 0 {
			return nil, fmt.Errorf("a trial of %v completed no operation", per)
		}
		goruntime.ReadMemStats(&after)
		out = append(out, trial{
			ops:       ops,
			seconds:   elapsed,
			allocMB:   float64(after.TotalAlloc-before.TotalAlloc) / 1e6,
			latencyMS: lat,
			quiet:     ops / elapsed,
		})
	}
	return out, nil
}

// quietQuarter returns the quietest quarter of ts. The host this runs on is
// shared, and what its other tenants do to a run is one-sided: for seconds at
// a time the program gets less of the machine, never more. The trials that
// got the most are therefore the better estimate of what the program does,
// and every timed end-to-end metric is taken over them: a slower program is
// slower in every trial, quiet ones included, whereas a neighbour's burst
// moves only the trials it hits.
func quietQuarter(ts []trial) []trial {
	s := append([]trial(nil), ts...)
	sort.SliceStable(s, func(i, j int) bool { return s[i].quiet > s[j].quiet })
	return s[:max(1, (len(s)+2)/4)]
}

// rateMetrics are throughput_ops_s, the median over the quiet quarter of the
// trials, and alloc_mb_per_op, which the host does not move and which is
// therefore taken over the whole run; both with the quartiles of the
// per-trial values.
func rateMetrics(ts []trial) map[string]measured {
	var quiet, rates, allocs []float64
	var allocMB, ops float64
	for _, t := range quietQuarter(ts) {
		quiet = append(quiet, t.opsPerS())
	}
	for _, t := range ts {
		rates = append(rates, t.opsPerS())
		allocs = append(allocs, t.allocMB/t.ops)
		allocMB, ops = allocMB+t.allocMB, ops+t.ops
	}
	return map[string]measured{
		"throughput_ops_s": {Value: median(quiet), Unit: "1/s", Q1: percentile(rates, 0.25), Q3: percentile(rates, 0.75), N: len(ts)},
		"alloc_mb_per_op":  {Value: allocMB / ops, Unit: "MB", Q1: percentile(allocs, 0.25), Q3: percentile(allocs, 0.75), N: len(ts)},
	}
}

// latencyMetrics are latency_p50_ms and latency_p95_ms: percentiles of the
// operations of the quiet quarter of the trials, pooled, with the quartiles of
// the same percentile taken trial by trial over all of them.
func latencyMetrics(ts []trial) map[string]measured {
	var pool []float64
	for _, t := range quietQuarter(ts) {
		pool = append(pool, t.latencyMS...)
	}
	pick := func(p float64) measured {
		var all []float64
		for _, t := range ts {
			all = append(all, percentile(t.latencyMS, p))
		}
		return measured{Value: percentile(pool, p), Unit: "ms", Q1: percentile(all, 0.25), Q3: percentile(all, 0.75), N: len(pool)}
	}
	return map[string]measured{"latency_p50_ms": pick(0.50), "latency_p95_ms": pick(0.95)}
}

// closedLoopMetrics are the four measured end-to-end metrics of a workload
// whose one closed loop gives them all.
func closedLoopMetrics(ts []trial) map[string]measured {
	m := rateMetrics(ts)
	for k, v := range latencyMetrics(ts) {
		m[k] = v
	}
	return m
}

// deadline returns the time seconds from now.
func deadline(seconds float64) time.Time {
	return time.Now().Add(time.Duration(seconds * float64(time.Second)))
}

// traceOverhead is bench.trace_overhead_frac: the share of throughput lost
// between an untraced and a traced stretch of the same run.
func traceOverhead(untraced, traced float64) measured {
	return exact((untraced-traced)/untraced, "ratio")
}

// selfMedian is the median self time of the spans called name, in the unit
// that scale converts seconds to.
func selfMedian(self map[string][]float64, name string, scale float64, unit string) measured {
	return medianOf(scaled(self[name], scale), unit)
}

// host is the fingerprint printed with every result: numbers from different
// hosts are not comparable.
type host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

func fingerprint() host {
	return host{NumCPU: goruntime.NumCPU(), GOMAXPROCS: goruntime.GOMAXPROCS(0), GoVersion: goruntime.Version()}
}
