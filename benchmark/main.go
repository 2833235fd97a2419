// Command benchmark is ftpde's reference benchmark: one seeded harness, four
// workloads, end-to-end metrics from an untraced run and per-layer metrics
// from a traced one. It measures every layer from outside, by timing calls
// into exported functions and reading exported counters. README.md in this
// directory says what each workload and metric is for.
//
//	go run ./benchmark -seed 1                        # all workloads, both runs
//	go run ./benchmark -workload ft_schemes -trace 1  # one run, result line last
//	go run ./benchmark -seed 1 -out a.json            # keep the results
//	go run ./benchmark -compare a.json b.json         # differences against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	goruntime "runtime"
	"sort"
	"time"
)

// report is one run of one workload.
type report struct {
	Workload  string              `json:"workload"`
	Traced    bool                `json:"traced"`
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Metrics   map[string]measured `json:"metrics"`
}

// document is what -out writes and -compare reads.
type document struct {
	Host    host     `json:"host"`
	Seed    int64    `json:"seed"`
	Seconds float64  `json:"seconds"`
	Runs    []report `json:"runs"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload to run; empty runs all four, untraced then traced")
		seed    = fs.Int64("seed", 1, "the only source of randomness: literals, repeat choices, arrival times, failure tuples, DAGs, table data")
		seconds = fs.Float64("seconds", 28, "how long one run measures")
		traced  = fs.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics of an untraced run, 1 the per-layer metrics of a traced run")
		spans   = fs.String("spans", "", "write the traced runs' spans to this file as JSON")
		out     = fs.String("out", "", "write the results to this file as JSON, for -compare")
		tmp     = fs.String("tmp", ".bench_build/tmp", "directory for checkpoint files; created, and emptied of what the run wrote")
		compare = fs.Bool("compare", false, "compare two -out files: -compare a.json b.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if *compare {
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare takes two files"))
		}
		worse, err := compareFiles(stdout, fs.Arg(0), fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		if worse {
			return 1
		}
		return 0
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		return fail(fmt.Errorf("-seconds must be positive and -trace 0 or 1"))
	}

	reserveCPU()
	if err := os.MkdirAll(*tmp, 0o755); err != nil {
		return fail(err)
	}
	dir, err := os.MkdirTemp(*tmp, "run-")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(dir)

	doc := document{Host: fingerprint(), Seed: *seed, Seconds: *seconds}
	fmt.Fprintf(stdout, "host: nproc=%d GOMAXPROCS=%d %s; seed=%d seconds=%g\n",
		doc.Host.NumCPU, doc.Host.GOMAXPROCS, doc.Host.GoVersion, *seed, *seconds)
	rec := newRecorder()
	selected := workloads
	modes := []bool{false, true}
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			return fail(fmt.Errorf("unknown workload %q", *name))
		}
		selected, modes = []workload{w}, []bool{*traced == 1}
	}
	setups := 3
	if len(modes) == 1 && modes[0] {
		setups = 1 // a traced run reports no setup_s
	}
	correct := true
	for _, w := range selected {
		r, setupS, err := setUp(w, *seed, dir, setups)
		if err != nil {
			return fail(fmt.Errorf("%s: %w", w.name, err))
		}
		for _, mode := range modes {
			rep, err := runOne(w, r, setupS, *seconds, mode, rec)
			if err != nil {
				r.close()
				return fail(fmt.Errorf("%s: %w", w.name, err))
			}
			printReport(stdout, rep)
			doc.Runs = append(doc.Runs, rep)
			correct = correct && rep.Correct
		}
		r.close()
	}
	if *spans != "" {
		if err := rec.write(*spans); err != nil {
			return fail(err)
		}
	}
	if *out != "" {
		body, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return fail(err)
		}
		if err := os.WriteFile(*out, append(body, '\n'), 0o644); err != nil {
			return fail(err)
		}
	}
	if *name != "" {
		if err := printResultLine(stdout, doc.Runs[0]); err != nil {
			return fail(err)
		}
	}
	if !correct {
		return fail(fmt.Errorf("a result differed from its reference"))
	}
	return 0
}

// reserveCPU leaves one CPU to the host: the program and the load generator
// together run on nproc-1 threads (one, on the two-CPU sandbox this was
// written on), unless GOMAXPROCS is set in the environment. With a thread on
// every CPU the runtime's partitions wait for whichever thread a neighbour of
// this virtual machine has displaced, and the same round of queries read
// anything from 76 to 138 ms for ten seconds at a time; on one thread it
// reads 130 to 150 (README.md, "Noise").
func reserveCPU() {
	if os.Getenv("GOMAXPROCS") == "" {
		goruntime.GOMAXPROCS(max(1, goruntime.NumCPU()-1))
	}
}

// setUp sets a workload up times times and keeps the last; the median of the
// set-up times is setup_s, so that one slow set-up does not pass for a
// regression.
func setUp(w workload, seed int64, tmp string, times int) (runner, []float64, error) {
	var (
		r      runner
		setupS []float64
	)
	for i := 0; i < times; i++ {
		if r != nil {
			r.close()
		}
		start := time.Now()
		var err error
		if r, err = w.setup(seed, tmp); err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	return r, setupS, nil
}

// runOne runs a workload once, untraced or traced, and checks that it
// reported exactly the metrics declared for that kind of run.
func runOne(w workload, r runner, setupS []float64, seconds float64, traced bool, rec *recorder) (report, error) {
	var (
		o     outcome
		err   error
		specs = endToEnd
	)
	if traced {
		specs = perLayer
		o, err = r.trace(seconds, rec)
	} else {
		o, err = r.measure(seconds)
		if err == nil {
			o.metrics["setup_s"] = medianOf(setupS, "s")
		}
	}
	if err != nil {
		return report{}, err
	}
	rep := report{Workload: w.name, Traced: traced, Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]measured{}}
	for _, s := range specs {
		m, ok := o.metrics[s.Name]
		if !ok {
			m = exact(0, s.Unit) // a layer that is not on this workload's path
		}
		if m.Unit != s.Unit {
			return report{}, fmt.Errorf("metric %s reported in %q, declared in %q", s.Name, m.Unit, s.Unit)
		}
		rep.Metrics[s.Name] = m
		delete(o.metrics, s.Name)
	}
	for name := range o.metrics {
		return report{}, fmt.Errorf("metric %s is reported but not declared", name)
	}
	return rep, nil
}

func printReport(w io.Writer, rep report) {
	kind := "end-to-end (untraced run)"
	if rep.Traced {
		kind = "per-layer (traced run)"
	}
	fmt.Fprintf(w, "\n%s: %s, %d operations, %d failed\n", rep.Workload, kind, rep.Attempted, rep.Failed)
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rep.Metrics[n]
		fmt.Fprintf(w, "  %-34s %14.6g %-5s  quartiles %.6g..%.6g  n=%d\n", n, m.Value, m.Unit, m.Q1, m.Q3, m.N)
	}
}

// printResultLine prints the run as the one JSON object the benchmark
// contract asks for on the last line of standard output.
func printResultLine(w io.Writer, rep report) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, map[string]value{}}
	for n, m := range rep.Metrics {
		line.Metrics[n] = value{m.Value, m.Unit}
	}
	body, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", body)
	return err
}
