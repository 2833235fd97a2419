package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func readDocument(path string) (document, error) {
	var doc document
	body, err := os.ReadFile(path)
	if err != nil {
		return doc, err
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return doc, fmt.Errorf("%s: %w", path, err)
	}
	return doc, nil
}

// worsening is how much worse b is than a as a share of a, in the metric's
// own direction: positive is worse, negative better.
func worsening(s spec, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if s.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareFiles prints, per workload and end-to-end metric, how b differs
// from a against the metric's bound, and reports whether any bound is
// exceeded or a side has failed operations.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := readDocument(pathA)
	if err != nil {
		return false, err
	}
	b, err := readDocument(pathB)
	if err != nil {
		return false, err
	}
	if a.Host != b.Host {
		fmt.Fprintf(w, "hosts differ (%+v vs %+v): the numbers are not comparable\n", a.Host, b.Host)
	}
	untraced := func(d document) map[string]report {
		out := map[string]report{}
		for _, r := range d.Runs {
			if !r.Traced {
				out[r.Workload] = r
			}
		}
		return out
	}
	runsA, runsB := untraced(a), untraced(b)
	worse := false
	fmt.Fprintf(w, "%-15s %-18s %14s %14s %9s %7s\n", "workload", "metric", "a", "b", "worse by", "bound")
	for _, wl := range workloads {
		ra, okA := runsA[wl.name]
		rb, okB := runsB[wl.name]
		if !okA || !okB {
			continue
		}
		if ra.Failed > 0 || rb.Failed > 0 {
			fmt.Fprintf(w, "%-15s failed operations: a %d of %d, b %d of %d\n", wl.name, ra.Failed, ra.Attempted, rb.Failed, rb.Attempted)
			worse = true
		}
		for _, s := range endToEnd {
			d := worsening(s, ra.Metrics[s.Name].Value, rb.Metrics[s.Name].Value)
			verdict := ""
			if d > s.Bound {
				verdict = "  EXCEEDED"
				worse = true
			}
			fmt.Fprintf(w, "%-15s %-18s %14.6g %14.6g %+8.1f%% %6.0f%%%s\n", wl.name, s.Name,
				ra.Metrics[s.Name].Value, rb.Metrics[s.Name].Value, d*100, s.Bound*100, verdict)
		}
	}
	return worse, nil
}
