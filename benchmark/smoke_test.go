package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// declared is the part of BENCHMARK.json the harness must agree with.
type declared struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	body, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(body, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestDeclarationsMatch holds BENCHMARK.json and the harness's own tables
// together: same workloads, same metrics, same units, directions and bounds.
func TestDeclarationsMatch(t *testing.T) {
	d := readDeclared(t)
	if len(d.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the harness has %d", len(d.Workloads), len(workloads))
	}
	for i, w := range d.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the harness %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	if len(d.EndToEnd) != len(endToEnd) || len(d.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json declares %d+%d metrics, the harness has %d+%d", len(d.EndToEnd), len(d.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range d.EndToEnd {
		if got := (spec{m.Name, m.Unit, m.Better, m.Bound}); got != endToEnd[i] {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the harness %+v", i, got, endToEnd[i])
		}
	}
	for i, m := range d.PerLayer {
		if got := (spec{Name: m.Name, Unit: m.Unit, Better: m.Better}); got != perLayer[i] {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the harness %+v", i, got, perLayer[i])
		}
	}
}

// TestSmoke runs every workload for 0.4 s, a seventieth of its length,
// untraced and traced, and checks that each run reports every metric declared
// for it exactly once under a well-formed name and that no operation fails. It
// asserts nothing about the values: under go test ./... other packages'
// tests share the CPUs.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all four workloads")
	}
	d := readDeclared(t)
	want := map[bool][]string{}
	for _, m := range d.EndToEnd {
		want[false] = append(want[false], m.Name)
	}
	for _, m := range d.PerLayer {
		want[true] = append(want[true], m.Name)
	}
	wellFormed := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			r, setupS, err := setUp(w, 1, t.TempDir(), 1)
			if err != nil {
				t.Fatal(err)
			}
			defer r.close()
			for _, traced := range []bool{false, true} {
				rep, err := runOne(w, r, setupS, 0.4, traced, newRecorder())
				if err != nil {
					t.Fatalf("traced=%v: %v", traced, err)
				}
				if rep.Failed != 0 || rep.Attempted == 0 || !rep.Correct {
					t.Errorf("traced=%v: %d of %d operations failed", traced, rep.Failed, rep.Attempted)
				}
				if len(rep.Metrics) != len(want[traced]) {
					t.Errorf("traced=%v: %d metrics reported, %d declared", traced, len(rep.Metrics), len(want[traced]))
				}
				for _, name := range want[traced] {
					if _, ok := rep.Metrics[name]; !ok {
						t.Errorf("traced=%v: declared metric %s not reported", traced, name)
					}
					if !wellFormed.MatchString(name) {
						t.Errorf("metric name %q is not well formed", name)
					}
				}
			}
		})
	}
}
