package main

import (
	"encoding/json"
	"strings"
	"testing"
)

// inputsOf renders everything the harness draws from a seed for the
// workloads' inputs: the request streams, the arrival times, the failure
// schedules and the DAG seeds.
func inputsOf(t *testing.T, seed int64) string {
	t.Helper()
	rng := rngFor(seed, "dags")
	body, err := json.Marshal([]any{
		catalogSeed(seed),
		requestStream(seed, "closed", 200),
		requestStream(seed, "open", 200),
		arrivals(seed, 5),
		failureSchedules(seed, "Q3", []string{"scan-a", "scan-b", "join-1", "aggregate", "sort"}, 40),
		failureSchedules(seed, "Q5", []string{"scan-a", "scan-b", "join-1", "aggregate", "sort"}, 40),
		[]int64{rng.Int63(), rng.Int63(), rng.Int63()},
	})
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

func TestSameSeedSameInputs(t *testing.T) {
	if a, b := inputsOf(t, 7), inputsOf(t, 7); a != b {
		t.Error("the same seed gave different inputs")
	}
	if a, b := inputsOf(t, 7), inputsOf(t, 8); a == b {
		t.Error("different seeds gave the same inputs")
	}
}

// TestRequestStreamShape pins the traffic: every session (sessionSize
// requests in a row) is Q1:Q3:Q5 = 2:2:1, and about freshShare of the texts
// are outside the six repeated ones.
func TestRequestStreamShape(t *testing.T) {
	const n = 2000
	repeated := map[string]bool{}
	for _, pair := range repeatedTexts(3) {
		for _, text := range pair {
			repeated[text] = true
		}
	}
	kindOf := func(text string) int {
		switch {
		case strings.Contains(text, "n_name"):
			return 2
		case strings.Contains(text, "c_mktsegment"):
			return 1
		}
		return 0
	}
	fresh := 0
	var mix [3]int
	for i, req := range requestStream(3, "closed", n) {
		if !repeated[req.Query] {
			fresh++
		}
		if req.MaxRows != maxRows || req.Tenant == "" {
			t.Fatalf("request %+v lacks its row limit or tenant", req)
		}
		mix[kindOf(req.Query)]++
		if (i+1)%sessionSize == 0 {
			if mix != [3]int{2, 2, 1} {
				t.Fatalf("session ending at request %d is Q1:Q3:Q5 = %v, want 2:2:1", i, mix)
			}
			mix = [3]int{}
		}
	}
	if share := float64(fresh) / n; share < freshShare-0.05 || share > freshShare+0.05 {
		t.Errorf("fresh share %.3f, want about %.2f", share, freshShare)
	}
}

func TestFailureSchedulesCoverEveryOperator(t *testing.T) {
	ops := []string{"a", "b", "c", "d", "e", "f"}
	first := map[string]bool{}
	for _, s := range failureSchedules(5, "Q5", ops, len(ops)) {
		if s[0].Op == s[1].Op {
			t.Errorf("schedule kills %s twice", s[0].Op)
		}
		first[s[0].Op] = true
	}
	if len(first) != len(ops) {
		t.Errorf("first kills cover %d of %d operators in one cycle", len(first), len(ops))
	}
}
