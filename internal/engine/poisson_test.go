package engine

import (
	"math"
	"testing"
	"time"
)

func TestPoissonArrivalsDeterministicPerSeed(t *testing.T) {
	a := NewPoissonFailures(2, 4, 7).Arrivals(400)
	b := NewPoissonFailures(2, 4, 7).Arrivals(400)
	if len(a) == 0 {
		t.Fatal("no arrivals generated")
	}
	if len(a) != len(b) {
		t.Fatalf("same seed, different arrival counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at arrival %d: %g vs %g", i, a[i], b[i])
		}
	}
	c := NewPoissonFailures(2, 4, 8).Arrivals(400)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical schedules")
	}
}

func TestPoissonArrivalsMatchRate(t *testing.T) {
	// 4 nodes, per-node MTBF 2s, horizon 400s: expect ~800 arrivals. The
	// standard deviation is sqrt(800) ≈ 28, so ±15% is a >4σ bound.
	const mtbf, nodes, horizon = 2.0, 4, 400.0
	arr := NewPoissonFailures(mtbf, nodes, 7).Arrivals(horizon)
	want := nodes * horizon / mtbf
	if rel := math.Abs(float64(len(arr))-want) / want; rel > 0.15 {
		t.Errorf("arrival count %d, want ~%g (rel %.3f)", len(arr), want, rel)
	}
	last := -1.0
	for _, a := range arr {
		if a < last {
			t.Fatal("arrivals not sorted")
		}
		if a < 0 || a >= horizon {
			t.Fatalf("arrival %g outside [0, %g)", a, horizon)
		}
		last = a
	}
}

func TestPoissonArrivalsIdempotent(t *testing.T) {
	p := NewPoissonFailures(2, 2, 3)
	a := p.Arrivals(100)
	b := p.Arrivals(100) // re-reading the log must not mutate it
	if len(a) != len(b) {
		t.Fatalf("repeated Arrivals changed the log: %d vs %d", len(a), len(b))
	}
	// A longer horizon is a superset of the shorter one.
	c := p.Arrivals(200)
	if len(c) < len(a) {
		t.Fatalf("longer horizon returned fewer arrivals: %d vs %d", len(c), len(a))
	}
	for i := range a {
		if c[i] != a[i] {
			t.Fatalf("longer horizon rewrote prefix at %d", i)
		}
	}
}

func TestPoissonNeverFiresWhenDisabled(t *testing.T) {
	for _, p := range []*PoissonFailures{
		NewPoissonFailures(0, 4, 1),  // non-positive MTBF
		NewPoissonFailures(-1, 4, 1), // negative MTBF
		NewPoissonFailures(2, 0, 1),  // no nodes
	} {
		if p.FailCompute("op", 0, 0) {
			t.Error("disabled injector fired")
		}
		if p.Arrivals(100) != nil && len(p.Arrivals(100)) != 0 {
			t.Error("disabled injector produced arrivals")
		}
	}
	p := NewPoissonFailures(2, 4, 1)
	if p.FailCompute("op", -1, 0) || p.FailCompute("op", 4, 0) {
		t.Error("out-of-range partition fired")
	}
}

func TestPoissonFailComputeConsumesArrivals(t *testing.T) {
	// With a 1ms MTBF, arrivals are essentially continuous; after sleeping a
	// few milliseconds the node must fail, and each firing consumes exactly
	// one scheduled arrival.
	p := NewPoissonFailures(0.001, 1, 9)
	time.Sleep(5 * time.Millisecond)
	if !p.FailCompute("op", 0, 0) {
		t.Fatal("overdue node did not fail")
	}
	fired := 1
	for i := 0; i < 1_000_000 && p.FailCompute("op", 0, 0); i++ {
		fired++
	}
	// Each firing consumes one scheduled arrival, so the drain must terminate
	// and the total cannot exceed what the node's schedule holds up to a clock
	// reading taken after the last firing.
	elapsed := time.Since(p.epoch).Seconds()
	if limit := len(p.Arrivals(elapsed)); fired > limit {
		t.Errorf("fired %d times, more than the %d arrivals scheduled in the elapsed %.4fs", fired, limit, elapsed)
	}
}
