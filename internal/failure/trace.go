package failure

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Trace holds the failure arrival times (in cost units, relative to query
// start) for every node of a cluster. Traces are generated once per
// (MTBF, seed) pair and replayed against every fault-tolerance scheme so the
// schemes are compared under identical failure sequences — the methodology
// the paper uses ("we created 10 failure traces for each unique MTBF ... and
// used the same set of traces for injecting failures").
type Trace struct {
	// PerNode[i] contains the strictly increasing failure times of node i.
	PerNode [][]float64
}

// NewTrace draws exponential inter-arrival failure times (rate 1/MTBF) for
// each of spec.Nodes nodes, up to horizon time units, using the given seed.
// The result is deterministic for a fixed (spec, horizon, seed).
func NewTrace(spec Spec, horizon float64, seed int64) *Trace {
	rng := rand.New(rand.NewSource(seed))
	tr := &Trace{PerNode: make([][]float64, spec.Nodes)}
	for i := 0; i < spec.Nodes; i++ {
		var times []float64
		t := 0.0
		for {
			t += rng.ExpFloat64() * spec.MTBF
			if t > horizon {
				break
			}
			times = append(times, t)
		}
		tr.PerNode[i] = times
	}
	return tr
}

// NewTraces generates count independent traces with seeds seed, seed+1, ...
func NewTraces(spec Spec, horizon float64, seed int64, count int) []*Trace {
	traces := make([]*Trace, count)
	for i := range traces {
		traces[i] = NewTrace(spec, horizon, seed+int64(i))
	}
	return traces
}

// newWeibullTrace draws Weibull-distributed inter-arrival failure times with
// the given shape parameter and a scale chosen so the mean stays spec.MTBF.
// Shape 1 recovers the exponential model the paper (and our cost model)
// assumes; shape < 1 models infant mortality (bursty failures), shape > 1
// models wear-out (failures cluster around the MTBF). Used to probe how the
// memorylessness assumption affects estimate accuracy.
func newWeibullTrace(spec Spec, horizon float64, seed int64, shape float64) (*Trace, error) {
	if shape <= 0 {
		return nil, fmt.Errorf("failure: Weibull shape must be positive, got %g", shape)
	}
	scale := spec.MTBF / math.Gamma(1+1/shape)
	rng := rand.New(rand.NewSource(seed))
	tr := &Trace{PerNode: make([][]float64, spec.Nodes)}
	for i := 0; i < spec.Nodes; i++ {
		var times []float64
		t := 0.0
		for {
			u := rng.Float64()
			for u == 0 {
				u = rng.Float64()
			}
			t += scale * math.Pow(-math.Log(u), 1/shape)
			if t > horizon {
				break
			}
			times = append(times, t)
		}
		tr.PerNode[i] = times
	}
	return tr, nil
}

// NewWeibullTraces generates count independent Weibull traces.
func NewWeibullTraces(spec Spec, horizon float64, seed int64, count int, shape float64) ([]*Trace, error) {
	traces := make([]*Trace, count)
	for i := range traces {
		tr, err := newWeibullTrace(spec, horizon, seed+int64(i), shape)
		if err != nil {
			return nil, err
		}
		traces[i] = tr
	}
	return traces, nil
}

// NextFailure returns the earliest failure of node at or after time t, or
// +Inf if the node never fails again within the trace horizon.
func (tr *Trace) NextFailure(node int, t float64) float64 {
	if node < 0 || node >= len(tr.PerNode) {
		return math.Inf(1)
	}
	times := tr.PerNode[node]
	i := sort.SearchFloat64s(times, t)
	if i >= len(times) {
		return math.Inf(1)
	}
	return times[i]
}

// NextClusterFailure returns the earliest failure on any node at or after
// time t, together with the failing node. If no node fails again it returns
// (+Inf, -1).
func (tr *Trace) NextClusterFailure(t float64) (float64, int) {
	best := math.Inf(1)
	node := -1
	for i := range tr.PerNode {
		if ft := tr.NextFailure(i, t); ft < best {
			best = ft
			node = i
		}
	}
	return best, node
}

// From returns the arrivals at or after t on a clock that starts at t:
// executions laid end to end on one trace each see the rest of it.
func (tr *Trace) From(t float64) *Trace {
	out := &Trace{PerNode: make([][]float64, len(tr.PerNode))}
	for i, times := range tr.PerNode {
		for _, f := range times[sort.SearchFloat64s(times, t):] {
			out.PerNode[i] = append(out.PerNode[i], f-t)
		}
	}
	return out
}

// Nodes returns the number of nodes covered by the trace.
func (tr *Trace) Nodes() int { return len(tr.PerNode) }
