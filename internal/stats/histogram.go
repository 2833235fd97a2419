package stats

import (
	"fmt"
	"sort"
)

// Histogram is an equi-depth histogram over a numeric column: bucket
// boundaries chosen so each bucket holds ~the same number of values.
// It estimates range- and equality-predicate selectivities, replacing the
// fixed magic constants classical optimizers fall back to.
type Histogram struct {
	// Bounds holds len(buckets)+1 boundaries; bucket i covers
	// [Bounds[i], Bounds[i+1]) except the last, which is inclusive.
	Bounds []float64
	// Counts holds per-bucket value counts.
	Counts []int
	// Total is the number of values summarized.
	Total int
	// DistinctEst estimates the number of distinct values.
	DistinctEst float64
}

// BuildHistogram summarizes values into at most buckets equi-depth buckets.
func BuildHistogram(values []float64, buckets int) (*Histogram, error) {
	if buckets < 1 {
		return nil, fmt.Errorf("stats: need at least one bucket, got %d", buckets)
	}
	if len(values) == 0 {
		return nil, fmt.Errorf("stats: no values to summarize")
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)

	distinct := 1.0
	for i := 1; i < len(sorted); i++ {
		if sorted[i] != sorted[i-1] {
			distinct++
		}
	}

	if buckets > len(sorted) {
		buckets = len(sorted)
	}
	h := &Histogram{Total: len(sorted), DistinctEst: distinct}
	per := len(sorted) / buckets
	rem := len(sorted) % buckets
	idx := 0
	h.Bounds = append(h.Bounds, sorted[0])
	for b := 0; b < buckets; b++ {
		n := per
		if b < rem {
			n++
		}
		if n == 0 {
			continue
		}
		idx += n
		h.Counts = append(h.Counts, n)
		if idx < len(sorted) {
			h.Bounds = append(h.Bounds, sorted[idx])
		} else {
			h.Bounds = append(h.Bounds, sorted[len(sorted)-1])
		}
	}
	return h, nil
}

// selectivityLess estimates P(col < v).
func (h *Histogram) selectivityLess(v float64) float64 {
	if v <= h.Bounds[0] {
		return 0
	}
	last := h.Bounds[len(h.Bounds)-1]
	if v > last {
		return 1
	}
	seen := 0.0
	for b := 0; b < len(h.Counts); b++ {
		lo, hi := h.Bounds[b], h.Bounds[b+1]
		if v >= hi {
			seen += float64(h.Counts[b])
			continue
		}
		// Linear interpolation within the bucket.
		if hi > lo {
			seen += float64(h.Counts[b]) * (v - lo) / (hi - lo)
		}
		break
	}
	sel := seen / float64(h.Total)
	if sel < 0 {
		sel = 0
	}
	if sel > 1 {
		sel = 1
	}
	return sel
}

// selectivityGreater estimates P(col > v).
func (h *Histogram) selectivityGreater(v float64) float64 {
	s := 1 - h.selectivityLess(v) - h.selectivityEq(v)
	if s < 0 {
		return 0
	}
	return s
}

// selectivityEq estimates P(col = v) using the uniform-within-distinct
// assumption.
func (h *Histogram) selectivityEq(v float64) float64 {
	if v < h.Bounds[0] || v > h.Bounds[len(h.Bounds)-1] {
		return 0
	}
	if h.DistinctEst <= 0 {
		return 0
	}
	return 1 / h.DistinctEst
}

// Selectivity dispatches on a comparison operator string (the SQL dialect's
// operators).
func (h *Histogram) Selectivity(op string, v float64) (float64, error) {
	switch op {
	case "=":
		return h.selectivityEq(v), nil
	case "<>", "!=":
		return 1 - h.selectivityEq(v), nil
	case "<":
		return h.selectivityLess(v), nil
	case "<=":
		return h.selectivityLess(v) + h.selectivityEq(v), nil
	case ">":
		return h.selectivityGreater(v), nil
	case ">=":
		return h.selectivityGreater(v) + h.selectivityEq(v), nil
	default:
		return 0, fmt.Errorf("stats: unknown operator %q", op)
	}
}
