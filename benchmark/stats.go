package main

import (
	"math"
	"sort"
)

// measured is one reported metric. Value is what the result line prints;
// Q1/Q3/N carry the noise accounting into the -out document: for a metric
// taken per trial they are the quartiles of the trial values, for a pooled
// timing the quartiles of the samples.
type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
}

// percentile returns the p-quantile (0..1) of xs by linear interpolation
// between closest ranks; 0 for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// mean returns the arithmetic mean of xs; 0 for an empty sample.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quantileOf reports the p-quantile of xs with its quartiles and count.
func quantileOf(xs []float64, p float64, unit string) measured {
	return measured{Value: percentile(xs, p), Unit: unit, Q1: percentile(xs, 0.25), Q3: percentile(xs, 0.75), N: len(xs)}
}

// medianOf is quantileOf at the median: the form every per-trial metric and
// every pooled timing is reported in.
func medianOf(xs []float64, unit string) measured { return quantileOf(xs, 0.5, unit) }

// exact reports a count or a single reading that has no spread of its own.
func exact(v float64, unit string) measured {
	return measured{Value: v, Unit: unit, Q1: v, Q3: v, N: 1}
}

// scaled returns xs multiplied by f (unit conversion of a sample set).
func scaled(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}
