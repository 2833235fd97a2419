// Package core implements the paper's primary contribution: the cost-based
// fault-tolerance optimizer findBestFTPlan (Listing 1) that enumerates
// fault-tolerant plans [P, M_P] — combinations of an execution plan and a
// materialization configuration — and selects the one whose dominant
// execution path has the minimal estimated runtime under mid-query failures.
// It includes the three pruning rules of Section 4.
package core

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"ftpde/internal/cost"
	"ftpde/internal/plan"
)

// Options configures the optimizer.
type Options struct {
	// Model is the cost model (MTBF, MTTR, S, CONSTpipe).
	Model cost.Model

	// DisableRule1 disables pruning rule 1 (high materialization costs).
	DisableRule1 bool
	// DisableRule2 disables pruning rule 2 (high probability of success).
	DisableRule2 bool
	// DisableRule3 disables pruning rule 3 (long execution paths).
	DisableRule3 bool
	// MemoizePaths enables rule 3's extended variant that memoizes the best
	// dominant path per collapsed-operator count and prunes via the sorted
	// pairwise comparison of Equation 9.
	MemoizePaths bool

	// MaxFreeOperators guards against accidental exponential blow-up; plans
	// with more free operators (after rules 1/2) are rejected. 0 means the
	// default of 24.
	MaxFreeOperators int
}

// Stats records enumeration effort; it feeds the pruning-effectiveness
// experiment (paper Figure 13).
type Stats struct {
	// PlansConsidered is the number of candidate execution plans examined.
	PlansConsidered int
	// FTPlansTotal is the number of fault-tolerant plans [P, M_P] that a
	// no-pruning enumeration would examine: sum over plans of 2^f with f the
	// plan's original free-operator count.
	FTPlansTotal int
	// FTPlansPrunedRule1 counts configurations eliminated because rule 1
	// bound operators to non-materializable.
	FTPlansPrunedRule1 int
	// FTPlansPrunedRule2 counts configurations eliminated by rule 2.
	FTPlansPrunedRule2 int
	// FTPlansRule3Stopped counts enumerated configurations whose path
	// enumeration stopped early due to rule 3. The paper accounts half of
	// these as pruned (the rule may fire on the first or the last path).
	FTPlansRule3Stopped int
	// FTPlansRule3StoppedCheap counts the subset of rule-3 stops that fired
	// before any estimateCost call — via the RPt >= bestT condition or the
	// memoized-dominant-path comparison of Equation 9. These are the stops
	// that actually save cost-model evaluations.
	FTPlansRule3StoppedCheap int
	// FTPlansEnumerated is the number of configurations actually scored.
	FTPlansEnumerated int
	// PathsEvaluated is the number of execution paths whose TPt was computed.
	PathsEvaluated int
	// Rule1Bound / Rule2Bound count operators marked non-materializable.
	Rule1Bound int
	Rule2Bound int
}

// Result is the output of the optimizer.
type Result struct {
	// Plan is the chosen execution plan with the winning configuration
	// applied (a clone; candidate plans are not mutated).
	Plan *plan.Plan
	// Config is the winning materialization configuration.
	Config plan.MatConfig
	// Runtime is the estimated total runtime of the dominant path under
	// mid-query failures (bestT).
	Runtime float64
	// Dominant is the dominant path's cost breakdown.
	Dominant cost.PathCost
	// Stats describes the enumeration effort.
	Stats Stats
}

// FindBestFTPlan implements Listing 1 of the paper over a set of candidate
// execution plans (typically the top-k plans of a cost-based join
// enumerator, see the join package). It returns the fault-tolerant plan
// [P, M_P] with the shortest dominant path under the failure model.
func FindBestFTPlan(candidates []*plan.Plan, opt Options) (*Result, error) {
	if len(candidates) == 0 {
		return nil, fmt.Errorf("core: no candidate plans")
	}
	if err := opt.Model.Validate(); err != nil {
		return nil, err
	}
	maxFree := opt.MaxFreeOperators
	if maxFree == 0 {
		maxFree = 24
	}

	res := &Result{Runtime: math.Inf(1)}
	memo := &pathMemo{}
	// The incumbent is a candidate's shape, its configuration and the groups
	// of its dominant path; Result is built from it once, at the end.
	var (
		win     *cost.Shape
		winMask uint64
		winPath []int
		dom     []int
	)

	for _, cand := range candidates {
		res.Stats.PlansConsidered++

		// Every configuration is scored on one shape of the candidate, which
		// validates it, and which pruning rules 1 and 2 bind on before
		// configuration enumeration.
		shape, err := opt.Model.Shape(cand)
		if err != nil {
			return nil, err
		}
		f0 := shape.NumFree()
		addConfigs(&res.Stats.FTPlansTotal, f0, -1)
		var bound1, bound2 int
		if !opt.DisableRule1 {
			bound1 = rule1(shape, opt.Model)
		}
		if !opt.DisableRule2 {
			bound2 = rule2(shape, opt.Model)
		}
		res.Stats.Rule1Bound += bound1
		res.Stats.Rule2Bound += bound2
		afterR1 := f0 - bound1
		addConfigs(&res.Stats.FTPlansPrunedRule1, f0, afterR1)
		afterR2 := afterR1 - bound2
		addConfigs(&res.Stats.FTPlansPrunedRule2, afterR1, afterR2)

		free := shape.NumFree()
		if free > maxFree {
			return nil, fmt.Errorf("core: plan has %d free operators after pruning (max %d)", free, maxFree)
		}

		for mask := uint64(0); mask < 1<<uint(free); mask++ {
			shape.SetMask(mask)
			res.Stats.FTPlansEnumerated++

			domTPt, stopped, cheap, paths := score(shape, opt, res.Runtime, memo, &dom)
			res.Stats.PathsEvaluated += paths
			if stopped {
				res.Stats.FTPlansRule3Stopped++
				if cheap {
					res.Stats.FTPlansRule3StoppedCheap++
				}
				continue
			}
			if domTPt < res.Runtime {
				res.Runtime = domTPt
				win, winMask, winPath = shape, mask, append(winPath[:0], dom...)
				if opt.MemoizePaths {
					memo.add(shape, dom)
				}
			}
		}
	}

	if win == nil {
		return nil, fmt.Errorf("core: no fault-tolerant plan found")
	}
	res.Plan = win.Plan(winMask)
	res.Config = res.Plan.Config()
	for _, g := range winPath {
		oc := opt.Model.OperatorCost(win.Total(g))
		res.Dominant.Path = append(res.Dominant.Path, plan.OpID(g+1))
		res.Dominant.Ops = append(res.Dominant.Ops, oc)
		res.Dominant.RunCost += oc.Total
		res.Dominant.Runtime += oc.Runtime
	}
	return res, nil
}

// Optimize is a convenience wrapper for a single candidate plan.
func Optimize(p *plan.Plan, opt Options) (*Result, error) {
	return FindBestFTPlan([]*plan.Plan{p}, opt)
}

// addConfigs adds 2^f − 2^rest to *n: the configurations of f free operators
// that binding all but rest of them removes (rest < 0 removes all). Every
// term saturates at math.MaxInt, since a long chain has more free operators
// than an int has bits.
func addConfigs(n *int, f, rest int) {
	pow := func(k int) int {
		switch {
		case k < 0:
			return 0
		case k >= bits.UintSize-1:
			return math.MaxInt
		}
		return 1 << uint(k)
	}
	if d := pow(f) - pow(rest); *n > math.MaxInt-d {
		*n = math.MaxInt
	} else {
		*n += d
	}
}

// score enumerates the execution paths of the shape's current configuration,
// applying pruning rule 3 against bestT (and the memoized dominant paths when
// enabled). It returns the dominant TPt, whether enumeration stopped early
// (plan pruned), whether the stop fired before any estimateCost call, and
// the number of paths whose TPt was evaluated. The dominant path's groups
// are left in *dom: the first path of the maximal TPt, as
// cost.EstimateCollapsed picks it.
func score(s *cost.Shape, opt Options, bestT float64, memo *pathMemo, dom *[]int) (domTPt float64, stopped, cheap bool, paths int) {
	*dom = (*dom)[:0]
	s.Paths(func(pt []int) bool {
		if !opt.DisableRule3 {
			// Condition 1: RPt >= bestT — no estimateCost call needed.
			rpt := 0.0
			for _, g := range pt {
				rpt += s.Total(g)
			}
			if rpt >= bestT {
				stopped, cheap = true, paths == 0
				return false
			}
			// Extended variant: Equation 9 comparison against memoized best
			// dominant paths, still without calling estimateCost.
			if opt.MemoizePaths && memo.dominates(s, pt) {
				stopped, cheap = true, paths == 0
				return false
			}
		}
		tpt := 0.0
		for _, g := range pt {
			tpt += s.Runtime(g)
		}
		paths++
		// Condition 2: TPt >= bestT.
		if !opt.DisableRule3 && tpt >= bestT {
			stopped = true
			return false
		}
		if tpt > domTPt {
			domTPt = tpt
			*dom = append((*dom)[:0], pt...)
		}
		return true
	})
	return domTPt, stopped, cheap, paths
}

// pathMemo stores, per collapsed-operator count, the best (cheapest) dominant
// path seen so far as its t(c) values sorted descending (Section 4.3).
type pathMemo struct {
	byCount [][]float64 // count -> memoized t(c)s, empty where none is
	ts      []float64   // dominates' scratch
}

// add memoizes the dominant path, as groups of s, of a newly-best
// fault-tolerant plan.
func (m *pathMemo) add(s *cost.Shape, dom []int) {
	if len(dom) == 0 {
		return
	}
	ts := make([]float64, 0, len(dom))
	for _, g := range dom {
		ts = append(ts, s.Total(g))
	}
	slices.Sort(ts)
	slices.Reverse(ts)
	n := len(ts)
	for len(m.byCount) <= n {
		m.byCount = append(m.byCount, nil)
	}
	if old := m.byCount[n]; len(old) == 0 || sumFloats(ts) < sumFloats(old) {
		m.byCount[n] = ts
	}
}

// dominates reports whether path pt pairwise-dominates any memoized dominant
// path per Equation 9: sort both descending by t(c) and require
// pt[i] >= memo[i] for every i. Memoized paths with fewer operators are
// padded with zero-cost operators, as the paper allows.
func (m *pathMemo) dominates(s *cost.Shape, pt []int) bool {
	if len(m.byCount) == 0 {
		return false
	}
	ts := m.ts[:0]
	for _, g := range pt {
		ts = append(ts, s.Total(g))
	}
	slices.Sort(ts)
	slices.Reverse(ts)
	m.ts = ts
	for _, memoTs := range m.byCount[:min(len(ts)+1, len(m.byCount))] {
		if len(memoTs) == 0 {
			continue
		}
		ok := true
		for i, mv := range memoTs {
			if ts[i] < mv {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

func sumFloats(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}
