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
	memo := newPathMemo()

	for _, cand := range candidates {
		if err := cand.Validate(); err != nil {
			return nil, err
		}
		res.Stats.PlansConsidered++

		p := cand.Clone()
		f0 := len(p.FreeOperators())
		addConfigs(&res.Stats.FTPlansTotal, f0, -1)

		// Pruning rules 1 and 2 run before configuration enumeration.
		var bound1, bound2 int
		if !opt.DisableRule1 {
			bound1 = ApplyRule1(p, opt.Model)
		}
		if !opt.DisableRule2 {
			bound2 = ApplyRule2(p, opt.Model)
		}
		res.Stats.Rule1Bound += bound1
		res.Stats.Rule2Bound += bound2
		afterR1 := f0 - bound1
		addConfigs(&res.Stats.FTPlansPrunedRule1, f0, afterR1)
		afterR2 := afterR1 - bound2
		addConfigs(&res.Stats.FTPlansPrunedRule2, afterR1, afterR2)

		free := p.FreeOperators()
		if len(free) > maxFree {
			return nil, fmt.Errorf("core: plan has %d free operators after pruning (max %d)", len(free), maxFree)
		}

		// Every configuration is scored on one shape of the plan; only a new
		// incumbent is collapsed into a plan of its own.
		shape, err := opt.Model.Shape(p)
		if err != nil {
			return nil, err
		}
		for mask := uint64(0); mask < 1<<uint(len(free)); mask++ {
			shape.SetMask(mask)
			res.Stats.FTPlansEnumerated++

			domTPt, stopped, cheap, paths := score(shape, opt, res.Runtime, memo)
			res.Stats.PathsEvaluated += paths
			if stopped {
				res.Stats.FTPlansRule3Stopped++
				if cheap {
					res.Stats.FTPlansRule3StoppedCheap++
				}
				continue
			}
			if domTPt < res.Runtime {
				if err := p.Apply(plan.ConfigFromMask(free, mask)); err != nil {
					return nil, err
				}
				collapsed, err := cost.Collapse(p, opt.Model)
				if err != nil {
					return nil, err
				}
				res.Runtime = domTPt
				res.Plan = p.Clone()
				res.Config = res.Plan.Config()
				res.Dominant, _ = opt.Model.EstimateCollapsed(collapsed)
				if opt.MemoizePaths {
					memo.add(collapsed, res.Dominant)
				}
			}
		}
	}

	if res.Plan == nil {
		return nil, fmt.Errorf("core: no fault-tolerant plan found")
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
// the number of paths whose TPt was evaluated.
func score(s *cost.Shape, opt Options, bestT float64, memo *pathMemo) (domTPt float64, stopped, cheap bool, paths int) {
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
		}
		return true
	})
	return domTPt, stopped, cheap, paths
}

// pathMemo stores, per collapsed-operator count, the best (cheapest) dominant
// path seen so far as its t(c) values sorted descending (Section 4.3).
type pathMemo struct {
	byCount map[int][]float64
	ts      []float64 // dominates' scratch
}

func newPathMemo() *pathMemo { return &pathMemo{byCount: make(map[int][]float64)} }

// add memoizes the dominant path of a newly-best fault-tolerant plan.
func (m *pathMemo) add(c *cost.Collapsed, dom cost.PathCost) {
	if len(dom.Path) == 0 {
		return
	}
	ts := make([]float64, 0, len(dom.Path))
	for _, id := range dom.Path {
		ts = append(ts, c.P.Op(id).TotalCost())
	}
	slices.Sort(ts)
	slices.Reverse(ts)
	n := len(ts)
	old, ok := m.byCount[n]
	if !ok || sumFloats(ts) < sumFloats(old) {
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
	for count, memoTs := range m.byCount {
		if count > len(ts) {
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
