package core

import (
	"ftpde/internal/cost"
	"ftpde/internal/failure"
	"ftpde/internal/plan"
)

// ApplyRule1 runs pruning rule 1 (rule1) on p: it binds the operators the
// rule selects in p itself and returns how many it bound.
func ApplyRule1(p *plan.Plan, m cost.Model) int { return applyRule(p, m, rule1) }

// ApplyRule2 runs pruning rule 2 (rule2) on p: it binds the operators the
// rule selects in p itself and returns how many it bound.
func ApplyRule2(p *plan.Plan, m cost.Model) int { return applyRule(p, m, rule2) }

func applyRule(p *plan.Plan, m cost.Model, rule func(*cost.Shape, cost.Model) int) int {
	s, err := m.Shape(p)
	if err != nil {
		return 0
	}
	n := rule(s, m)
	for i, id := range p.OperatorIDs() {
		if op := p.Op(id); op.Free() && !s.Free(i) {
			op.Materialize, op.Bound = false, true
		}
	}
	return n
}

// rule1 implements pruning rule 1 (high materialization costs): a free
// operator o is bound non-materializable when collapsing it into its
// consumer p is guaranteed to cost no more than materializing it:
//
//	unary parent:  t({o,p}) <= t({o})
//	n-ary parent:  t({o1..ok,p}) <= t({oi}) for every free child oi
//
// with t({o1..ok,p}) = (max_i tr(oi) + tr(p))·CONSTpipe + tm(p), the group's
// dominant path being its longest producer followed by p (Section 4.1), and
// t({o}) = tr(o)·CONSTpipe + tm(o). Children that are already bound
// non-materializable take part in the group (they end up inside it in every
// configuration) but need no condition of their own; an always-materialized
// child makes the rule inapplicable, as do children feeding more than one
// consumer. rule1 binds on s and returns the number of operators bound.
func rule1(s *cost.Shape, m cost.Model) int {
	bound := 0
	var candidates []int
	for parent := 0; parent < s.Len(); parent++ {
		inputs := s.Inputs(parent)
		if len(inputs) == 0 {
			continue
		}
		candidates = candidates[:0]
		maxTr := 0.0
		applicable := true
		for _, o := range inputs {
			switch {
			case s.Free(o):
				applicable = s.Consumers(o) == 1
				candidates = append(candidates, o)
			case s.Materialized(o):
				// Always-materialized child: a separate re-execution unit,
				// the collapse argument does not apply verbatim.
				applicable = false
			}
			if !applicable {
				break
			}
			maxTr = max(maxTr, s.RunCost(o))
		}
		if !applicable || len(candidates) == 0 {
			continue
		}
		group := (maxTr+s.RunCost(parent))*m.PipeConst + s.MatCost(parent)
		all := true
		for _, o := range candidates {
			if group > s.RunCost(o)*m.PipeConst+s.MatCost(o) {
				all = false
				break
			}
		}
		if !all {
			continue
		}
		for _, o := range candidates {
			s.Bind(o)
			bound++
		}
	}
	return bound
}

// rule2 implements pruning rule 2 (high probability of success): an
// operator o that is the only child of a unary parent p is bound
// non-materializable when the collapsed operator {o,p} already meets the
// desired success percentile without materializing o:
//
//	gamma({o,p}) >= S
//
// Because rules run before any materialization is decided, the collapsed
// operator pessimistically contains o's whole upstream lineage — its
// longest tr-weighted path from a source, times CONSTpipe — and the success
// probability must hold across all cluster nodes executing the
// partition-parallel operator (gamma^Nodes). rule2 binds on s and returns
// the number of operators bound.
func rule2(s *cost.Shape, m cost.Model) int {
	nodes := m.Nodes
	if nodes <= 0 {
		nodes = 1
	}
	lineage := make([]float64, s.Len())
	for _, i := range s.Topo() {
		best := 0.0
		for _, pa := range s.Inputs(i) {
			best = max(best, lineage[pa])
		}
		lineage[i] = best + s.RunCost(i)
	}
	bound := 0
	for parent := 0; parent < s.Len(); parent++ {
		inputs := s.Inputs(parent)
		if len(inputs) != 1 {
			continue
		}
		o := inputs[0]
		if !s.Free(o) || s.Consumers(o) != 1 {
			continue
		}
		t := lineage[parent]*m.PipeConst + s.MatCost(parent)
		if failure.ProbClusterSuccess(t, m.MTBF, nodes) >= m.Percentile {
			s.Bind(o)
			bound++
		}
	}
	return bound
}
