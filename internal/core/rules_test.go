package core

import (
	"testing"

	"ftpde/internal/cost"
	"ftpde/internal/plan"
)

func model(mtbf float64) cost.Model {
	return cost.Model{MTBF: mtbf, MTTR: 0, Percentile: 0.95, PipeConst: 1}
}

// applyRule1 runs pruning rule 1 (rule1) on p: it binds the operators the
// rule selects in p itself and returns how many it bound.
func applyRule1(p *plan.Plan, m cost.Model) int { return applyRule(p, m, rule1) }

// applyRule2 is applyRule1 for pruning rule 2 (rule2).
func applyRule2(p *plan.Plan, m cost.Model) int { return applyRule(p, m, rule2) }

func applyRule(p *plan.Plan, m cost.Model, rule func(*cost.Shape, cost.Model) int) int {
	s, err := m.Shape(p)
	if err != nil {
		return 0
	}
	n := rule(s, m)
	for i, id := range p.OperatorIDs() {
		if op := p.Op(id); !op.Bound && !s.Free(i) {
			op.Materialize, op.Bound = false, true
		}
	}
	return n
}

// Figure 5 (left): unary parent, t({o,p}) = 4.2 < t({o}) = 12 -> bind o.
func TestRule1Unary(t *testing.T) {
	p := plan.New()
	o := p.Add(plan.Operator{Name: "o", RunCost: 2, MatCost: 10})
	pp := p.Add(plan.Operator{Name: "p", RunCost: 2, MatCost: 1})
	p.MustConnect(o, pp)
	m := model(60)
	m.PipeConst = 0.8
	bound := applyRule1(p, m)
	if bound != 1 {
		t.Fatalf("bound %d operators, want 1", bound)
	}
	if !p.Op(o).Bound || p.Op(o).Materialize {
		t.Error("o should be bound non-materializable")
	}
	if p.Op(pp).Bound {
		t.Error("p should remain free")
	}
}

// Figure 5 (right): n-ary parent, t({o1,o2,p}) = 5.8 <= t(o1)=12, t(o2)=9.
func TestRule1Nary(t *testing.T) {
	p := plan.New()
	o1 := p.Add(plan.Operator{Name: "o1", RunCost: 2, MatCost: 10})
	o2 := p.Add(plan.Operator{Name: "o2", RunCost: 4, MatCost: 5})
	pp := p.Add(plan.Operator{Name: "p", RunCost: 2, MatCost: 1})
	p.MustConnect(o1, pp)
	p.MustConnect(o2, pp)
	m := model(60)
	m.PipeConst = 0.8
	if bound := applyRule1(p, m); bound != 2 {
		t.Fatalf("bound %d operators, want 2", bound)
	}
	if !p.Op(o1).Bound || !p.Op(o2).Bound {
		t.Error("o1 and o2 should be bound")
	}
}

func TestRule1NotAppliedWhenMaterializationCheap(t *testing.T) {
	// t({o,p}) = (2+2)+5 = 9 > t({o}) = 2+0.1: materializing o is cheap, so
	// the rule must not bind it.
	p := plan.New()
	o := p.Add(plan.Operator{Name: "o", RunCost: 2, MatCost: 0.1})
	pp := p.Add(plan.Operator{Name: "p", RunCost: 2, MatCost: 5})
	p.MustConnect(o, pp)
	if bound := applyRule1(p, model(60)); bound != 0 {
		t.Fatalf("bound %d operators, want 0", bound)
	}
}

func TestRule1SkipsSharedOutputs(t *testing.T) {
	// o feeds two consumers: collapsing it into one of them does not remove
	// the other's dependency, so the rule must not fire.
	p := plan.New()
	o := p.Add(plan.Operator{Name: "o", RunCost: 2, MatCost: 10})
	c1 := p.Add(plan.Operator{Name: "c1", RunCost: 2, MatCost: 1})
	c2 := p.Add(plan.Operator{Name: "c2", RunCost: 2, MatCost: 1})
	p.MustConnect(o, c1)
	p.MustConnect(o, c2)
	if bound := applyRule1(p, model(60)); bound != 0 {
		t.Fatalf("bound %d operators, want 0", bound)
	}
}

func TestRule1SkipsBoundChildren(t *testing.T) {
	p := plan.New()
	o := p.Add(plan.Operator{Name: "o", RunCost: 2, MatCost: 10, Bound: true, Materialize: true})
	pp := p.Add(plan.Operator{Name: "p", RunCost: 2, MatCost: 1})
	p.MustConnect(o, pp)
	if bound := applyRule1(p, model(60)); bound != 0 {
		t.Fatalf("bound %d operators, want 0", bound)
	}
	if !p.Op(o).Materialize {
		t.Error("always-materialized operator was flipped")
	}
}

// Figure 6: gamma({o,p}) = 0.999 >= S = 0.95 with MTBF = 3600 -> bind o.
func TestRule2ShortRunningOperators(t *testing.T) {
	p := plan.New()
	o := p.Add(plan.Operator{Name: "o", RunCost: 0.5, MatCost: 1})
	pp := p.Add(plan.Operator{Name: "p", RunCost: 0.2, MatCost: 0.15})
	p.MustConnect(o, pp)
	if bound := applyRule2(p, model(3600)); bound != 1 {
		t.Fatalf("bound %d operators, want 1", bound)
	}
	if !p.Op(o).Bound {
		t.Error("o should be bound")
	}
}

func TestRule2NotAppliedUnderLowMTBF(t *testing.T) {
	p := plan.New()
	o := p.Add(plan.Operator{Name: "o", RunCost: 0.5, MatCost: 1})
	pp := p.Add(plan.Operator{Name: "p", RunCost: 0.2, MatCost: 0.15})
	p.MustConnect(o, pp)
	// MTBF = 1: gamma({o,p}) = e^-0.85 ~ 0.43 < 0.95.
	if bound := applyRule2(p, model(1)); bound != 0 {
		t.Fatalf("bound %d operators, want 0", bound)
	}
}

func TestRule2OnlyUnaryParents(t *testing.T) {
	p := plan.New()
	o1 := p.Add(plan.Operator{Name: "o1", RunCost: 0.1, MatCost: 0.1})
	o2 := p.Add(plan.Operator{Name: "o2", RunCost: 0.1, MatCost: 0.1})
	pp := p.Add(plan.Operator{Name: "p", RunCost: 0.1, MatCost: 0.1})
	p.MustConnect(o1, pp)
	p.MustConnect(o2, pp)
	if bound := applyRule2(p, model(1e9)); bound != 0 {
		t.Fatalf("rule 2 applied to n-ary parent: bound %d", bound)
	}
}

func TestRule2MoreOperatorsBoundAtHigherMTBF(t *testing.T) {
	// Paper Section 5.5: for a higher MTBF the probability of success grows,
	// so more operators can be pruned by rule 2.
	build := func() *plan.Plan {
		p := plan.New()
		a := p.Add(plan.Operator{Name: "a", RunCost: 50, MatCost: 5})
		b := p.Add(plan.Operator{Name: "b", RunCost: 70, MatCost: 5})
		c := p.Add(plan.Operator{Name: "c", RunCost: 90, MatCost: 5})
		d := p.Add(plan.Operator{Name: "d", RunCost: 10, MatCost: 1})
		p.MustConnect(a, b)
		p.MustConnect(b, c)
		p.MustConnect(c, d)
		return p
	}
	low := build()
	high := build()
	nLow := applyRule2(low, model(600))
	nHigh := applyRule2(high, model(1e6))
	if nHigh < nLow {
		t.Errorf("rule 2 bound fewer operators at higher MTBF: %d < %d", nHigh, nLow)
	}
	if nHigh != 3 {
		t.Errorf("at MTBF=1e6 all three children should be bound, got %d", nHigh)
	}
}
