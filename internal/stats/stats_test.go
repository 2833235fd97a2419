package stats

import (
	"math"
	"testing"
	"testing/quick"

	"ftpde/internal/plan"
)

func TestCostParams(t *testing.T) {
	c := CostParams{CPUPerRow: 2, WritePerRow: 20, Nodes: 10}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	tr, tm := c.OpCosts(100, 10)
	if tr != 20 || tm != 20 {
		t.Errorf("OpCosts = (%g,%g), want (20,20)", tr, tm)
	}
	for _, bad := range []CostParams{
		{CPUPerRow: 0, WritePerRow: 1, Nodes: 1},
		{CPUPerRow: 1, WritePerRow: 0, Nodes: 1},
		{CPUPerRow: 1, WritePerRow: 1, Nodes: 0},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("invalid params accepted: %+v", bad)
		}
	}
}

func TestCriticalPathLinear(t *testing.T) {
	p := plan.New()
	a := p.Add(plan.Operator{Name: "a", RunCost: 1})
	b := p.Add(plan.Operator{Name: "b", RunCost: 2})
	c := p.Add(plan.Operator{Name: "c", RunCost: 3})
	p.MustConnect(a, b)
	p.MustConnect(b, c)
	if got := CriticalPath(p); got != 6 {
		t.Errorf("critical path = %g, want 6", got)
	}
}

func TestCriticalPathDAG(t *testing.T) {
	// Diamond where the right branch is longer.
	p := plan.New()
	src := p.Add(plan.Operator{Name: "src", RunCost: 1})
	l := p.Add(plan.Operator{Name: "l", RunCost: 1})
	r := p.Add(plan.Operator{Name: "r", RunCost: 10})
	top := p.Add(plan.Operator{Name: "top", RunCost: 1})
	p.MustConnect(src, l)
	p.MustConnect(src, r)
	p.MustConnect(l, top)
	p.MustConnect(r, top)
	if got := CriticalPath(p); got != 12 {
		t.Errorf("critical path = %g, want 12 (src,r,top)", got)
	}
	// The paper example: longest tr path is 2,3,4,5,7 = 1.5+2+1+1.5+1.7.
	ex := plan.PaperExample()
	if got, want := CriticalPath(ex), 7.7; math.Abs(got-want) > 1e-9 {
		t.Errorf("paper example critical path = %g, want %g", got, want)
	}
}

// totals returns the sums of tr(o) and tm(o) over p's operators.
func totals(p *plan.Plan) (tr, tm float64) {
	for _, op := range p.Operators() {
		tr += op.RunCost
		tm += op.MatCost
	}
	return tr, tm
}

func TestScaleCosts(t *testing.T) {
	p := plan.PaperExample()
	trBefore, tmBefore := totals(p)
	ScaleRunCosts(p, 2)
	if got, _ := totals(p); math.Abs(got-2*trBefore) > 1e-9 {
		t.Errorf("run costs scaled to %g, want %g", got, 2*trBefore)
	}
	if _, got := totals(p); got != tmBefore {
		t.Errorf("mat costs changed by ScaleRunCosts")
	}
	ScaleMatCosts(p, 0.5)
	if _, got := totals(p); math.Abs(got-0.5*tmBefore) > 1e-9 {
		t.Errorf("mat costs scaled to %g, want %g", got, 0.5*tmBefore)
	}
}

func TestNormalizeBaseline(t *testing.T) {
	p := plan.PaperExample()
	tr, tm := totals(p)
	matRatio := tm / tr
	if err := NormalizeBaseline(p, 905.33); err != nil {
		t.Fatal(err)
	}
	if got := CriticalPath(p); math.Abs(got-905.33) > 1e-6 {
		t.Errorf("critical path after normalize = %g, want 905.33", got)
	}
	// Uniform scaling preserves the materialization/runtime ratio.
	if tr, tm := totals(p); math.Abs(tm/tr-matRatio) > 1e-9 {
		t.Errorf("mat ratio changed: %g != %g", tm/tr, matRatio)
	}
	if err := NormalizeBaseline(p, -1); err == nil {
		t.Error("negative target accepted")
	}
	zero := plan.New()
	zero.Add(plan.Operator{Name: "z"})
	if err := NormalizeBaseline(zero, 10); err == nil {
		t.Error("zero critical path accepted")
	}
}

func TestNormalizeBaselineProperty(t *testing.T) {
	f := func(raw uint16) bool {
		target := float64(raw)/10 + 0.1
		p := plan.PaperExample()
		if err := NormalizeBaseline(p, target); err != nil {
			return false
		}
		return math.Abs(CriticalPath(p)-target) < 1e-6*target+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
