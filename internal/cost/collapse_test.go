package cost

import (
	"math"
	"testing"

	"ftpde/internal/failure"
	"ftpde/internal/plan"
)

func paperModel() Model {
	return Model{MTBF: 60, MTTR: 0, Percentile: 0.95, PipeConst: 1.0}
}

func TestCollapsePaperExample(t *testing.T) {
	p := plan.PaperExample()
	c, err := Collapse(p, paperModel())
	if err != nil {
		t.Fatal(err)
	}
	// Figure 3 step 2: collapsed operators {1,2,3}, {4,5}, {6}, {7}.
	if c.P.Len() != 4 {
		t.Fatalf("want 4 collapsed operators, got %d", c.P.Len())
	}
	groups := [][]plan.OpID{{1, 2, 3}, {4, 5}, {6}, {7}}
	wantTotals := []float64{4, 3, 1, 2} // Table 2 t(c)
	for i, g := range groups {
		cid := c.OpByMembers(g...)
		if cid == 0 {
			t.Fatalf("collapsed operator %v not found", g)
		}
		if got := c.Total(cid); !ApproxEq(got, wantTotals[i]) {
			t.Errorf("t(%v) = %g, want %g", g, got, wantTotals[i])
		}
	}
	// Dominant path of {1,2,3} is {2,3} because tr(2)=1.5 >= tr(1)=1.
	dom := c.Dominant[c.OpByMembers(1, 2, 3)]
	if len(dom) != 2 || dom[0] != 2 || dom[1] != 3 {
		t.Errorf("dom({1,2,3}) = %v, want [2 3]", dom)
	}
	// tm({1,2,3}) = tm(3) = 0.5.
	if got := c.P.Op(c.OpByMembers(1, 2, 3)).MatCost; !ApproxEq(got, 0.5) {
		t.Errorf("tm({1,2,3}) = %g, want 0.5", got)
	}
	// Collapsed-plan paths: {1,2,3}->{4,5}->{6} and ->{7}.
	paths := c.P.Paths()
	if len(paths) != 2 {
		t.Fatalf("want 2 collapsed paths, got %d", len(paths))
	}
}

func TestCollapseEdges(t *testing.T) {
	p := plan.PaperExample()
	c, err := Collapse(p, paperModel())
	if err != nil {
		t.Fatal(err)
	}
	g123 := c.OpByMembers(1, 2, 3)
	g45 := c.OpByMembers(4, 5)
	g6 := c.OpByMembers(6)
	g7 := c.OpByMembers(7)
	outs := c.P.Outputs(g123)
	if len(outs) != 1 || outs[0] != g45 {
		t.Errorf("outputs({1,2,3}) = %v, want [%d]", outs, g45)
	}
	outs = c.P.Outputs(g45)
	if len(outs) != 2 {
		t.Errorf("outputs({4,5}) = %v, want two sinks", outs)
	}
	if len(c.P.Outputs(g6)) != 0 || len(c.P.Outputs(g7)) != 0 {
		t.Error("sinks must have no outputs")
	}
}

func TestCollapseAllMat(t *testing.T) {
	// With every operator materialized, the collapsed plan is isomorphic to
	// the original plan.
	p := plan.PaperExample()
	if err := p.Apply(plan.AllMat(p)); err != nil {
		t.Fatal(err)
	}
	c, err := Collapse(p, paperModel())
	if err != nil {
		t.Fatal(err)
	}
	if c.P.Len() != p.Len() {
		t.Fatalf("all-mat collapse has %d ops, want %d", c.P.Len(), p.Len())
	}
	for cid, members := range c.Members {
		if len(members) != 1 {
			t.Errorf("collapsed op %d has %d members, want 1", cid, len(members))
		}
	}
	// t(c) = tr(o) + tm(o) for each singleton group.
	for cid, members := range c.Members {
		orig := p.Op(members[0])
		if got, want := c.Total(cid), orig.RunCost+orig.MatCost; !ApproxEq(got, want) {
			t.Errorf("t({%d}) = %g, want %g", members[0], got, want)
		}
	}
}

func TestCollapseNoMat(t *testing.T) {
	// With nothing materialized, each sink becomes one collapsed operator
	// containing the whole upstream sub-plan.
	p := plan.PaperExample()
	if err := p.Apply(plan.NoMat(p)); err != nil {
		t.Fatal(err)
	}
	c, err := Collapse(p, paperModel())
	if err != nil {
		t.Fatal(err)
	}
	if c.P.Len() != 2 {
		t.Fatalf("no-mat collapse has %d ops, want 2 (one per sink)", c.P.Len())
	}
	g6 := c.OpByMembers(1, 2, 3, 4, 5, 6)
	g7 := c.OpByMembers(1, 2, 3, 4, 5, 7)
	if g6 == 0 || g7 == 0 {
		t.Fatalf("expected full-lineage groups, got %v", c.Members)
	}
	// Sinks do not materialize here, so tm(c) = 0 and t(c) = tr(c).
	// Dominant path to 6: 2->3->4->5->6 with tr = 1.5+2+1+1.5+0.8 = 6.8.
	if got := c.Total(g6); !ApproxEq(got, 6.8) {
		t.Errorf("t(sink 6 group) = %g, want 6.8", got)
	}
	if got := c.Total(g7); !ApproxEq(got, 7.7) {
		t.Errorf("t(sink 7 group) = %g, want 7.7", got)
	}
}

func TestCollapsePipeConst(t *testing.T) {
	// Figure 5 example (left): tr({o,p}) = (2+2)*0.8 = 3.2, tm = 1.
	p := plan.New()
	o := p.Add(plan.Operator{Name: "o", RunCost: 2, MatCost: 10})
	pp := p.Add(plan.Operator{Name: "p", RunCost: 2, MatCost: 1, Materialize: true})
	p.MustConnect(o, pp)
	m := paperModel()
	m.PipeConst = 0.8
	c, err := Collapse(p, m)
	if err != nil {
		t.Fatal(err)
	}
	cid := c.OpByMembers(o, pp)
	if cid == 0 {
		t.Fatal("expected {o,p} group")
	}
	op := c.P.Op(cid)
	if !ApproxEq(op.RunCost, 3.2) {
		t.Errorf("tr({o,p}) = %g, want 3.2", op.RunCost)
	}
	if !ApproxEq(op.MatCost, 1) {
		t.Errorf("tm({o,p}) = %g, want 1", op.MatCost)
	}
	if got := c.Total(cid); !ApproxEq(got, 4.2) {
		t.Errorf("t({o,p}) = %g, want 4.2", got)
	}
}

func TestCollapseNaryPipeConst(t *testing.T) {
	// Figure 5 example (right): {o1,o2,p} with tr = (2+4)*0.8 = 4.8, tm = 1.
	p := plan.New()
	o1 := p.Add(plan.Operator{Name: "o1", RunCost: 2, MatCost: 10})
	o2 := p.Add(plan.Operator{Name: "o2", RunCost: 4, MatCost: 5})
	pp := p.Add(plan.Operator{Name: "p", RunCost: 2, MatCost: 1, Materialize: true})
	p.MustConnect(o1, pp)
	p.MustConnect(o2, pp)
	m := paperModel()
	m.PipeConst = 0.8
	c, err := Collapse(p, m)
	if err != nil {
		t.Fatal(err)
	}
	cid := c.OpByMembers(o1, o2, pp)
	if cid == 0 {
		t.Fatal("expected {o1,o2,p} group")
	}
	if got := c.P.Op(cid).RunCost; math.Abs(got-4.8) > 1e-9 {
		t.Errorf("tr = %g, want 4.8 (dominant path o2,p)", got)
	}
	if got := c.Total(cid); math.Abs(got-5.8) > 1e-9 {
		t.Errorf("t = %g, want 5.8", got)
	}
	dom := c.Dominant[cid]
	if len(dom) != 2 || dom[0] != o2 || dom[1] != pp {
		t.Errorf("dominant path = %v, want [o2 p]", dom)
	}
}

func TestCollapseSharedSubplanDAG(t *testing.T) {
	// A diamond: one pipelined producer consumed by two materializing
	// consumers. The producer must appear in both collapsed groups (it is
	// re-executed for whichever group fails).
	p := plan.New()
	src := p.Add(plan.Operator{Name: "src", RunCost: 1, MatCost: 1})
	l := p.Add(plan.Operator{Name: "left", RunCost: 2, MatCost: 1, Materialize: true})
	r := p.Add(plan.Operator{Name: "right", RunCost: 3, MatCost: 1, Materialize: true})
	top := p.Add(plan.Operator{Name: "top", RunCost: 1, MatCost: 1})
	p.MustConnect(src, l)
	p.MustConnect(src, r)
	p.MustConnect(l, top)
	p.MustConnect(r, top)
	c, err := Collapse(p, paperModel())
	if err != nil {
		t.Fatal(err)
	}
	if c.OpByMembers(src, l) == 0 {
		t.Error("src not folded into left group")
	}
	if c.OpByMembers(src, r) == 0 {
		t.Error("src not folded into right group")
	}
	if c.OpByMembers(top) == 0 {
		t.Error("top should be its own (sink) group")
	}
	cTop := c.OpByMembers(top)
	if ins := c.P.Inputs(cTop); len(ins) != 2 {
		t.Errorf("top group should have 2 inputs, got %d", len(ins))
	}
}

func TestShapePathsEarlyStop(t *testing.T) {
	p := plan.PaperExample()
	if err := p.Apply(plan.AllMat(p)); err != nil {
		t.Fatal(err)
	}
	s, err := paperModel().Shape(p)
	if err != nil {
		t.Fatal(err)
	}
	s.SetMask(1<<uint(len(p.FreeOperators())) - 1)
	count := 0
	s.Paths(func([]int) bool {
		count++
		return count < 2
	})
	if count != 2 {
		t.Errorf("Paths did not stop early: visited %d of 4", count)
	}
}

func TestCollapseInvalidInputs(t *testing.T) {
	p := plan.New() // empty
	if _, err := Collapse(p, paperModel()); err == nil {
		t.Error("empty plan accepted")
	}
	good := plan.PaperExample()
	bad := paperModel()
	bad.MTBF = 0
	if _, err := Collapse(good, bad); err == nil {
		t.Error("invalid model accepted")
	}
	bad2 := paperModel()
	bad2.PipeConst = 1.5
	if _, err := Collapse(good, bad2); err == nil {
		t.Error("CONSTpipe > 1 accepted")
	}
	bad3 := paperModel()
	bad3.Percentile = 1
	if _, err := Collapse(good, bad3); err == nil {
		t.Error("percentile = 1 accepted")
	}
}

func TestModelValidate(t *testing.T) {
	if err := DefaultModel(failure.Spec{Nodes: 10, MTBF: 3600, MTTR: 1}).Validate(); err != nil {
		t.Errorf("default model invalid: %v", err)
	}
	if err := (Model{MTBF: 1, MTTR: -1, Percentile: 0.9, PipeConst: 1}).Validate(); err == nil {
		t.Error("negative MTTR accepted")
	}
}
