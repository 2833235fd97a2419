package plan

import (
	"testing"
)

func linearPlan(costs ...float64) *Plan {
	p := New()
	var prev OpID
	for i, c := range costs {
		id := p.Add(Operator{Name: "op", Kind: KindFilter, RunCost: c, MatCost: c / 10})
		if i > 0 {
			p.MustConnect(prev, id)
		}
		prev = id
	}
	return p
}

func TestAddAssignsSequentialIDs(t *testing.T) {
	p := PaperExample()
	ids := p.OperatorIDs()
	if len(ids) != 7 {
		t.Fatalf("want 7 operators, got %d", len(ids))
	}
	for i, id := range ids {
		if int(id) != i+1 {
			t.Errorf("operator %d has id %d", i, id)
		}
	}
}

func TestValidatePaperExample(t *testing.T) {
	p := PaperExample()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSourcesSinks(t *testing.T) {
	p := PaperExample()
	srcs := p.Sources()
	if len(srcs) != 2 || srcs[0] != 1 || srcs[1] != 2 {
		t.Errorf("sources = %v, want [1 2]", srcs)
	}
	sinks := p.Sinks()
	if len(sinks) != 2 || sinks[0] != 6 || sinks[1] != 7 {
		t.Errorf("sinks = %v, want [6 7]", sinks)
	}
}

func TestConnectErrors(t *testing.T) {
	p := New()
	a := p.Add(Operator{Name: "a"})
	b := p.Add(Operator{Name: "b"})
	if err := p.Connect(a, b); err != nil {
		t.Fatal(err)
	}
	if err := p.Connect(a, b); err == nil {
		t.Error("duplicate edge accepted")
	}
	if err := p.Connect(a, a); err == nil {
		t.Error("self edge accepted")
	}
	if err := p.Connect(a, 99); err == nil {
		t.Error("unknown consumer accepted")
	}
	if err := p.Connect(99, a); err == nil {
		t.Error("unknown producer accepted")
	}
}

func TestCycleDetection(t *testing.T) {
	p := New()
	a := p.Add(Operator{Name: "a"})
	b := p.Add(Operator{Name: "b"})
	c := p.Add(Operator{Name: "c"})
	p.MustConnect(a, b)
	p.MustConnect(b, c)
	p.MustConnect(c, a)
	if err := p.Validate(); err == nil {
		t.Error("cyclic plan accepted")
	}
}

func TestValidateRejectsBadPlans(t *testing.T) {
	empty := New()
	if err := empty.Validate(); err == nil {
		t.Error("empty plan accepted")
	}

	neg := New()
	neg.Add(Operator{Name: "bad", RunCost: -1})
	if err := neg.Validate(); err == nil {
		t.Error("negative run cost accepted")
	}

	disc := New()
	a := disc.Add(Operator{Name: "a"})
	b := disc.Add(Operator{Name: "b"})
	disc.Add(Operator{Name: "island"})
	disc.MustConnect(a, b)
	if err := disc.Validate(); err == nil {
		t.Error("disconnected operator accepted")
	}
}

func TestTopoOrder(t *testing.T) {
	p := PaperExample()
	order, err := p.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := make(map[OpID]int)
	for i, id := range order {
		pos[id] = i
	}
	for _, from := range p.OperatorIDs() {
		for _, to := range p.Outputs(from) {
			if pos[from] >= pos[to] {
				t.Errorf("topo violation: %d not before %d", from, to)
			}
		}
	}
}

func TestPathsPaperExample(t *testing.T) {
	p := PaperExample()
	paths := p.Paths()
	// Two sources x two sinks, single route between each pair -> 4 paths.
	if len(paths) != 4 {
		t.Fatalf("want 4 paths, got %d: %v", len(paths), paths)
	}
	for _, pt := range paths {
		if pt[len(pt)-1] != 6 && pt[len(pt)-1] != 7 {
			t.Errorf("path does not end at a sink: %v", pt)
		}
		if pt[0] != 1 && pt[0] != 2 {
			t.Errorf("path does not start at a source: %v", pt)
		}
	}
}

func TestFreeOperators(t *testing.T) {
	p := PaperExample()
	if got := len(p.FreeOperators()); got != 7 {
		t.Errorf("want 7 free operators, got %d", got)
	}
	p.Op(4).Bound = true
	if got := len(p.FreeOperators()); got != 6 {
		t.Errorf("after binding one: want 6, got %d", got)
	}
}

func TestMatConfigMaskRoundTrip(t *testing.T) {
	p := PaperExample()
	free := p.FreeOperators()
	for mask := uint64(0); mask < 1<<uint(len(free)); mask += 13 {
		cfg := ConfigFromMask(free, mask)
		if got := cfg.Mask(free); got != mask {
			t.Fatalf("mask round trip: %d -> %d", mask, got)
		}
	}
}

func TestApplyConfig(t *testing.T) {
	p := PaperExample()
	cfg := NoMat(p)
	if err := p.Apply(cfg); err != nil {
		t.Fatal(err)
	}
	for _, op := range p.Operators() {
		if op.Materialize {
			t.Errorf("op %d still materialized after NoMat", op.ID)
		}
	}
	all := AllMat(p)
	if err := p.Apply(all); err != nil {
		t.Fatal(err)
	}
	for _, op := range p.Operators() {
		if !op.Materialize {
			t.Errorf("op %d not materialized after AllMat", op.ID)
		}
	}
}

func TestApplyConfigBoundRejected(t *testing.T) {
	p := PaperExample()
	p.Op(3).Bound = true
	p.Op(3).Materialize = true
	cfg := MatConfig{3: false}
	if err := p.Apply(cfg); err == nil {
		t.Error("flipping a bound operator was accepted")
	}
	// Same value is fine.
	if err := p.Apply(MatConfig{3: true}); err != nil {
		t.Errorf("no-op on bound operator rejected: %v", err)
	}
	if err := p.Apply(MatConfig{99: true}); err == nil {
		t.Error("unknown operator accepted")
	}
}

func TestCloneIsolation(t *testing.T) {
	p := PaperExample()
	q := p.Clone()
	q.Op(3).Materialize = false
	q.Op(3).RunCost = 999
	if !p.Op(3).Materialize || p.Op(3).RunCost == 999 {
		t.Error("clone shares operator storage with original")
	}
	nid := q.Add(Operator{Name: "extra"})
	q.MustConnect(7, nid)
	if p.Len() != 7 {
		t.Error("clone shares structure with original")
	}
}

func TestTotalCosts(t *testing.T) {
	op := Operator{RunCost: 2, MatCost: 10}
	if op.TotalCost() != 2 {
		t.Errorf("pipelined total cost = %g, want 2", op.TotalCost())
	}
	op.Materialize = true
	if op.TotalCost() != 12 {
		t.Errorf("materialized total cost = %g, want 12", op.TotalCost())
	}
}

func TestPathRunCost(t *testing.T) {
	p := linearPlan(1, 2, 3)
	paths := p.Paths()
	if len(paths) != 1 {
		t.Fatalf("want 1 path, got %d", len(paths))
	}
	// No materialization: RPt = 1+2+3.
	if got := p.PathRunCost(paths[0]); got != 6 {
		t.Errorf("PathRunCost = %g, want 6", got)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	p := PaperExample()
	data, err := p.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	q := New()
	if err := q.UnmarshalJSON(data); err != nil {
		t.Fatal(err)
	}
	if q.Len() != p.Len() {
		t.Fatalf("round trip lost operators: %d != %d", q.Len(), p.Len())
	}
	for _, id := range p.OperatorIDs() {
		a, b := p.Op(id), q.Op(id)
		if a.Name != b.Name || a.Kind != b.Kind || a.RunCost != b.RunCost ||
			a.MatCost != b.MatCost || a.Materialize != b.Materialize || a.Bound != b.Bound {
			t.Errorf("operator %d differs after round trip: %+v vs %+v", id, a, b)
		}
		out1, out2 := p.Outputs(id), q.Outputs(id)
		if len(out1) != len(out2) {
			t.Errorf("operator %d edge count differs", id)
			continue
		}
		for i := range out1 {
			if out1[i] != out2[i] {
				t.Errorf("operator %d edges differ", id)
			}
		}
	}
}

// IDs from a user's file are kept as given, however sparse, up to the bound;
// operators added afterwards continue above the largest.
func TestJSONKeepsSparseIDs(t *testing.T) {
	q := New()
	in := `{"operators":[{"id":7,"kind":"scan"},{"id":1048576,"kind":"sink"}],"edges":[[7,1048576]]}`
	if err := q.UnmarshalJSON([]byte(in)); err != nil {
		t.Fatal(err)
	}
	if q.Len() != 2 || q.Op(7) == nil || q.Op(1048576) == nil || q.Op(8) != nil {
		t.Fatalf("operators after decoding: %v", q.OperatorIDs())
	}
	if got := q.Outputs(7); len(got) != 1 || got[0] != 1048576 {
		t.Errorf("Outputs(7) = %v, want [1048576]", got)
	}
	if id := q.Add(Operator{Name: "next"}); id != 1048577 {
		t.Errorf("next ID = %d, want 1048577", id)
	}
}

func TestJSONRejectsGarbage(t *testing.T) {
	bad := []string{
		`{"operators":[{"id":0,"kind":"scan"}]}`,
		`{"operators":[{"id":1,"kind":"nope"}]}`,
		`{"operators":[{"id":1,"kind":"scan"},{"id":1,"kind":"scan"}]}`,
		`{"operators":[{"id":1,"kind":"scan"},{"id":2,"kind":"scan"}],"edges":[[1,3]]}`,
		`{"operators":[{"id":1,"kind":"scan"},{"id":1048577,"kind":"sink"}],"edges":[[1,1048577]]}`,
		`not json`,
	}
	for _, s := range bad {
		q := New()
		if err := q.UnmarshalJSON([]byte(s)); err == nil {
			t.Errorf("bad input accepted: %s", s)
		}
	}
}

func TestDOTOutput(t *testing.T) {
	p := PaperExample()
	dot := p.DOT("paper example")
	for _, want := range []string{"digraph plan", "n1 -> n3", "n5 -> n7", "shape=box"} {
		if !contains(dot, want) {
			t.Errorf("DOT output missing %q", want)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && indexOf(s, sub) >= 0
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}
