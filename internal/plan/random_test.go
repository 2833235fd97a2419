package plan

import "testing"

func TestRandomDAGAlwaysValid(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		for _, n := range []int{1, 2, 5, 12, 30} {
			p := RandomDAG(seed, n)
			if err := p.Validate(); err != nil {
				t.Fatalf("seed %d n %d: %v", seed, n, err)
			}
			if p.Len() != n {
				t.Fatalf("seed %d: got %d ops, want %d", seed, p.Len(), n)
			}
			if len(p.Sources()) == 0 || len(sinks(p)) == 0 {
				t.Fatalf("seed %d: missing sources or sinks", seed)
			}
		}
	}
}

func TestRandomDAGDeterministic(t *testing.T) {
	a := RandomDAG(7, 15)
	b := RandomDAG(7, 15)
	if a.String() != b.String() {
		t.Error("same seed produced different plans")
	}
	for _, id := range a.OperatorIDs() {
		oa, ob := a.Op(id), b.Op(id)
		if oa.RunCost != ob.RunCost || oa.MatCost != ob.MatCost || oa.Materialize != ob.Materialize {
			t.Fatalf("operator %d differs between identical seeds", id)
		}
	}
}
