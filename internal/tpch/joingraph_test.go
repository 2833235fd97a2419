package tpch

import (
	"sort"
	"testing"
)

// The top-50 join orders of Q5 at SF 100 carry, rank by rank, the sorted
// C_out costs of all 1344 orders: TopK's ranking is exact, not only at the
// first rank.
func TestQ5TopKMatchesExhaustiveRanks(t *testing.T) {
	g, err := Q5JoinGraph(Params{SF: 100, Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	all, err := g.EnumerateAll()
	if err != nil {
		t.Fatal(err)
	}
	costs := make([]float64, len(all))
	for i, tr := range all {
		costs[i] = tr.Cost
	}
	sort.Float64s(costs)
	top, err := g.TopK(50)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 50 {
		t.Fatalf("TopK(50) returned %d plans", len(top))
	}
	for i, tr := range top {
		if tr.Cost != costs[i] {
			t.Errorf("rank %d: TopK cost %v, exhaustive %v", i, tr.Cost, costs[i])
		}
	}
}
