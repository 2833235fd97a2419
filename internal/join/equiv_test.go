package join

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"ftpde/internal/plan"
)

// refTopK is TopK as it ranked before the bounded insertion: every candidate
// of a subset is collected and stable-sorted by cost, and the first k are
// kept. TopK must return the same trees, in the same order, at every k.
func refTopK(g *Graph, k int) []*Tree {
	full := uint(1)<<uint(len(g.rels)) - 1
	best := make([][]*Tree, full+1)
	for i := range g.rels {
		best[1<<uint(i)] = []*Tree{g.leaf(i)}
	}
	for mask := uint(1); mask <= full; mask++ {
		if mask&(mask-1) == 0 || !g.connected(mask) {
			continue
		}
		var cands []*Tree
		subsetsOf(mask, func(s1 uint) bool {
			s2 := mask ^ s1
			if g.connected(s1) && g.connected(s2) && g.joinable(s1, s2) {
				for _, l := range best[s1] {
					for _, r := range best[s2] {
						cands = append(cands, g.joinNodes(l, r))
					}
				}
			}
			return true
		})
		slices.SortStableFunc(cands, func(a, b *Tree) int { return cmp.Compare(a.Cost, b.Cost) })
		best[mask] = cands[:min(k, len(cands))]
	}
	return best[full]
}

// treeKey renders a tree with its leaves' relation indexes and the exact
// bits of every node's cardinality and cost, so two keys are equal only for
// the same tree with the same estimates.
func treeKey(t *Tree) string {
	est := fmt.Sprintf("%x/%x", math.Float64bits(t.Card), math.Float64bits(t.Cost))
	if t.IsLeaf() {
		return fmt.Sprintf("R%d:%s", t.Rel, est)
	}
	return "(" + treeKey(t.Left) + " " + treeKey(t.Right) + "):" + est
}

// tiedGraphs are graphs built so that many join trees cost the same: equal
// relation sizes and equal selectivities, where only the order in which
// candidates are found separates them. Two have NaN costs: one a relation
// of unknown size, whose NaN spreads to every tree that joins it, and one
// infinite sizes of both signs, where a subset's trees cost NaN or -Inf
// depending on the order they add the two up.
func tiedGraphs() map[string]*Graph {
	same := func(n int, rows float64, edges [][2]int) *Graph {
		r := make([]float64, n)
		s := make([]float64, len(edges))
		for i := range r {
			r[i] = rows
		}
		for i := range s {
			s[i] = 0.01
		}
		return graphOf(r, edges, s)
	}
	return map[string]*Graph{
		"chain5":  same(5, 100, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}}),
		"star5":   same(5, 1000, [][2]int{{0, 1}, {0, 2}, {0, 3}, {0, 4}}),
		"ring5":   same(5, 100, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}}),
		"clique4": same(4, 10, [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}),
		"nan5": graphOf([]float64{40, math.NaN(), 120000, 800, 25000},
			[][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}}, []float64{0.01, 0.002, 0.3, 0.0007}),
		"infs5": graphOf([]float64{math.Inf(1), 10, math.Inf(-1), 5, 30},
			[][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {0, 4}}, []float64{0.5, 0.5, 0.5, 0.5, 0.5}),
	}
}

// TopK keeps, per subset, exactly the first k candidates of a stable sort by
// cmp.Compare on cost: ties keep the order the candidates were found in, and
// NaN costs rank first.
func TestTopKMatchesStableSortReference(t *testing.T) {
	graphs := tiedGraphs()
	graphs["chain6"], graphs["cyclic5"], graphs["k4"] = chain6(), cyclic5(), k4()
	for name, g := range graphs {
		for k := 1; k <= 50; k++ {
			got, err := g.TopK(k)
			if err != nil {
				t.Fatal(err)
			}
			want := refTopK(g, k)
			if len(got) != len(want) {
				t.Fatalf("%s k=%d: %d trees, want %d", name, k, len(got), len(want))
			}
			for i := range got {
				if a, b := treeKey(got[i]), treeKey(want[i]); a != b {
					t.Fatalf("%s k=%d rank %d:\n got %s\nwant %s", name, k, i, a, b)
				}
			}
		}
	}
}

// Every join ToPlan emits is named after its subtree, as Render names it,
// over all of Q5's join orders.
func TestToPlanNamesJoinsByRender(t *testing.T) {
	g := chain6()
	all, err := g.EnumerateAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 1344 {
		t.Fatalf("%d orders, want 1344", len(all))
	}
	coster := simpleCoster{ScanPerRow: 1, JoinPerInputRow: 1, JoinPerOutputRow: 1, MatPerRow: 1}
	for _, tree := range all {
		// ToPlan adds operators in post-order, so its joins come in the
		// order this walk finds the inner nodes.
		var joins []*Tree
		var post func(*Tree)
		post = func(t *Tree) {
			if !t.IsLeaf() {
				post(t.Left)
				post(t.Right)
				joins = append(joins, t)
			}
		}
		post(tree)
		p, _ := ToPlan(tree, g, coster)
		k := 0
		for _, op := range p.Operators() {
			if op.Kind != plan.KindHashJoin {
				continue
			}
			if want := "Join " + joins[k].render(g); op.Name != want {
				t.Fatalf("%s: join %d named %q, want %q", tree.render(g), k, op.Name, want)
			}
			k++
		}
		if k != len(joins) {
			t.Fatalf("%s: %d joins in the plan, want %d", tree.render(g), k, len(joins))
		}
	}
}

// A graph too large for TopK's table of every subset is refused before
// anything is allocated for it.
func TestTooManyRelationsFailFast(t *testing.T) {
	for _, n := range []int{21, 30} {
		g := NewGraph()
		for i := 0; i < n; i++ {
			g.AddRelation(Relation{Name: fmt.Sprintf("R%d", i), Rows: 100})
			if i > 0 {
				if err := g.AddEdge(i-1, i, 0.01); err != nil {
					t.Fatal(err)
				}
			}
		}
		start := time.Now()
		_, err := g.TopK(1)
		if err == nil || !strings.Contains(err.Error(), "too many relations") {
			t.Fatalf("%d relations: TopK error %v, want too many relations", n, err)
		}
		if _, err := g.EnumerateAll(); err == nil {
			t.Fatalf("%d relations: EnumerateAll accepted the graph", n)
		}
		if _, err := countOrders(g); err == nil {
			t.Fatalf("%d relations: CountOrders accepted the graph", n)
		}
		if d := time.Since(start); d > time.Second {
			t.Fatalf("%d relations: refusing took %v", n, d)
		}
	}
}
