package join

import (
	"cmp"
	"fmt"
	"slices"
)

// Tree is a binary join tree. A leaf has Rel >= 0 and nil children; an inner
// node joins Left (build side) with Right (probe side).
type Tree struct {
	Rel         int // leaf relation index, or -1 for joins
	Left, Right *Tree
	// Card is the estimated output cardinality of this (sub-)tree.
	Card float64
	// Cost is the cumulative C_out cost: the sum of the output cardinalities
	// of all join nodes in the subtree — the classic cost function for
	// failure-free join ordering.
	Cost float64
	mask uint
}

// IsLeaf reports whether the node is a base relation.
func (t *Tree) IsLeaf() bool { return t.Rel >= 0 }

// Relations returns the number of leaves.
func (t *Tree) Relations() int {
	if t.IsLeaf() {
		return 1
	}
	return t.Left.Relations() + t.Right.Relations()
}

// String renders e.g. "((R ⨝ N) ⨝ C)".
func (t *Tree) String() string {
	return t.render(nil)
}

// Render names leaves via the graph's relation names.
func (t *Tree) Render(g *Graph) string { return t.render(g) }

func (t *Tree) render(g *Graph) string {
	if t.IsLeaf() {
		if g != nil && t.Rel < len(g.rels) {
			return g.rels[t.Rel].Name
		}
		return fmt.Sprintf("R%d", t.Rel)
	}
	return "(" + t.Left.render(g) + " JOIN " + t.Right.render(g) + ")"
}

func (g *Graph) leaf(i int) *Tree {
	return &Tree{Rel: i, Card: g.rels[i].Rows, mask: 1 << uint(i)}
}

func (g *Graph) joinNodes(l, r *Tree) *Tree {
	card := l.Card * r.Card * g.crossSelectivity(l.mask, r.mask)
	return &Tree{
		Rel:  -1,
		Left: l, Right: r,
		Card: card,
		Cost: l.Cost + r.Cost + card,
		mask: l.mask | r.mask,
	}
}

// subsetsOf iterates all non-empty proper subsets of mask.
func subsetsOf(mask uint, fn func(uint) bool) {
	for s := (mask - 1) & mask; s != 0; s = (s - 1) & mask {
		if !fn(s) {
			return
		}
	}
}

// EnumerateAll returns every ordered bushy join tree without cartesian
// products. The result size grows exponentially; Validate limits the graph to
// 30 relations, and callers should keep well below that for full enumeration
// (the paper enumerates 1344 orders for the six relations of TPC-H Q5).
func (g *Graph) EnumerateAll() ([]*Tree, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	n := uint(len(g.rels))
	full := uint(1)<<n - 1
	memo := make(map[uint][]*Tree)
	var build func(mask uint) []*Tree
	build = func(mask uint) []*Tree {
		if ts, ok := memo[mask]; ok {
			return ts
		}
		var out []*Tree
		if mask&(mask-1) == 0 {
			// Single relation.
			for i := uint(0); i < n; i++ {
				if mask == 1<<i {
					out = []*Tree{g.leaf(int(i))}
					break
				}
			}
		} else {
			subsetsOf(mask, func(s1 uint) bool {
				s2 := mask ^ s1
				if !g.connected(s1) || !g.connected(s2) || !g.joinable(s1, s2) {
					return true
				}
				for _, l := range build(s1) {
					for _, r := range build(s2) {
						out = append(out, g.joinNodes(l, r))
					}
				}
				return true
			})
		}
		memo[mask] = out
		return out
	}
	return build(full), nil
}

// CountOrders returns the number of ordered bushy join trees without
// cartesian products, without materializing them.
func (g *Graph) CountOrders() (int, error) {
	if err := g.Validate(); err != nil {
		return 0, err
	}
	n := uint(len(g.rels))
	full := uint(1)<<n - 1
	memo := make(map[uint]int)
	var count func(mask uint) int
	count = func(mask uint) int {
		if c, ok := memo[mask]; ok {
			return c
		}
		c := 0
		if mask&(mask-1) == 0 {
			c = 1
		} else {
			subsetsOf(mask, func(s1 uint) bool {
				s2 := mask ^ s1
				if g.connected(s1) && g.connected(s2) && g.joinable(s1, s2) {
					c += count(s1) * count(s2)
				}
				return true
			})
		}
		memo[mask] = c
		return c
	}
	return count(full), nil
}

// TopK returns the k cheapest join trees by C_out cost, ascending. It runs
// dynamic programming over connected subsets keeping the k best partial
// plans per subset — the first phase of enumFTPlans ("use dynamic
// programming to find the top-k plans ordered ascending by their cost
// without mid-query failures"). The ranking is exact for C_out: a tree's cost
// grows with each subtree's, so both subtrees of a tree in a subset's top k
// are in their own subsets' top k.
func (g *Graph) TopK(k int) ([]*Tree, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if k <= 0 {
		return nil, fmt.Errorf("join: k must be positive, got %d", k)
	}
	n := uint(len(g.rels))
	full := uint(1)<<n - 1

	best := make([][]*Tree, full+1) // subset -> its k cheapest trees
	for i := uint(0); i < n; i++ {
		best[1<<i] = []*Tree{g.leaf(int(i))}
	}

	// A candidate is ranked as a value; only the k kept become Trees.
	type cand struct {
		l, r       *Tree
		card, cost float64
	}
	var cands []cand
	// Every proper subset of a mask is a smaller number, so ascending order
	// visits the parts of a split before the subset they form.
	for mask := uint(1); mask <= full; mask++ {
		if mask&(mask-1) == 0 || !g.connected(mask) {
			continue
		}
		cands = cands[:0]
		subsetsOf(mask, func(s1 uint) bool {
			s2 := mask ^ s1
			if !g.connected(s1) || !g.connected(s2) || !g.joinable(s1, s2) {
				return true
			}
			sel := g.crossSelectivity(s1, s2)
			for _, l := range best[s1] {
				for _, r := range best[s2] {
					card := l.Card * r.Card * sel
					cands = append(cands, cand{l, r, card, l.Cost + r.Cost + card})
				}
			}
			return true
		})
		slices.SortStableFunc(cands, func(a, b cand) int { return cmp.Compare(a.cost, b.cost) })
		kept := make([]Tree, min(k, len(cands)))
		best[mask] = make([]*Tree, len(kept))
		for i := range kept {
			c := cands[i]
			kept[i] = Tree{Rel: -1, Left: c.l, Right: c.r, Card: c.card, Cost: c.cost, mask: mask}
			best[mask][i] = &kept[i]
		}
	}
	out := best[full]
	if len(out) == 0 {
		return nil, fmt.Errorf("join: no plan found (graph disconnected?)")
	}
	return out, nil
}
