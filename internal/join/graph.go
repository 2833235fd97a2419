// Package join implements join-order enumeration for the first phase of the
// paper's enumeration function enumFTPlans: a dynamic-programming enumerator
// over the join graph (no cartesian products) that yields either all
// equivalent join orders or the top-k plans ordered by failure-free cost.
//
// Join trees are "ordered": left and right children are distinguished (build
// vs. probe side), so a chain of six relations yields the paper's 1344
// equivalent join orders for TPC-H Q5 (Catalan(5) * 2^5).
package join

import (
	"fmt"
	"math/bits"
)

// Relation is a base relation (a leaf of a join tree).
type Relation struct {
	Name string
	// Rows is the relation's cardinality after local predicates.
	Rows float64
}

// Graph is a join graph: relations plus join edges with selectivities.
type Graph struct {
	rels  []Relation
	nbrs  []uint // relation -> bitset of the relations it shares an edge with
	edges []edge // AddEdge order
}

type edge struct {
	a, b int
	sel  float64
}

// NewGraph returns an empty join graph.
func NewGraph() *Graph {
	return &Graph{}
}

// AddRelation adds a relation and returns its index.
func (g *Graph) AddRelation(r Relation) int {
	g.rels = append(g.rels, r)
	g.nbrs = append(g.nbrs, 0)
	return len(g.rels) - 1
}

// AddEdge declares a join predicate between relations a and b with the given
// selectivity.
func (g *Graph) AddEdge(a, b int, selectivity float64) error {
	if a < 0 || a >= len(g.rels) || b < 0 || b >= len(g.rels) {
		return fmt.Errorf("join: edge references unknown relation (%d,%d)", a, b)
	}
	if a == b {
		return fmt.Errorf("join: self-edge on relation %d", a)
	}
	if selectivity <= 0 || selectivity > 1 {
		return fmt.Errorf("join: selectivity must be in (0,1], got %g", selectivity)
	}
	for _, e := range g.edges {
		if (e.a == a && e.b == b) || (e.a == b && e.b == a) {
			return fmt.Errorf("join: duplicate edge (%d,%d)", a, b)
		}
	}
	g.edges = append(g.edges, edge{a, b, selectivity})
	// Beyond a word's bits the shift yields 0; Validate rejects such graphs.
	g.nbrs[a] |= 1 << uint(b)
	g.nbrs[b] |= 1 << uint(a)
	return nil
}

// Relations returns the graph's relations.
func (g *Graph) Relations() []Relation { return g.rels }

// Len returns the number of relations.
func (g *Graph) Len() int { return len(g.rels) }

// connected reports whether the relations in mask form a connected subgraph.
func (g *Graph) connected(mask uint) bool {
	if mask == 0 {
		return false
	}
	seen := mask & -mask
	for frontier := seen; frontier != 0; {
		v := bits.TrailingZeros(frontier)
		frontier &^= 1 << uint(v)
		next := g.nbrs[v] & mask &^ seen
		seen |= next
		frontier |= next
	}
	return seen == mask
}

// joinable reports whether any edge connects the two disjoint sets.
func (g *Graph) joinable(m1, m2 uint) bool {
	for x := m1; x != 0; x &= x - 1 {
		if g.nbrs[bits.TrailingZeros(x)]&m2 != 0 {
			return true
		}
	}
	return false
}

// crossSelectivity returns the product of the selectivities of all edges
// between the two disjoint sets (1.0 if none — callers ensure joinable),
// multiplied in AddEdge order so that the product is the same on every run.
func (g *Graph) crossSelectivity(m1, m2 uint) float64 {
	sel := 1.0
	for _, e := range g.edges {
		a, b := uint(1)<<uint(e.a), uint(1)<<uint(e.b)
		if (m1&a != 0 && m2&b != 0) || (m1&b != 0 && m2&a != 0) {
			sel *= e.sel
		}
	}
	return sel
}

// Validate checks that the whole graph is connected (so enumeration without
// cartesian products can cover all relations).
func (g *Graph) Validate() error {
	if len(g.rels) == 0 {
		return fmt.Errorf("join: empty graph")
	}
	if len(g.rels) > 30 {
		return fmt.Errorf("join: too many relations (%d) for subset enumeration", len(g.rels))
	}
	full := uint(1)<<uint(len(g.rels)) - 1
	if !g.connected(full) {
		return fmt.Errorf("join: graph is not connected; enumeration would require cartesian products")
	}
	return nil
}
