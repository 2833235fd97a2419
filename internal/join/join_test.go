package join

import (
	"math"
	"slices"
	"sort"
	"testing"

	"ftpde/internal/plan"
)

// chain6 builds the TPC-H Q5 join chain R-N-C-O-L-S.
func chain6() *Graph {
	g := NewGraph()
	names := []string{"REGION", "NATION", "CUSTOMER", "ORDERS", "LINEITEM", "SUPPLIER"}
	rows := []float64{5, 25, 150000, 1500000, 6000000, 10000}
	ids := make([]int, len(names))
	for i := range names {
		ids[i] = g.AddRelation(Relation{Name: names[i], Rows: rows[i]})
	}
	for i := 0; i+1 < len(ids); i++ {
		if err := g.AddEdge(ids[i], ids[i+1], 0.001); err != nil {
			panic(err)
		}
	}
	return g
}

// TestQ5Has1344JoinOrders reproduces the paper's Section 5.5 count: "we
// enumerate all 1344 equivalent join orders of TPC-H query 5".
func TestQ5Has1344JoinOrders(t *testing.T) {
	g := chain6()
	n, err := g.CountOrders()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1344 {
		t.Fatalf("Q5 chain join orders = %d, want 1344 (Catalan(5)*2^5)", n)
	}
	all, err := g.EnumerateAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 1344 {
		t.Fatalf("EnumerateAll returned %d trees, want 1344", len(all))
	}
}

func TestEnumerateAllTreesAreValid(t *testing.T) {
	g := chain6()
	all, err := g.EnumerateAll()
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for _, tr := range all {
		if tr.Relations() != 6 {
			t.Fatalf("tree %s covers %d relations", tr.Render(g), tr.Relations())
		}
		s := tr.Render(g)
		if seen[s] {
			t.Fatalf("duplicate tree %s", s)
		}
		seen[s] = true
		if tr.Cost <= 0 || tr.Card <= 0 {
			t.Fatalf("tree %s has non-positive cost/card", s)
		}
	}
}

func TestSmallGraphCounts(t *testing.T) {
	// Two relations: 2 ordered trees (A⨝B, B⨝A).
	g := NewGraph()
	a := g.AddRelation(Relation{Name: "A", Rows: 10})
	b := g.AddRelation(Relation{Name: "B", Rows: 10})
	if err := g.AddEdge(a, b, 0.1); err != nil {
		t.Fatal(err)
	}
	n, err := g.CountOrders()
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("2-relation count = %d, want 2", n)
	}

	// Chain of 3: Catalan(2)*2^2 = 8.
	g3 := NewGraph()
	x := g3.AddRelation(Relation{Name: "X", Rows: 10})
	y := g3.AddRelation(Relation{Name: "Y", Rows: 10})
	z := g3.AddRelation(Relation{Name: "Z", Rows: 10})
	if err := g3.AddEdge(x, y, 0.1); err != nil {
		t.Fatal(err)
	}
	if err := g3.AddEdge(y, z, 0.1); err != nil {
		t.Fatal(err)
	}
	n3, err := g3.CountOrders()
	if err != nil {
		t.Fatal(err)
	}
	if n3 != 8 {
		t.Errorf("3-chain count = %d, want 8", n3)
	}

	// Star with center Y: X-Y, Y-Z, plus X-Z missing -> same as chain here;
	// add a clique of 3: every split is joinable -> 12 ordered trees.
	gc := NewGraph()
	x = gc.AddRelation(Relation{Name: "X", Rows: 10})
	y = gc.AddRelation(Relation{Name: "Y", Rows: 10})
	z = gc.AddRelation(Relation{Name: "Z", Rows: 10})
	for _, e := range [][2]int{{x, y}, {y, z}, {x, z}} {
		if err := gc.AddEdge(e[0], e[1], 0.1); err != nil {
			t.Fatal(err)
		}
	}
	nc, err := gc.CountOrders()
	if err != nil {
		t.Fatal(err)
	}
	if nc != 12 {
		t.Errorf("3-clique count = %d, want 12", nc)
	}
}

func TestNoCartesianProducts(t *testing.T) {
	g := NewGraph()
	g.AddRelation(Relation{Name: "A", Rows: 10})
	g.AddRelation(Relation{Name: "B", Rows: 10})
	// No edge: disconnected graph must be rejected.
	if _, err := g.CountOrders(); err == nil {
		t.Error("disconnected graph accepted")
	}
	if _, err := g.TopK(5); err == nil {
		t.Error("disconnected graph accepted by TopK")
	}
}

func TestAddEdgeErrors(t *testing.T) {
	g := NewGraph()
	a := g.AddRelation(Relation{Name: "A", Rows: 10})
	b := g.AddRelation(Relation{Name: "B", Rows: 10})
	if err := g.AddEdge(a, 7, 0.1); err == nil {
		t.Error("unknown relation accepted")
	}
	if err := g.AddEdge(a, a, 0.1); err == nil {
		t.Error("self edge accepted")
	}
	if err := g.AddEdge(a, b, 0); err == nil {
		t.Error("zero selectivity accepted")
	}
	if err := g.AddEdge(a, b, 1.5); err == nil {
		t.Error("selectivity > 1 accepted")
	}
	if err := g.AddEdge(a, b, 0.5); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(b, a, 0.5); err == nil {
		t.Error("duplicate edge accepted")
	}
}

// graphOf builds a graph of the given relation sizes and edges, in order.
func graphOf(rows []float64, edges [][2]int, sels []float64) *Graph {
	g := NewGraph()
	for i, r := range rows {
		g.AddRelation(Relation{Name: string(rune('A' + i)), Rows: r})
	}
	for i, e := range edges {
		if err := g.AddEdge(e[0], e[1], sels[i]); err != nil {
			panic(err)
		}
	}
	return g
}

// cyclic5 is a five-relation ring with one chord.
func cyclic5() *Graph {
	return graphOf([]float64{40, 3000, 120000, 800, 25000},
		[][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}, {0, 2}},
		[]float64{0.01, 0.002, 0.3, 0.0007, 0.05, 0.13})
}

// k4 is the complete graph on four relations: the split {A,B} | {C,D} is
// crossed by four edges.
func k4() *Graph {
	return graphOf([]float64{1000, 2000, 3000, 4000},
		[][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}},
		[]float64{0.1, 0.7, 0.13, 0.11, 0.03, 0.3})
}

// TopK's ranking is exact for C_out at every rank, not only the first: its
// costs, rank by rank, are the exhaustive enumeration's sorted costs.
func TestTopKMatchesExhaustiveMinimum(t *testing.T) {
	for name, g := range map[string]*Graph{"chain6": chain6(), "cyclic5": cyclic5()} {
		assertTopKExact(t, name, g, 50)
	}
}

// assertTopKExact checks g.TopK(k) rank by rank against EnumerateAll.
func assertTopKExact(t *testing.T, name string, g *Graph, k int) {
	t.Helper()
	all, err := g.EnumerateAll()
	if err != nil {
		t.Fatal(err)
	}
	costs := make([]float64, len(all))
	for i, tr := range all {
		costs[i] = tr.Cost
	}
	sort.Float64s(costs)
	top, err := g.TopK(k)
	if err != nil {
		t.Fatal(err)
	}
	if want := min(k, len(all)); len(top) != want {
		t.Fatalf("%s: TopK(%d) returned %d plans, want %d", name, k, len(top), want)
	}
	for i, tr := range top {
		if tr.Cost != costs[i] {
			t.Errorf("%s: rank %d: TopK cost %v, exhaustive %v", name, i, tr.Cost, costs[i])
		}
	}
}

// The cardinality of a join multiplies the selectivities of every edge
// crossing it in AddEdge order, so a cyclic graph gives bit-identical
// estimates on every build.
func TestCyclicEstimatesAreDeterministic(t *testing.T) {
	fingerprint := func(g *Graph) []uint64 {
		all, err := g.EnumerateAll()
		if err != nil {
			t.Fatal(err)
		}
		top, err := g.TopK(20)
		if err != nil {
			t.Fatal(err)
		}
		var out []uint64
		for _, tr := range append(all, top...) {
			out = append(out, math.Float64bits(tr.Card), math.Float64bits(tr.Cost))
		}
		return out
	}
	want := fingerprint(k4())
	for i := 0; i < 50; i++ {
		if got := fingerprint(k4()); !slices.Equal(got, want) {
			t.Fatalf("build %d: estimates differ from the first build", i+1)
		}
	}
}

func TestTopKErrors(t *testing.T) {
	g := chain6()
	if _, err := g.TopK(0); err == nil {
		t.Error("k=0 accepted")
	}
	empty := NewGraph()
	if _, err := empty.TopK(1); err == nil {
		t.Error("empty graph accepted")
	}
}

func TestCardinalityEstimation(t *testing.T) {
	g := NewGraph()
	a := g.AddRelation(Relation{Name: "A", Rows: 100})
	b := g.AddRelation(Relation{Name: "B", Rows: 200})
	if err := g.AddEdge(a, b, 0.01); err != nil {
		t.Fatal(err)
	}
	trees, err := g.EnumerateAll()
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range trees {
		if tr.Card != 100*200*0.01 {
			t.Errorf("join cardinality = %g, want 200", tr.Card)
		}
		if tr.Cost != tr.Card {
			t.Errorf("C_out of single join = %g, want card %g", tr.Cost, tr.Card)
		}
	}
}

func TestToPlan(t *testing.T) {
	g := chain6()
	top, err := g.TopK(1)
	if err != nil {
		t.Fatal(err)
	}
	coster := SimpleCoster{ScanPerRow: 1e-6, JoinPerInputRow: 1e-6, JoinPerOutputRow: 2e-6, MatPerRow: 5e-6}
	p, root := ToPlan(top[0], g, coster)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.Len() != 11 { // 6 scans + 5 joins
		t.Errorf("plan has %d operators, want 11", p.Len())
	}
	if got := len(p.Sinks()); got != 1 || p.Sinks()[0] != root {
		t.Errorf("plan sinks = %v, want [%d]", p.Sinks(), root)
	}
	if got := len(p.Sources()); got != 6 {
		t.Errorf("plan has %d sources, want 6", got)
	}
	for _, op := range p.Operators() {
		if op.RunCost <= 0 || op.MatCost <= 0 {
			t.Errorf("operator %d has non-positive costs: %+v", op.ID, op)
		}
		if op.Materialize || op.Bound {
			t.Errorf("operator %d should start free and non-materialized", op.ID)
		}
	}
}

func TestToPlanCostersAreApplied(t *testing.T) {
	g := NewGraph()
	a := g.AddRelation(Relation{Name: "A", Rows: 1000})
	b := g.AddRelation(Relation{Name: "B", Rows: 500})
	if err := g.AddEdge(a, b, 0.002); err != nil {
		t.Fatal(err)
	}
	trees, err := g.EnumerateAll()
	if err != nil {
		t.Fatal(err)
	}
	coster := SimpleCoster{ScanPerRow: 0.001, JoinPerInputRow: 0.002, JoinPerOutputRow: 0.003, MatPerRow: 0.01}
	p, root := ToPlan(trees[0], g, coster)
	joinOp := p.Op(root)
	wantRun := (1000+500)*0.002 + 1000*0.003 // out card = 1000*500*0.002 = 1000
	if math.Abs(joinOp.RunCost-wantRun) > 1e-9 {
		t.Errorf("join run cost = %g, want %g", joinOp.RunCost, wantRun)
	}
	if math.Abs(joinOp.MatCost-10) > 1e-9 {
		t.Errorf("join mat cost = %g, want 10", joinOp.MatCost)
	}
	var scanA *plan.Operator
	for _, op := range p.Operators() {
		if op.Name == "Scan A" {
			scanA = op
		}
	}
	if scanA == nil || scanA.RunCost != 1.0 || scanA.MatCost != 10 {
		t.Errorf("scan A costs wrong: %+v", scanA)
	}
}
