// Package plan models DAG-structured parallel execution plans in the style
// of Salama et al. (SIGMOD'15): a plan is a directed acyclic graph of
// operators, each annotated with partition-parallel runtime cost tr(o),
// materialization cost tm(o), a materialization flag m(o), and a free/bound
// flag f(o). Free operators may be chosen for materialization by the
// cost-based fault-tolerance optimizer; bound operators are fixed (either
// non-materializable or always-materialized).
package plan

import (
	"fmt"
	"slices"
)

// OpID identifies an operator within a plan. IDs are assigned by AddOperator
// in insertion order starting at 1, mirroring the paper's numbering.
type OpID int

// Kind classifies an operator. The fault-tolerance scheme itself treats
// operators uniformly (any operator with cost estimates is supported,
// including UDFs); kinds exist for plan construction, display, and for
// engine execution.
type Kind int

// Operator kinds.
const (
	KindScan Kind = iota
	kindFilter
	kindProject
	KindHashJoin
	KindAggregate
	KindSort
	kindLimit
	KindRepartition
	kindUnion
	KindMapUDF
	KindReduceUDF
	kindSink
	KindCTE
)

var kindNames = map[Kind]string{
	KindScan:        "scan",
	kindFilter:      "filter",
	kindProject:     "project",
	KindHashJoin:    "hashjoin",
	KindAggregate:   "aggregate",
	KindSort:        "sort",
	kindLimit:       "limit",
	KindRepartition: "repartition",
	kindUnion:       "union",
	KindMapUDF:      "map-udf",
	KindReduceUDF:   "reduce-udf",
	kindSink:        "sink",
	KindCTE:         "cte",
}

// String implements fmt.Stringer.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Operator is a node of a DAG-structured execution plan.
type Operator struct {
	ID   OpID
	Name string
	Kind Kind

	// RunCost is tr(o): the estimated accumulated execution cost of the
	// operator under partition-parallel execution, in cost units.
	RunCost float64
	// MatCost is tm(o): the estimated accumulated cost of materializing the
	// operator's output to fault-tolerant storage, in cost units.
	MatCost float64

	// Materialize is m(o): whether the operator's output is materialized
	// (blocking) or pipelined to its consumers.
	Materialize bool

	// Bound marks f(o) = 0: the materialization decision is fixed by the
	// engine (e.g. repartition outputs that are always materialized, or
	// operators marked non-materializable) and excluded from enumeration.
	Bound bool

	// Rows is the estimated output cardinality; informational (used by the
	// stats package to derive costs and by DOT export).
	Rows float64
}

// TotalCost returns t(o) = tr(o) + tm(o)*m(o).
func (o *Operator) TotalCost() float64 {
	if o.Materialize {
		return o.RunCost + o.MatCost
	}
	return o.RunCost
}

// Plan is a DAG-structured execution plan. Edges point from producers to
// consumers (data-flow direction). Operators and edges are indexed by OpID;
// a slot no operator has is nil.
type Plan struct {
	ops      []*Operator
	order    []OpID   // insertion order
	children [][]OpID // producer -> consumers
	parents  [][]OpID // consumer -> producers
	nextID   OpID

	// Add and Connect carve from these; a full block is replaced, not grown.
	slab  []Operator
	edges []OpID
}

// New returns an empty plan, with room for 16 operators.
func New() *Plan {
	const n = 16
	return &Plan{ops: make([]*Operator, 0, n+1), order: make([]OpID, 0, n),
		children: make([][]OpID, 0, n+1), parents: make([][]OpID, 0, n+1), nextID: 1}
}

// place stores op under its ID, growing the ID-indexed slices to reach it.
func (p *Plan) place(op *Operator) {
	for len(p.ops) <= int(op.ID) {
		p.ops = append(p.ops, nil)
		p.children = append(p.children, nil)
		p.parents = append(p.parents, nil)
	}
	p.ops[op.ID] = op
	p.order = append(p.order, op.ID)
}

// Add inserts op into the plan and assigns it the next ID. It returns the
// assigned ID. The operator is copied; use Op to retrieve the stored value.
func (p *Plan) Add(op Operator) OpID {
	op.ID = p.nextID
	p.nextID++
	if len(p.slab) == cap(p.slab) {
		p.slab = make([]Operator, 0, max(16, len(p.order)))
	}
	p.slab = append(p.slab, op)
	p.place(&p.slab[len(p.slab)-1])
	return op.ID
}

// Connect adds a data-flow edge from producer to consumer. Duplicate edges
// are rejected.
func (p *Plan) Connect(producer, consumer OpID) error {
	if p.Op(producer) == nil {
		return fmt.Errorf("plan: unknown producer %d", producer)
	}
	if p.Op(consumer) == nil {
		return fmt.Errorf("plan: unknown consumer %d", consumer)
	}
	if producer == consumer {
		return fmt.Errorf("plan: self-edge on operator %d", producer)
	}
	if slices.Contains(p.children[producer], consumer) {
		return fmt.Errorf("plan: duplicate edge %d -> %d", producer, consumer)
	}
	p.children[producer] = p.appendEdge(p.children[producer], consumer)
	p.parents[consumer] = p.appendEdge(p.parents[consumer], producer)
	return nil
}

// appendEdge appends id to an operator's edge list, whose first two edges
// are carved from the plan's edge block; a longer list gets its own array.
func (p *Plan) appendEdge(ids []OpID, id OpID) []OpID {
	if cap(ids) == 0 {
		if cap(p.edges)-len(p.edges) < 2 {
			p.edges = make([]OpID, 0, 64)
		}
		n := len(p.edges)
		p.edges, ids = p.edges[:n+2], p.edges[n:n:n+2]
	}
	return append(ids, id)
}

// MustConnect is Connect but panics on error; for use in plan builders whose
// shape is fixed at compile time.
func (p *Plan) MustConnect(producer, consumer OpID) {
	if err := p.Connect(producer, consumer); err != nil {
		panic(err)
	}
}

// Op returns the operator with the given ID, or nil.
func (p *Plan) Op(id OpID) *Operator {
	if id < 0 || int(id) >= len(p.ops) {
		return nil
	}
	return p.ops[id]
}

// Len returns the number of operators.
func (p *Plan) Len() int { return len(p.order) }

// Operators returns all operators in insertion order.
func (p *Plan) Operators() []*Operator {
	out := make([]*Operator, 0, len(p.order))
	for _, id := range p.order {
		out = append(out, p.ops[id])
	}
	return out
}

// OperatorIDs returns all operator IDs in insertion order.
func (p *Plan) OperatorIDs() []OpID {
	out := make([]OpID, len(p.order))
	copy(out, p.order)
	return out
}

// Inputs returns the producers feeding op, sorted by ID.
func (p *Plan) Inputs(id OpID) []OpID { return p.AppendInputs([]OpID{}, id) }

// AppendInputs appends Inputs(id) to dst and returns the extended slice.
func (p *Plan) AppendInputs(dst []OpID, id OpID) []OpID { return p.appendSorted(dst, p.parents, id) }

// Outputs returns the consumers of op, sorted by ID.
func (p *Plan) Outputs(id OpID) []OpID { return p.appendSorted([]OpID{}, p.children, id) }

func (p *Plan) appendSorted(dst []OpID, edges [][]OpID, id OpID) []OpID {
	if p.Op(id) == nil {
		return dst
	}
	dst = append(dst, edges[id]...)
	slices.Sort(dst[len(dst)-len(edges[id]):])
	return dst
}

// Sources returns operators with no inputs (e.g. scans), sorted by ID.
func (p *Plan) Sources() []OpID {
	var out []OpID
	for _, id := range p.order {
		if len(p.parents[id]) == 0 {
			out = append(out, id)
		}
	}
	return out
}

// FreeOperators returns the IDs of free operators in insertion order. The
// size of the materialization-configuration search space is 2^len(result).
func (p *Plan) FreeOperators() []OpID {
	var out []OpID
	for _, id := range p.order {
		if !p.ops[id].Bound {
			out = append(out, id)
		}
	}
	return out
}

// Validate checks structural invariants: at least one operator, acyclicity,
// non-negative costs, and that every operator is connected (plans with more
// than one operator must not contain isolated nodes).
func (p *Plan) Validate() error {
	_, err := p.ValidOrder()
	return err
}

// ValidOrder checks what Validate checks and returns TopoOrder's order.
func (p *Plan) ValidOrder() ([]OpID, error) {
	if len(p.order) == 0 {
		return nil, fmt.Errorf("plan: empty")
	}
	for _, id := range p.order {
		op := p.ops[id]
		if op.RunCost < 0 {
			return nil, fmt.Errorf("plan: operator %d (%s) has negative run cost %g", id, op.Name, op.RunCost)
		}
		if op.MatCost < 0 {
			return nil, fmt.Errorf("plan: operator %d (%s) has negative materialization cost %g", id, op.Name, op.MatCost)
		}
		if len(p.order) > 1 && len(p.parents[id]) == 0 && len(p.children[id]) == 0 {
			return nil, fmt.Errorf("plan: operator %d (%s) is disconnected", id, op.Name)
		}
	}
	return p.TopoOrder()
}

// TopoOrder returns the operator IDs in a topological order (producers before
// consumers) or an error if the graph contains a cycle.
func (p *Plan) TopoOrder() ([]OpID, error) {
	indeg := make([]int, len(p.ops))
	out := make([]OpID, 0, len(p.order)) // doubles as the queue: out[k:] is pending
	for _, id := range p.order {
		if indeg[id] = len(p.parents[id]); indeg[id] == 0 {
			out = append(out, id)
		}
	}
	for k := 0; k < len(out); k++ {
		for _, c := range p.children[out[k]] {
			if indeg[c]--; indeg[c] == 0 {
				out = append(out, c)
			}
		}
	}
	if len(out) != len(p.order) {
		return nil, fmt.Errorf("plan: cycle detected (%d of %d operators ordered)", len(out), len(p.order))
	}
	return out, nil
}

// Clone returns a deep copy of the plan (operators and edges). The copy's
// operators share one backing array, and so do its edges.
func (p *Plan) Clone() *Plan {
	q := &Plan{
		ops:      make([]*Operator, len(p.ops)),
		order:    slices.Clone(p.order),
		children: make([][]OpID, len(p.children)),
		parents:  make([][]OpID, len(p.parents)),
		nextID:   p.nextID,
	}
	ops := make([]Operator, len(p.order))
	edges := 0
	for _, id := range p.order {
		edges += len(p.children[id])
	}
	buf := make([]OpID, 0, 2*edges)
	// Full slice expressions, so an edge added to the copy reallocates
	// instead of overwriting the next operator's edges.
	cut := func(ids []OpID) []OpID {
		buf = append(buf, ids...)
		return buf[len(buf)-len(ids) : len(buf) : len(buf)]
	}
	for k, id := range p.order {
		ops[k] = *p.ops[id]
		q.ops[id] = &ops[k]
		q.children[id] = cut(p.children[id])
		q.parents[id] = cut(p.parents[id])
	}
	return q
}

// String renders a compact single-line description.
// tr and tm are the sums of tr(o) and tm(o) over all operators.
func (p *Plan) String() string {
	tr, tm := 0.0, 0.0
	for _, id := range p.order {
		tr += p.ops[id].RunCost
		tm += p.ops[id].MatCost
	}
	return fmt.Sprintf("plan{%d ops, %d free, tr=%.2f, tm=%.2f}", p.Len(), len(p.FreeOperators()), tr, tm)
}
