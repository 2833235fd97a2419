package cost

import (
	"errors"
	"math/bits"
	"slices"
	"strconv"
	"strings"

	"ftpde/internal/plan"
)

// Collapsed is a collapsed plan P^c (paper Section 3.3): every operator that
// does not materialize its output is folded into the next materializing
// consumer(s). A collapsed operator is the granularity of re-execution — once
// it has materialized its output it never needs to re-run.
type Collapsed struct {
	// P is the collapsed plan itself: one operator per collapsed group, with
	// RunCost = tr(c) (Eq. 1), MatCost = tm(c), Materialize = whether the
	// group's root materializes.
	P *plan.Plan
	// Source is the original plan the collapse was derived from.
	Source *plan.Plan
	// Root maps each collapsed operator (ID in P) to the original operator
	// that terminates the group (the materializing operator or a sink).
	Root map[plan.OpID]plan.OpID
	// Members maps each collapsed operator to coll(c), the original
	// operators folded into it, sorted by ID.
	Members map[plan.OpID][]plan.OpID
	// Dominant maps each collapsed operator to dom(c), the longest execution
	// path (by tr) inside the group, ending at the root.
	Dominant map[plan.OpID][]plan.OpID
	// ByRoot maps an original root operator ID to the collapsed operator ID.
	ByRoot map[plan.OpID]plan.OpID
}

// Collapse builds the collapsed plan for p under its current materialization
// configuration. Roots are the operators with m(o) = 1 plus all sinks (a
// query's final results are consumed even if not spooled to fault-tolerant
// storage; they still delimit re-execution of downstream work because there
// is none). The groups are the ones Shape scores a configuration on,
// materialized as a plan of their own.
func Collapse(p *plan.Plan, m Model) (*Collapsed, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	s, err := m.Shape(p)
	if err != nil {
		return nil, err
	}
	s.collapse()
	return s.collapsed(), nil
}

// Shape is a plan's structure in index space, built once and then collapsed
// under any number of materialization configurations: Listing 1 scores 2^f
// of them on one plan, and none changes an edge or a cost. Operator i is the
// plan's i-th operator in OperatorIDs order; group g is the collapsed
// operator of the g-th root in that order, which is the order Collapse
// numbers collapsed operators in (group g is collapsed operator g+1). The
// shape copies what it reads, so Bind and SetMask never write to the plan.
type Shape struct {
	m         Model
	p         *plan.Plan
	ids       []plan.OpID
	inputs    [][]int // Inputs order
	consumers []int   // operator -> how many operators read it; 0 for a sink
	topo      []int   // producers before consumers
	free      []int   // FreeOperators order: bit k of a mask is free[k]
	bound     []bool
	rc, mc    []float64
	mat       []bool // m(o) of the configuration collapsed last

	// Filled per configuration by collapse, reused across configurations.
	group    []int     // operator -> its group if it is a root, else -1
	roots    []int     // group -> root operator
	longest  []float64 // operator -> tr-weighted longest path ending at it, through non-roots only
	pred     []int     // operator -> its input on that path, -1 where the path starts
	feeds    []uint64  // operator -> bitset of the groups whose roots it reads, directly or through non-roots
	children [][]int   // group -> consumer groups, ascending
	sources  []int     // groups no group feeds, ascending
	total    []float64 // group -> t(c)
	runtime  []float64 // group -> T(c), -1 until Runtime asks for it
	path     []int
}

// Shape indexes p's structure and costs for collapsing. The configuration it
// starts from is p's own; Bind and SetMask change it.
func (m Model) Shape(p *plan.Plan) (*Shape, error) {
	topo, err := p.TopoOrder()
	if err != nil {
		return nil, err
	}
	ids := p.OperatorIDs()
	n := len(ids)
	if n == 0 {
		return nil, errors.New("cost: empty plan")
	}
	index := make([]int, slices.Max(ids)+1)
	for i, id := range ids {
		index[id] = i
	}
	s := &Shape{
		m: m, p: p, ids: ids,
		inputs: make([][]int, n), consumers: make([]int, n), topo: make([]int, n), free: make([]int, 0, n), bound: make([]bool, n),
		rc: make([]float64, n), mc: make([]float64, n), mat: make([]bool, n),
		group: make([]int, n), roots: make([]int, 0, n), longest: make([]float64, n), pred: make([]int, n),
		children: make([][]int, n), feeds: make([]uint64, n*((n+63)/64)),
		total: make([]float64, n), runtime: make([]float64, n),
	}
	in := make([]int, 0, 2*n) // every operator's inputs, in one array
	ends := make([]int, n)
	for i, id := range ids {
		op := p.Op(id)
		s.rc[i], s.mc[i], s.mat[i], s.bound[i] = op.RunCost, op.MatCost, op.Materialize, op.Bound
		if op.Free() {
			s.free = append(s.free, i)
		}
		for _, pa := range p.Inputs(id) {
			in = append(in, index[pa])
			s.consumers[index[pa]]++
		}
		ends[i] = len(in)
	}
	start := 0
	for i, end := range ends {
		s.inputs[i] = in[start:end:end]
		start = end
	}
	for k, id := range topo {
		s.topo[k] = index[id]
	}
	return s, nil
}

// Len returns the number of operators.
func (s *Shape) Len() int { return len(s.ids) }

// Inputs returns the operators operator i reads, in plan.Inputs order. The
// caller must not modify the slice.
func (s *Shape) Inputs(i int) []int { return s.inputs[i] }

// Consumers returns how many operators read operator i's output.
func (s *Shape) Consumers(i int) int { return s.consumers[i] }

// Topo returns the operators in topological order. The caller must not
// modify the slice.
func (s *Shape) Topo() []int { return s.topo }

// RunCost returns tr(o) of operator i.
func (s *Shape) RunCost(i int) float64 { return s.rc[i] }

// MatCost returns tm(o) of operator i.
func (s *Shape) MatCost(i int) float64 { return s.mc[i] }

// Free reports whether the enumeration may set operator i's flag.
func (s *Shape) Free(i int) bool { return !s.bound[i] }

// Materialized returns m(o) of operator i in the configuration collapsed
// last, or the fixed flag of a bound operator.
func (s *Shape) Materialized(i int) bool { return s.mat[i] }

// NumFree returns the number of free operators: a mask has that many bits.
func (s *Shape) NumFree() int { return len(s.free) }

// Bind makes free operator i bound and non-materialized, as pruning rules 1
// and 2 do; the free operators after it move down one mask bit.
func (s *Shape) Bind(i int) {
	s.bound[i], s.mat[i] = true, false
	s.free = slices.DeleteFunc(s.free, func(j int) bool { return j == i })
}

// Plan returns a copy of the shape's plan with the operators Bind bound and
// the free operators set as mask sets them (plan.ConfigFromMask).
func (s *Shape) Plan(mask uint64) *plan.Plan {
	q := s.p.Clone()
	for i, id := range s.ids {
		op := q.Op(id)
		op.Bound, op.Materialize = s.bound[i], s.mat[i]
	}
	for k, i := range s.free {
		q.Op(s.ids[i]).Materialize = mask&(1<<uint(k)) != 0
	}
	return q
}

// SetMask collapses the plan under the configuration that materializes free
// operator k exactly when bit k of mask is set (plan.ConfigFromMask over
// FreeOperators); bound operators keep their flags.
func (s *Shape) SetMask(mask uint64) {
	for k, i := range s.free {
		s.mat[i] = mask&(1<<uint(k)) != 0
	}
	s.collapse()
}

// collapse is the collapse rule, in one walk in topological order. Roots are
// the materializing operators and the sinks. A non-root operator is folded
// into every group downstream of it, and what it contributes does not depend
// on the group: its longest tr-weighted path back through non-roots, and the
// roots it reads through non-roots. So one value per operator serves every
// group, and a root's values are its group's tr(c)/CONSTpipe, dom(c) and
// producer groups.
func (s *Shape) collapse() {
	s.roots = s.roots[:0]
	for i := range s.ids {
		s.group[i] = -1
		if s.mat[i] || s.consumers[i] == 0 {
			s.group[i] = len(s.roots)
			s.roots = append(s.roots, i)
		}
	}
	w := len(s.feeds) / len(s.ids)
	for _, i := range s.topo {
		feeds := s.feeds[i*w : (i+1)*w]
		clear(feeds)
		best, pred := 0.0, -1
		for _, pa := range s.inputs[i] {
			if g := s.group[pa]; g >= 0 {
				feeds[g/64] |= 1 << uint(g%64)
				continue
			}
			for k, x := range s.feeds[pa*w : (pa+1)*w] {
				feeds[k] |= x
			}
			if v := s.longest[pa]; pred < 0 || v > best {
				best, pred = v, pa
			}
		}
		s.longest[i] = best + s.rc[i]
		s.pred[i] = pred
	}

	s.sources = s.sources[:0]
	for g := range s.roots {
		s.children[g] = s.children[g][:0]
	}
	for g, r := range s.roots {
		fed := false
		for k, x := range s.feeds[r*w : (r+1)*w] {
			for ; x != 0; x &= x - 1 {
				from := k*64 + bits.TrailingZeros64(x)
				s.children[from] = append(s.children[from], g)
				fed = true
			}
		}
		if !fed {
			s.sources = append(s.sources, g)
		}
		s.total[g] = s.longest[r] * s.m.PipeConst
		if s.mat[r] {
			s.total[g] += s.mc[r]
		}
		s.runtime[g] = -1
	}
}

// Total returns t(c) = tr(c) + tm(c)·m(c) of group g.
func (s *Shape) Total(g int) float64 { return s.total[g] }

// Runtime returns T(c) of group g (Eq. 8), evaluated at most once per
// configuration.
func (s *Shape) Runtime(g int) float64 {
	if s.runtime[g] < 0 {
		s.runtime[g] = s.m.OperatorCost(s.total[g]).Runtime
	}
	return s.runtime[g]
}

// Paths streams the collapsed plan's execution paths as groups, in the order
// plan.Paths lists the paths of Collapse's plan (sources, then each group's
// consumers, ascending), until fn returns false. fn must not keep the slice.
func (s *Shape) Paths(fn func(groups []int) bool) {
	s.path = s.path[:0]
	for _, g := range s.sources {
		if !s.walk(g, fn) {
			return
		}
	}
}

func (s *Shape) walk(g int, fn func([]int) bool) bool {
	s.path = append(s.path, g)
	ok := true
	if len(s.children[g]) == 0 {
		ok = fn(s.path)
	}
	for _, c := range s.children[g] {
		if ok = s.walk(c, fn); !ok {
			break
		}
	}
	s.path = s.path[:len(s.path)-1]
	return ok
}

// collapsed materializes the configuration collapsed last as a Collapsed.
func (s *Shape) collapsed() *Collapsed {
	c := &Collapsed{
		P:        plan.New(),
		Source:   s.p,
		Root:     make(map[plan.OpID]plan.OpID, len(s.roots)),
		Members:  make(map[plan.OpID][]plan.OpID, len(s.roots)),
		Dominant: make(map[plan.OpID][]plan.OpID, len(s.roots)),
		ByRoot:   make(map[plan.OpID]plan.OpID, len(s.roots)),
	}
	in := make([]int, len(s.ids)) // 1 + the last group the operator was found in
	for g, r := range s.roots {
		// coll(c): the root and every non-root operator upstream of it
		// through non-roots, consumers first.
		var members []plan.OpID
		in[r] = g + 1
		for k := len(s.topo) - 1; k >= 0; k-- {
			if i := s.topo[k]; in[i] == g+1 {
				members = append(members, s.ids[i])
				for _, pa := range s.inputs[i] {
					if s.group[pa] < 0 {
						in[pa] = g + 1
					}
				}
			}
		}
		slices.Sort(members)
		var dom []plan.OpID
		for i := r; i >= 0; i = s.pred[i] {
			dom = append(dom, s.ids[i])
		}
		slices.Reverse(dom)

		tm := 0.0
		if s.mat[r] {
			tm = s.mc[r]
		}
		cid := c.P.Add(plan.Operator{
			Name:        groupName(members),
			Kind:        s.p.Op(s.ids[r]).Kind,
			RunCost:     s.longest[r] * s.m.PipeConst,
			MatCost:     tm,
			Materialize: s.mat[r],
		})
		c.Root[cid] = s.ids[r]
		c.ByRoot[s.ids[r]] = cid
		c.Members[cid] = members
		c.Dominant[cid] = dom
	}
	for g := range s.roots {
		for _, to := range s.children[g] {
			c.P.MustConnect(plan.OpID(g+1), plan.OpID(to+1))
		}
	}
	return c
}

func groupName(members []plan.OpID) string {
	parts := make([]string, len(members))
	for i, id := range members {
		parts[i] = strconv.Itoa(int(id))
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// OpByMembers returns the collapsed operator whose member set is exactly ids
// (order-insensitive), or 0 if none matches. Intended for tests and tools.
func (c *Collapsed) OpByMembers(ids ...plan.OpID) plan.OpID {
	want := append([]plan.OpID(nil), ids...)
	slices.Sort(want)
	for cid, members := range c.Members {
		if slices.Equal(members, want) {
			return cid
		}
	}
	return 0
}

// Total returns t(c) for the collapsed operator with ID cid.
func (c *Collapsed) Total(cid plan.OpID) float64 {
	return c.P.Op(cid).TotalCost()
}
