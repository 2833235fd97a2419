package cost

import (
	"math"
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
	in, at    []int // operator i reads in[at[i]:at[i+1]], in plan.Inputs order
	consumers []int // operator -> how many operators read it; 0 for a sink
	topo      []int // producers before consumers
	free      []int // FreeOperators order: bit k of a mask is free[k]
	rc, mc    []float64
	lnMiss    float64 // ln(1-S), which every T(c) needs

	// A bitset of operators or groups is w words; member i is bit i%64 of
	// word i/64.
	w     int
	bound []uint64 // operators: f(o) = 0
	mat   []uint64 // operators: m(o) of the configuration collapsed last
	sinks []uint64 // operators: those no operator reads

	// Filled per configuration by collapse, reused across configurations.
	group   []int     // operator -> its group if it is a root; stale for the others
	roots   []int     // group -> root operator
	longest []float64 // operator -> tr-weighted longest path ending at it, through non-roots only
	pred    []int     // operator -> its input on that path, -1 where the path starts
	feeds   []uint64  // operator -> operators: the roots it reads, directly or through non-roots
	kids    []uint64  // group -> groups: its consumers
	sources []uint64  // groups: those no group feeds
	total   []float64 // group -> t(c)
	path    []int

	// root operator -> the t(c) it last had T(c) evaluated for, and T(c)
	tc, runtime []float64
}

// Shape indexes p's structure and costs for collapsing, and checks what
// plan.Validate checks. The configuration it starts from is p's own; Bind
// and SetMask change it.
func (m Model) Shape(p *plan.Plan) (*Shape, error) {
	topo, err := p.ValidOrder()
	if err != nil {
		return nil, err
	}
	ids := p.OperatorIDs()
	n, w := len(ids), (len(ids)+63)/64
	// The per-operator arrays are cut from one block per element type.
	ints := make([]int, 10*n+1+int(slices.Max(ids))+1)
	floats := make([]float64, 6*n)
	words := make([]uint64, (2*n+4)*w)
	s := &Shape{
		m: m, p: p, ids: ids, lnMiss: m.lnMiss(), w: w,
		in: take(&ints, 2*n)[:0], at: take(&ints, n+1), consumers: take(&ints, n), topo: take(&ints, n),
		free: take(&ints, n)[:0], rc: take(&floats, n), mc: take(&floats, n),
		bound: take(&words, w), mat: take(&words, w), sinks: take(&words, w), sources: take(&words, w),
		feeds: take(&words, n*w), kids: take(&words, n*w),
		group: take(&ints, n), roots: take(&ints, n)[:0], pred: take(&ints, n), path: take(&ints, n)[:0],
		longest: take(&floats, n), total: take(&floats, n), tc: take(&floats, n), runtime: take(&floats, n),
	}
	t0 := m.opCost(0, s.lnMiss).Runtime // T(c) at t(c) = 0, where tc starts
	for i := range s.runtime {
		s.runtime[i] = t0
	}
	index := ints
	for i, id := range ids {
		index[id] = i
	}
	var buf []plan.OpID
	for i, id := range ids {
		op := p.Op(id)
		s.rc[i], s.mc[i] = op.RunCost, op.MatCost
		if op.Materialize {
			s.mat[i/64] |= 1 << (i % 64)
		}
		if op.Bound {
			s.bound[i/64] |= 1 << (i % 64)
		} else {
			s.free = append(s.free, i)
		}
		buf = p.AppendInputs(buf[:0], id)
		for _, pa := range buf {
			s.in = append(s.in, index[pa])
			s.consumers[index[pa]]++
		}
		s.at[i+1] = len(s.in)
	}
	for k, id := range topo {
		s.topo[k] = index[id]
	}
	for i, c := range s.consumers {
		if c == 0 {
			s.sinks[i/64] |= 1 << (i % 64)
		}
	}
	return s, nil
}

// take cuts the first k elements off *block, capped so that appending to
// them cannot run into what follows.
func take[T any](block *[]T, k int) []T {
	b := (*block)[:k:k]
	*block = (*block)[k:]
	return b
}

// Len returns the number of operators.
func (s *Shape) Len() int { return len(s.ids) }

// Inputs returns the operators operator i reads, in plan.Inputs order. The
// caller must not modify the slice.
func (s *Shape) Inputs(i int) []int { return s.in[s.at[i]:s.at[i+1]] }

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
func (s *Shape) Free(i int) bool { return s.bound[i/64]>>(i%64)&1 == 0 }

// Materialized returns m(o) of operator i in the configuration collapsed
// last, or the fixed flag of a bound operator.
func (s *Shape) Materialized(i int) bool { return s.mat[i/64]>>(i%64)&1 != 0 }

// NumFree returns the number of free operators: a mask has that many bits.
func (s *Shape) NumFree() int { return len(s.free) }

// Bind makes free operator i bound and non-materialized, as pruning rules 1
// and 2 do; the free operators after it move down one mask bit.
func (s *Shape) Bind(i int) {
	s.bound[i/64] |= 1 << (i % 64)
	s.mat[i/64] &^= 1 << (i % 64)
	s.free = slices.DeleteFunc(s.free, func(j int) bool { return j == i })
}

// Plan collapses the shape under mask, as SetMask does, and returns a copy
// of its plan with the operators Bind bound and the free operators set as
// mask sets them (plan.ConfigFromMask).
func (s *Shape) Plan(mask uint64) *plan.Plan {
	s.SetMask(mask)
	q := s.p.Clone()
	for i, id := range s.ids {
		op := q.Op(id)
		op.Bound, op.Materialize = !s.Free(i), s.Materialized(i)
	}
	return q
}

// SetMask collapses the plan under the configuration that materializes free
// operator k exactly when bit k of mask is set (plan.ConfigFromMask over
// FreeOperators); bound operators keep their flags.
func (s *Shape) SetMask(mask uint64) {
	for k, i := range s.free {
		s.mat[i/64] = s.mat[i/64]&^(1<<(i%64)) | (mask>>k&1)<<(i%64)
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
	w := s.w
	s.roots = s.roots[:0]
	for k, x := range s.mat {
		for x |= s.sinks[k]; x != 0; x &= x - 1 {
			r := k*64 + bits.TrailingZeros64(x)
			s.group[r] = len(s.roots)
			s.roots = append(s.roots, r)
		}
	}
	clear(s.feeds)
	for _, i := range s.topo {
		f := s.feeds[i*w : i*w+w]
		best, pred := 0.0, -1
		for _, pa := range s.Inputs(i) {
			// An input has a consumer, so it is a root exactly when it
			// materializes.
			if word, bit := uint(pa)/64, uint(pa)%64; s.mat[word]>>bit&1 != 0 {
				f[word] |= 1 << bit
				continue
			}
			for k := range f {
				f[k] |= s.feeds[pa*w+k]
			}
			if v := s.longest[pa]; pred < 0 || v > best {
				best, pred = v, pa
			}
		}
		s.longest[i] = best + s.rc[i]
		s.pred[i] = pred
	}

	clear(s.kids[:len(s.roots)*w])
	clear(s.sources)
	for g, r := range s.roots {
		var fed uint64
		for k, x := range s.feeds[r*w : r*w+w] {
			for fed |= x; x != 0; x &= x - 1 {
				from := s.group[k*64+bits.TrailingZeros64(x)]
				s.kids[from*w+g/64] |= 1 << (g % 64)
			}
		}
		if fed == 0 {
			s.sources[g/64] |= 1 << (g % 64)
		}
		s.total[g] = s.longest[r] * s.m.PipeConst
		if s.Materialized(r) {
			s.total[g] += s.mc[r]
		}
	}
}

// Total returns t(c) = tr(c) + tm(c)·m(c) of group g.
func (s *Shape) Total(g int) float64 { return s.total[g] }

// Runtime returns T(c) of group g (Eq. 8). It is evaluated again only when
// t(c) of the group's root differs from the last time it was: a
// configuration that keeps the flags upstream of a root keeps its t(c).
func (s *Shape) Runtime(g int) float64 {
	r, t := s.roots[g], s.total[g]
	if math.Float64bits(t) != math.Float64bits(s.tc[r]) {
		s.tc[r], s.runtime[r] = t, s.m.opCost(t, s.lnMiss).Runtime
	}
	return s.runtime[r]
}

// Paths streams the collapsed plan's execution paths as groups, in the order
// plan.Paths lists the paths of Collapse's plan (sources, then each group's
// consumers, ascending), until fn returns false. fn must not keep the slice.
func (s *Shape) Paths(fn func(groups []int) bool) {
	s.path = s.path[:0]
	s.walk(s.sources, fn)
}

// walk appends each group of set to the path in turn, ascending, and streams
// the paths that continue below it. A group ends a path when its root is a
// sink: any other root has a consumer, which some group downstream reads.
func (s *Shape) walk(set []uint64, fn func([]int) bool) bool {
	for k, x := range set {
		for ; x != 0; x &= x - 1 {
			g := k*64 + bits.TrailingZeros64(x)
			s.path = append(s.path, g)
			var ok bool
			if s.consumers[s.roots[g]] == 0 {
				ok = fn(s.path)
			} else {
				ok = s.walk(s.kids[g*s.w:(g+1)*s.w], fn)
			}
			s.path = s.path[:len(s.path)-1]
			if !ok {
				return false
			}
		}
	}
	return true
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
				for _, pa := range s.Inputs(i) {
					if !s.Materialized(pa) {
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
		if s.Materialized(r) {
			tm = s.mc[r]
		}
		cid := c.P.Add(plan.Operator{
			Name:        groupName(members),
			Kind:        s.p.Op(s.ids[r]).Kind,
			RunCost:     s.longest[r] * s.m.PipeConst,
			MatCost:     tm,
			Materialize: s.Materialized(r),
		})
		c.Root[cid] = s.ids[r]
		c.ByRoot[s.ids[r]] = cid
		c.Members[cid] = members
		c.Dominant[cid] = dom
	}
	for g := range s.roots {
		for k, x := range s.kids[g*s.w : (g+1)*s.w] {
			for ; x != 0; x &= x - 1 {
				c.P.MustConnect(plan.OpID(g+1), plan.OpID(k*64+bits.TrailingZeros64(x)+1))
			}
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
