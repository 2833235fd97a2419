package cost

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"ftpde/internal/plan"
)

// refCollapse is the map-based Collapse that walked every group on its own,
// kept as the reference the index-space kernel must reproduce exactly.
func refCollapse(p *plan.Plan, m Model) (*Collapsed, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}

	isRoot := make(map[plan.OpID]bool)
	for _, op := range p.Operators() {
		if op.Materialize || len(p.Outputs(op.ID)) == 0 {
			isRoot[op.ID] = true
		}
	}

	var roots []plan.OpID
	for _, id := range p.OperatorIDs() {
		if isRoot[id] {
			roots = append(roots, id)
		}
	}

	c := &Collapsed{
		P:        plan.New(),
		Source:   p,
		Root:     make(map[plan.OpID]plan.OpID),
		Members:  make(map[plan.OpID][]plan.OpID),
		Dominant: make(map[plan.OpID][]plan.OpID),
		ByRoot:   make(map[plan.OpID]plan.OpID),
	}

	memberSets := make(map[plan.OpID]map[plan.OpID]bool, len(roots))
	for _, r := range roots {
		members := map[plan.OpID]bool{r: true}
		var up func(plan.OpID)
		up = func(id plan.OpID) {
			for _, pa := range p.Inputs(id) {
				if isRoot[pa] || members[pa] {
					continue
				}
				members[pa] = true
				up(pa)
			}
		}
		up(r)
		memberSets[r] = members
	}

	for _, r := range roots {
		members := memberSets[r]
		longest := make(map[plan.OpID]float64)
		pred := make(map[plan.OpID]plan.OpID)
		var walk func(plan.OpID) float64
		walk = func(id plan.OpID) float64 {
			if v, ok := longest[id]; ok {
				return v
			}
			best := 0.0
			bestPa := plan.OpID(0)
			for _, pa := range p.Inputs(id) {
				if !members[pa] || isRoot[pa] {
					continue
				}
				if v := walk(pa); bestPa == 0 || v > best {
					best = v
					bestPa = pa
				}
			}
			total := best + p.Op(id).RunCost
			longest[id] = total
			if bestPa != 0 {
				pred[id] = bestPa
			}
			return total
		}
		domLen := walk(r)

		var domPath []plan.OpID
		for id := r; ; {
			domPath = append([]plan.OpID{id}, domPath...)
			pa, ok := pred[id]
			if !ok {
				break
			}
			id = pa
		}

		rootOp := p.Op(r)
		tr := domLen * m.PipeConst
		tm := 0.0
		if rootOp.Materialize {
			tm = rootOp.MatCost
		}
		sortedMembers := make([]plan.OpID, 0, len(members))
		for id := range members {
			sortedMembers = append(sortedMembers, id)
		}
		sort.Slice(sortedMembers, func(i, j int) bool { return sortedMembers[i] < sortedMembers[j] })

		cid := c.P.Add(plan.Operator{
			Name:        refGroupName(sortedMembers),
			Kind:        rootOp.Kind,
			RunCost:     tr,
			MatCost:     tm,
			Materialize: rootOp.Materialize,
		})
		c.Root[cid] = r
		c.ByRoot[r] = cid
		c.Members[cid] = sortedMembers
		c.Dominant[cid] = domPath
	}

	type edge struct{ from, to plan.OpID }
	seen := make(map[edge]bool)
	for _, r2 := range roots {
		cid2 := c.ByRoot[r2]
		for _, member := range c.Members[cid2] {
			for _, pa := range p.Inputs(member) {
				if !isRoot[pa] {
					continue
				}
				cid1 := c.ByRoot[pa]
				if cid1 == cid2 {
					continue
				}
				e := edge{cid1, cid2}
				if !seen[e] {
					seen[e] = true
					c.P.MustConnect(cid1, cid2)
				}
			}
		}
	}

	if _, err := c.P.TopoOrder(); err != nil {
		return nil, fmt.Errorf("cost: collapsed plan invalid: %w", err)
	}
	return c, nil
}

func refGroupName(members []plan.OpID) string {
	s := "{"
	for i, id := range members {
		if i > 0 {
			s += ","
		}
		s += fmt.Sprint(int(id))
	}
	return s + "}"
}

// TestCollapseMatchesReference collapses random DAGs under every
// materialization configuration of their free operators and requires the
// kernel-built Collapsed to equal the reference's: groups, roots, members,
// dominant paths, edges in child order, and every cost bit for bit — and the
// dominant path EstimateCollapsed picks from each to be the same.
func TestCollapseMatchesReference(t *testing.T) {
	m := Model{MTBF: 20, MTTR: 1, Percentile: 0.95, PipeConst: 0.9, Nodes: 4}
	configs := 0
	check := func(where string, p *plan.Plan) {
		t.Helper()
		configs++
		want, err := refCollapse(p, m)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Collapse(p, m)
		if err != nil {
			t.Fatal(err)
		}
		if got.Source != p {
			t.Fatalf("%s: Source is not the collapsed plan", where)
		}
		for _, f := range []struct {
			name      string
			got, want any
		}{
			{"Root", got.Root, want.Root},
			{"Members", got.Members, want.Members},
			{"Dominant", got.Dominant, want.Dominant},
			{"ByRoot", got.ByRoot, want.ByRoot},
		} {
			if !reflect.DeepEqual(f.got, f.want) {
				t.Fatalf("%s: %s = %v, want %v", where, f.name, f.got, f.want)
			}
		}
		if got.P.Len() != want.P.Len() {
			t.Fatalf("%s: %d groups, want %d", where, got.P.Len(), want.P.Len())
		}
		for _, cid := range want.P.OperatorIDs() {
			g, w := got.P.Op(cid), want.P.Op(cid)
			if g.Name != w.Name || g.Kind != w.Kind || g.Materialize != w.Materialize ||
				math.Float64bits(g.RunCost) != math.Float64bits(w.RunCost) ||
				math.Float64bits(g.MatCost) != math.Float64bits(w.MatCost) {
				t.Fatalf("%s: group %d = %+v, want %+v", where, cid, *g, *w)
			}
			if !reflect.DeepEqual(got.P.Outputs(cid), want.P.Outputs(cid)) ||
				!reflect.DeepEqual(got.P.Inputs(cid), want.P.Inputs(cid)) {
				t.Fatalf("%s: edges of group %d differ", where, cid)
			}
		}
		if !reflect.DeepEqual(got.P.Paths(), want.P.Paths()) {
			t.Fatalf("%s: paths %v, want %v (child order)", where, got.P.Paths(), want.P.Paths())
		}
		gd, _ := m.EstimateCollapsed(got)
		wd := refEstimate(m, want)
		if math.Float64bits(gd.Runtime) != math.Float64bits(wd.Runtime) || !reflect.DeepEqual(gd.Path, wd.Path) {
			t.Fatalf("%s: dominant %v at %v, want %v at %v", where, gd.Path, gd.Runtime, wd.Path, wd.Runtime)
		}
	}
	for seed := int64(0); seed < 60; seed++ {
		p := plan.RandomDAG(seed, 4+int(seed%10))
		free := p.FreeOperators()
		s, err := m.Shape(p)
		if err != nil {
			t.Fatal(err)
		}
		for mask := uint64(0); mask < 1<<uint(len(free)); mask++ {
			if err := p.Apply(plan.ConfigFromMask(free, mask)); err != nil {
				t.Fatal(err)
			}
			where := fmt.Sprintf("seed %d mask %b", seed, mask)
			check(where, p)

			// The enumerator's view of the same configuration: one shape,
			// re-collapsed per mask, walked without building a plan.
			c, _ := Collapse(p, m)
			s.SetMask(mask)
			var paths []plan.Path
			s.Paths(func(groups []int) bool {
				pt := make(plan.Path, len(groups))
				for i, g := range groups {
					pt[i] = plan.OpID(g + 1)
					op := c.P.Op(pt[i])
					if math.Float64bits(s.Total(g)) != math.Float64bits(op.TotalCost()) ||
						math.Float64bits(s.Runtime(g)) != math.Float64bits(m.OperatorCost(op.TotalCost()).Runtime) {
						t.Fatalf("%s: group %d costs t=%v T=%v, collapsed operator %+v", where, g, s.Total(g), s.Runtime(g), *op)
					}
				}
				paths = append(paths, pt)
				return true
			})
			if !reflect.DeepEqual(paths, c.P.Paths()) {
				t.Fatalf("%s: shape paths %v, collapsed plan paths %v", where, paths, c.P.Paths())
			}
		}
	}
	// More groups than one bitset word holds.
	for seed := int64(0); seed < 5; seed++ {
		p := plan.RandomDAG(seed, 150)
		check(fmt.Sprintf("seed %d, 150 operators", seed), p)
		if err := p.Apply(plan.AllMat(p)); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("seed %d, 150 operators, all materialized", seed), p)
	}
	t.Logf("%d configurations", configs)
}

// refEstimate is EstimateCollapsed as it was: every path costed operator by
// operator.
func refEstimate(m Model, c *Collapsed) PathCost {
	var dominant PathCost
	for _, path := range c.P.Paths() {
		pc := PathCost{Path: append([]plan.OpID(nil), path...)}
		for _, id := range path {
			oc := m.OperatorCost(c.P.Op(id).TotalCost())
			pc.Ops = append(pc.Ops, oc)
			pc.RunCost += oc.Total
			pc.Runtime += oc.Runtime
		}
		if pc.Runtime > dominant.Runtime {
			dominant = pc
		}
	}
	return dominant
}
