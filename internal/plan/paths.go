package plan

// Path is a sequence of operator IDs from a source to a sink following
// data-flow edges.
type Path []OpID

// Paths enumerates every execution path from each source to each sink via
// depth-first traversal. For DAG plans the number of paths can be exponential
// in principle; query plans are small enough that full enumeration is what
// the paper does (Listing 1, line 9), with pruning handled by the caller.
func (p *Plan) Paths() []Path {
	var out []Path
	var cur Path
	var dfs func(id OpID)
	dfs = func(id OpID) {
		cur = append(cur, id)
		children := p.children[id]
		if len(children) == 0 {
			cp := make(Path, len(cur))
			copy(cp, cur)
			out = append(out, cp)
		} else {
			for _, c := range children {
				dfs(c)
			}
		}
		cur = cur[:len(cur)-1]
	}
	for _, s := range p.Sources() {
		dfs(s)
	}
	return out
}

// PathRunCost returns RPt = sum of t(o) over the path — the path runtime
// without recovery costs.
func (p *Plan) PathRunCost(pt Path) float64 {
	s := 0.0
	for _, id := range pt {
		s += p.ops[id].TotalCost()
	}
	return s
}

// Reachable returns the set of operators reachable from id (excluding id)
// following data-flow edges.
func (p *Plan) Reachable(id OpID) map[OpID]bool {
	seen := make(map[OpID]bool)
	if p.Op(id) == nil {
		return seen
	}
	var dfs func(OpID)
	dfs = func(o OpID) {
		for _, c := range p.children[o] {
			if !seen[c] {
				seen[c] = true
				dfs(c)
			}
		}
	}
	dfs(id)
	return seen
}
