package cost

import (
	"math"
	"reflect"
	"testing"

	"ftpde/internal/plan"
)

// The sweep's bitsets are as many words as the plan needs: on plans with
// more operators and groups than one word holds, the shape streams the
// paths of Collapse's plan, in its order, with its costs.
func TestShapePathsBeyondOneWord(t *testing.T) {
	m := Model{MTBF: 20, MTTR: 1, Percentile: 0.95, PipeConst: 0.9, Nodes: 4}
	for seed := int64(0); seed < 5; seed++ {
		p := plan.RandomDAG(seed, 150)
		for _, cfg := range []func(*plan.Plan) plan.MatConfig{plan.NoMat, plan.AllMat} {
			if err := p.Apply(cfg(p)); err != nil {
				t.Fatal(err)
			}
			c, err := Collapse(p, m)
			if err != nil {
				t.Fatal(err)
			}
			s, err := m.Shape(p)
			if err != nil {
				t.Fatal(err)
			}
			s.collapse() // the plan's own configuration, which the shape starts from
			var paths []plan.Path
			s.Paths(func(groups []int) bool {
				pt := make(plan.Path, len(groups))
				for i, g := range groups {
					pt[i] = plan.OpID(g + 1)
					total := c.P.Op(pt[i]).TotalCost()
					if math.Float64bits(s.Total(g)) != math.Float64bits(total) ||
						math.Float64bits(s.Runtime(g)) != math.Float64bits(m.OperatorCost(total).Runtime) {
						t.Fatalf("seed %d: group %d costs t=%v T=%v, want t=%v", seed, g, s.Total(g), s.Runtime(g), total)
					}
				}
				paths = append(paths, pt)
				return true
			})
			if want := c.P.Paths(); !reflect.DeepEqual(paths, want) {
				t.Fatalf("seed %d: %d shape paths, %d collapsed plan paths, or their order differs", seed, len(paths), len(want))
			}
		}
	}
}
