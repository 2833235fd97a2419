package experiments

import (
	"fmt"

	"ftpde/internal/cost"
	"ftpde/internal/failure"
	"ftpde/internal/plan"
)

// Table2 reproduces the paper's worked cost-estimation example (Table 2):
// the Figure 3 collapsed plan with MTBFcost = 60, MTTRcost = 0, S = 0.95.
// The paper computed a({1,2,3}) from the rounded gamma = 0.94 (yielding
// 0.0648); this implementation uses exact arithmetic (0.0928), noted below.
func Table2() *Table {
	m := cost.DefaultModel(failure.Spec{MTBF: 60})
	p := plan.PaperExample()
	c, err := cost.Collapse(p, m)
	if err != nil {
		panic(err) // static example; cannot fail
	}
	t := &Table{
		Title:  "Table 2: Example - Cost Estimation (MTBF=60, MTTR=0, S=0.95)",
		Header: []string{"c", "t(c)", "w(c)", "gamma(c)", "a(c)", "T(c)"},
		Notes: []string{
			"paper reports a({1,2,3})=0.0648 and T=4.13 from the rounded gamma=0.94; exact arithmetic gives 0.0928/4.19",
		},
	}
	for _, group := range [][]plan.OpID{{1, 2, 3}, {4, 5}, {6}, {7}} {
		cid := c.OpByMembers(group...)
		oc := m.OperatorCost(c.Total(cid))
		t.AddRow(
			c.P.Op(cid).Name,
			fmt.Sprintf("%.0f", oc.Total),
			fmt.Sprintf("%.1f", oc.Wasted),
			fmt.Sprintf("%.2f", oc.Gamma),
			fmt.Sprintf("%.4f", oc.Attempts),
			fmt.Sprintf("%.2f", oc.Runtime),
		)
	}
	dom, all := m.EstimateCollapsed(c)
	for _, pc := range all {
		last := pc.Path[len(pc.Path)-1]
		mark := ""
		if c.Root[last] == c.Root[dom.Path[len(dom.Path)-1]] {
			mark = " (dominant)"
		}
		t.Notes = append(t.Notes, fmt.Sprintf("TPt ending at %s = %.2f%s",
			c.P.Op(last).Name, pc.Runtime, mark))
	}
	return t
}
