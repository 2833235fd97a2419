package sql

import (
	"encoding/json"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"

	"ftpde/internal/cost"
	"ftpde/internal/plan"
	"ftpde/internal/stats"
)

// pinnedRegimes are the two cost regimes the golden plans are recorded under:
// the cheap-write one the audit mapping was first checked in, and the
// CPU-heavy, short-MTBF one that makes the optimizer materialize.
var pinnedRegimes = []struct {
	name string
	cp   stats.CostParams
	m    cost.Model
}{
	{"audit", stats.CostParams{CPUPerRow: 1e-6, WritePerRow: 1.7e-5, Nodes: 4},
		cost.Model{MTBF: 3600, MTTR: 1, Percentile: 0.95, PipeConst: 1, Nodes: 4}},
	{"materializing", stats.CostParams{CPUPerRow: 1e-3, WritePerRow: 1e-4, Nodes: 4},
		cost.Model{MTBF: 60, MTTR: 1, Percentile: 0.95, PipeConst: 1, Nodes: 4}},
}

// pinnedAudit is what the golden file records of BuildAuditPlan: the chosen
// configuration and, per collapsed group, its engine operators as a set.
type pinnedAudit struct {
	Config []plan.OpID   `json:"materialized"`
	Groups []pinnedGroup `json:"groups"`
}

type pinnedGroup struct {
	Name        string   `json:"name"`
	Ops         []string `json:"ops"`
	Materialize bool     `json:"materialize,omitempty"`
	Dominant    bool     `json:"dominant,omitempty"`
}

// pinnedPlans renders every pinned plan as one line "regime/what/query: json".
func pinnedPlans(t *testing.T) string {
	t.Helper()
	cat := tpchCatalog(t)
	tstats, err := CollectStats(cat, []string{"customer", "orders", "lineitem", "supplier", "nation", "region"})
	if err != nil {
		t.Fatal(err)
	}
	queries := []struct{ name, text string }{{"Q1", servedQ1}, {"Q3", servedQ3}, {"Q5", servedQ5}}
	var lines []string
	emit := func(key string, v any) {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, key+": "+string(b))
	}
	for _, rg := range pinnedRegimes {
		for _, q := range queries {
			stmt, err := Parse(q.text)
			if err != nil {
				t.Fatal(err)
			}
			p, err := CostPlan(stmt, cat, tstats, rg.cp)
			if err != nil {
				t.Fatalf("%s: %v", q.name, err)
			}
			emit(rg.name+"/costplan/"+q.name, p)

			if q.name != "Q1" {
				cands, err := enumerateJoinOrderPlans(stmt, cat, tstats, rg.cp, 20)
				if err != nil {
					t.Fatalf("%s: %v", q.name, err)
				}
				for i, c := range cands {
					emit(rg.name+"/candidate/"+q.name+"/"+strconv.Itoa(i), c)
				}
				res, err := FTPlan(stmt, cat, tstats, rg.cp, rg.m, 20)
				if err != nil {
					t.Fatalf("%s: %v", q.name, err)
				}
				emit(rg.name+"/ftplan/"+q.name, res.Plan)
			}

			audit, err := BuildAuditPlan(stmt, cat, tstats, rg.cp, rg.m)
			if err != nil {
				t.Fatalf("%s: %v", q.name, err)
			}
			var pa pinnedAudit
			for _, op := range audit.Opt.Plan.Operators() {
				if op.Materialize {
					pa.Config = append(pa.Config, op.ID)
				}
			}
			for _, op := range audit.Pred.Ops {
				ops := append([]string(nil), op.Ops...)
				sort.Strings(ops)
				pa.Groups = append(pa.Groups, pinnedGroup{Name: op.Name, Ops: ops, Materialize: op.Materialize, Dominant: op.Dominant})
			}
			emit(rg.name+"/audit/"+q.name, pa)
		}
	}
	return strings.Join(lines, "\n") + "\n"
}

// The cost plans of the served queries — the written order CostPlan prices,
// the join orders FTPlan enumerates, and the configuration BuildAuditPlan
// chooses with the engine operators of every collapsed group — are pinned in
// testdata/pinned_plans.txt: a planner refactor must not move a figure, a
// name or an edge. The test never rewrites the file.
func TestCostPlansPinned(t *testing.T) {
	want, err := os.ReadFile("testdata/pinned_plans.txt")
	if err != nil {
		t.Fatal(err)
	}
	got := pinnedPlans(t)
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("line %d differs from the pinned plans\n got: %s\nwant: %s", i+1, g, w)
		}
	}
}
