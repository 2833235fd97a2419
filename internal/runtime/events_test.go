package runtime

import (
	"context"
	"math"
	"sync"
	"testing"

	"ftpde/internal/cost"
	"ftpde/internal/obs"
	"ftpde/internal/sql"
	"ftpde/internal/stats"
	"ftpde/internal/tpch"
)

// zeroProgress snapshots a query's progress when the first worker takes its
// first failure decision: the decision precedes the worker's compute, and
// every other worker's first decision waits for the snapshot, so no
// partition can have committed yet.
type zeroProgress struct {
	once sync.Once
	prog *obs.Progress
	snap obs.ProgressSnapshot
}

func (z *zeroProgress) FailCompute(string, int, int) bool {
	z.once.Do(func() { z.snap = z.prog.Snapshot() })
	return false
}

// TestProgressETAAtZeroIsThePrediction runs the served queries, whose one
// collapsed group spans several runtime stages (2 for Q1, 4 for Q3, 8 for
// Q5 at these cost parameters), with the ETA forecast the service attaches:
// before anything commits, the ETA must be the summed group prediction, with
// each group counted once however many stages it runs as.
func TestProgressETAAtZeroIsThePrediction(t *testing.T) {
	cat, err := tpch.Generate(0.002, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	tstats, err := sql.CollectStats(cat, []string{"region", "nation", "supplier", "customer", "orders", "lineitem"})
	if err != nil {
		t.Fatal(err)
	}
	cp := stats.CostParams{CPUPerRow: 1e-6, WritePerRow: 1.7e-5, Nodes: 4}
	m := cost.Model{MTBF: 3600, MTTR: 1, Percentile: 0.95, PipeConst: 1, Nodes: 4}
	for _, q := range []struct{ name, text string }{
		{"Q1", `SELECT l_returnflag, l_linestatus, SUM(l_quantity) AS sum_qty, SUM(l_extendedprice) AS sum_price, COUNT(*) AS cnt
			FROM lineitem WHERE l_shipdate <= 1200 GROUP BY l_returnflag, l_linestatus`},
		{"Q3", `SELECT l_orderkey, SUM(l_extendedprice * (1 - l_discount)) AS revenue
			FROM customer JOIN orders ON c_custkey = o_custkey JOIN lineitem ON o_orderkey = l_orderkey
			WHERE c_mktsegment = 'BUILDING' AND o_orderdate < 1200
			GROUP BY l_orderkey ORDER BY revenue DESC`},
		{"Q5", `SELECT n_name, SUM(l_extendedprice * (1 - l_discount)) AS revenue
			FROM region JOIN nation ON r_regionkey = n_regionkey JOIN supplier ON n_nationkey = s_nationkey
			JOIN lineitem ON s_suppkey = l_suppkey JOIN orders ON l_orderkey = o_orderkey
			JOIN customer ON o_custkey = c_custkey
			GROUP BY n_name ORDER BY revenue DESC`},
	} {
		t.Run(q.name, func(t *testing.T) {
			stmt, err := sql.Parse(q.text)
			if err != nil {
				t.Fatal(err)
			}
			audit, err := sql.BuildAuditPlan(stmt, cat, tstats, cp, m)
			if err != nil {
				t.Fatal(err)
			}
			reg := obs.NewProgressRegistry(1)
			prog := reg.Begin("t", q.name)
			prog.SetPrediction(audit.Pred.DominantRuntime, obs.StagePredictions(audit.Pred))
			inj := &zeroProgress{prog: prog}
			r, err := New(Config{Nodes: 4, Injector: inj, Progress: prog})
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := executeWithin(t, r, context.Background(), audit.Phys.Root); err != nil {
				t.Fatal(err)
			}
			reg.End(prog, nil)
			var want float64
			for _, g := range audit.Pred.Ops {
				want += g.Runtime
			}
			if got := inj.snap.EtaSeconds; want <= 0 || math.Abs(got-want) > 1e-9*want {
				t.Errorf("ETA at zero progress = %.6g model s, want the summed group prediction %.6g (%d groups)",
					got, want, len(audit.Pred.Ops))
			}
			if snap := prog.Snapshot(); !snap.Done || snap.EtaSeconds != 0 || snap.Frac != 1 {
				t.Errorf("finished query: done=%v eta=%g frac=%g, want done, no ETA, all parts", snap.Done, snap.EtaSeconds, snap.Frac)
			}
		})
	}
}
