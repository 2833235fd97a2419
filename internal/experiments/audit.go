package experiments

import (
	"context"
	"fmt"
	"math"
	"strings"
	"time"

	"ftpde/internal/cost"
	"ftpde/internal/engine"
	"ftpde/internal/failure"
	"ftpde/internal/obs"
	"ftpde/internal/runtime"
	"ftpde/internal/sql"
	"ftpde/internal/stats"
	"ftpde/internal/tpch"
)

// auditSF is the scale factor for the audit experiment: these runs execute on
// the real engine (not the simulator), so the database must be small enough
// to regenerate per run.
const auditSF = 0.002

// auditQueries are the SQL workloads the audit runs: one pipeline-only
// aggregation (Q1) and one multi-join (Q3), each clean and under scripted
// failures at the operators the optimizer is likeliest to materialize.
var auditQueries = []struct {
	name string
	text string
	fail []failSpec // scripted failures for the faulty run
}{
	{
		name: "Q1",
		text: `SELECT l_returnflag, l_linestatus, SUM(l_quantity) AS sum_qty, COUNT(*) AS cnt
		       FROM lineitem WHERE l_shipdate <= 1200
		       GROUP BY l_returnflag, l_linestatus`,
		fail: []failSpec{{"aggregate", 1, 0}},
	},
	{
		name: "Q3",
		text: `SELECT l_orderkey, SUM(l_extendedprice * (1 - l_discount)) AS revenue
		       FROM customer
		       JOIN orders ON c_custkey = o_custkey
		       JOIN lineitem ON o_orderkey = l_orderkey
		       WHERE c_mktsegment = 'BUILDING' AND o_orderdate < 1200
		       GROUP BY l_orderkey ORDER BY revenue DESC`,
		fail: []failSpec{{"join-2", 1, 0}, {"aggregate", 2, 0}},
	},
}

type failSpec struct {
	op      string
	part    int
	attempt int
}

// ExtAudit runs TPC-H SQL on the concurrent runtime with tracing enabled and
// joins the cost model's plan-time forecast against the observed spans — the
// live predicted-vs-actual counterpart of the simulator-based accuracy
// experiments (fig9), and the programmatic face of ftsql -explain-analyze.
func ExtAudit(c Config) (*Table, error) {
	c = c.withDefaults()
	cat, err := tpch.Generate(auditSF, c.Nodes, c.Seed)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: fmt.Sprintf("Extension: cost-model audit — predicted vs observed per collapsed operator (SF%g, %d nodes)",
			auditSF, c.Nodes),
		Header: []string{"query", "run", "collapsed", "engine ops", "M", "D", "T(c) pred", "actual", "att", "fails", "relerr"},
		Notes: []string{
			"per-group relative error is dominated by the synthetic cost parameters, not the model shape;",
			"the structural claims to check: failures land in the predicted groups, attempts grow where failures hit,",
			"and materialized groups report checkpoint bytes",
		},
	}
	for _, q := range auditQueries {
		stmt, err := sql.Parse(q.text)
		if err != nil {
			return nil, err
		}
		tstats, err := sql.CollectStats(cat, stmt.Tables())
		if err != nil {
			return nil, err
		}
		// Exaggerated per-row CPU cost (with cheap writes) and a short MTBF put
		// the tiny SF0.002 database into the regime where the optimizer
		// actually materializes, so the audit exercises checkpoint spans and
		// multi-group collapse.
		cp := stats.CostParams{CPUPerRow: 1e-3, WritePerRow: 1e-4, Nodes: c.Nodes}
		m := cost.DefaultModel(failure.Spec{Nodes: c.Nodes, MTBF: 60, MTTR: 1})
		for _, faulty := range []bool{false, true} {
			audit, err := sql.BuildAuditPlan(stmt, cat, tstats, cp, m)
			if err != nil {
				return nil, err
			}
			injector := engine.NewScriptedFailures()
			label := "clean"
			if faulty {
				label = "faults"
				for _, f := range q.fail {
					injector.Add(f.op, f.part, f.attempt)
				}
			}
			tracer := obs.NewTracer(obs.DefaultCapacity)
			r, err := runtime.New(runtime.Config{Nodes: c.Nodes, Injector: injector, Tracer: tracer})
			if err != nil {
				return nil, err
			}
			if _, _, err := r.Execute(context.Background(), audit.Phys.Root); err != nil {
				return nil, err
			}
			rep := obs.BuildAudit(audit.Pred, tracer.Snapshot(), tracer.Dropped())
			for _, row := range rep.Rows {
				mat, dom := "", ""
				if row.Pred.Materialize {
					mat = "M"
				}
				if row.Pred.Dominant {
					dom = "*"
				}
				t.AddRow(q.name, label, row.Pred.Name, strings.Join(row.Pred.Ops, ","), mat, dom,
					fmt.Sprintf("%.3gs", row.Pred.Runtime), fmtAuditDur(row.Obs.Wall),
					fmt.Sprintf("%d", row.Obs.Attempts), fmt.Sprintf("%d", row.Obs.Failures),
					fmtAuditErr(row.RelErr))
			}
			t.AddRow(q.name, label, "dominant", "", "", "",
				fmt.Sprintf("%.3gs", rep.PredictedRuntime), fmtAuditDur(rep.DominantActual),
				"", fmt.Sprintf("%d", rep.Failures), fmtAuditErr(rep.DominantRelErr))
		}
	}
	return t, nil
}

func fmtAuditDur(d time.Duration) string {
	if d == 0 {
		return "-"
	}
	return d.Round(time.Microsecond).String()
}

func fmtAuditErr(e float64) string {
	if math.IsNaN(e) {
		return "-"
	}
	return fmt.Sprintf("%+.0f%%", e*100)
}
