package service

import (
	"context"
	"fmt"
	"reflect"
	goruntime "runtime"
	"slices"
	"strings"
	"testing"

	"ftpde/internal/engine"
	"ftpde/internal/exec"
	"ftpde/internal/failure"
	"ftpde/internal/obs"
	"ftpde/internal/runtime"
	"ftpde/internal/schemes"
	"ftpde/internal/sql"
)

// TestKillScheduleReplaysAndMatchesSimulator: a served query's kill schedule
// is a pure function of (seed, plan, scheme). Under fine recovery the kills
// the runtime realizes are the same set on every run at GOMAXPROCS 1 and 2,
// the rows are the clean run's, every group is killed exactly as often as the
// simulator retried it, and an empty trace kills nothing. The second arm
// prices failures and checkpoints so that Q3 and Q5 materialize, which
// splits them into several groups.
func TestKillScheduleReplaysAndMatchesSimulator(t *testing.T) {
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(0))
	for _, arm := range []struct {
		name string
		cfg  Config
	}{
		{"one-group", Config{InjectMTBF: 0.01}},
		{"materialized", Config{InjectMTBF: 0.01, ModelMTBF: 0.005, ModelMTTR: 0.001, WritePerRow: 1e-7}},
	} {
		t.Run(arm.name, func(t *testing.T) {
			s := newTestServer(t, arm.cfg)
			kills, mats := 0, 0
			for i, q := range TPCHQueries() {
				t.Run(q.Name, func(t *testing.T) {
					n, m := checkKillSchedule(t, s, q.Text, int64(i+1))
					kills, mats = kills+n, mats+m
				})
			}
			if kills == 0 {
				t.Error("the traces killed nothing; lower InjectMTBF")
			}
			if arm.cfg.WritePerRow > 0 && mats == 0 {
				t.Error("no query materialized; the arm has one group per query")
			}
		})
	}
}

// checkKillSchedule runs one query clean, under an empty trace, and three
// times at each of GOMAXPROCS 1 and 2 under query qid's kill schedule. It
// returns the kills realized and the operators the plan materializes.
func checkKillSchedule(t *testing.T, s *Server, text string, qid int64) (kills, mats int) {
	t.Helper()
	clean := executeAudited(t, buildAudit(t, s, text), engine.NoFailures{})

	audit := buildAudit(t, s, text)
	empty, _, err := exec.KillSchedule(audit.Opt.Plan, audit.Pred,
		exec.Options{Cluster: failure.Spec{Nodes: eqNodes, MTBF: 1}, Model: s.base},
		&failure.Trace{PerNode: make([][]float64, eqNodes)})
	if err != nil {
		t.Fatal(err)
	}
	if got := executeAudited(t, audit, empty); len(got.kills) != 0 ||
		!reflect.DeepEqual(got.rows, clean.rows) || *got.report != *clean.report {
		t.Errorf("empty trace: kills %v, report %+v; want none and %+v with the clean rows",
			got.kills, *got.report, *clean.report)
	}

	var want []string
	for _, procs := range []int{1, 2} {
		goruntime.GOMAXPROCS(procs)
		for run := 0; run < 3; run++ {
			audit := buildAudit(t, s, text)
			sched, sim, err := s.killSchedule(audit, s.base, schemes.FineGrained, qid)
			if err != nil {
				t.Fatal(err)
			}
			got := executeAudited(t, audit, sched)
			if !reflect.DeepEqual(got.rows, clean.rows) {
				t.Fatalf("GOMAXPROCS=%d run %d: rows differ from the clean run", procs, run)
			}
			if procs == 1 && run == 0 {
				want = got.kills
				checkAgainstSimulator(t, audit, sim, got.kills)
				t.Logf("config %s, %d kills: %v", audit.Opt.Config, len(want), want)
			} else if !slices.Equal(got.kills, want) {
				t.Fatalf("GOMAXPROCS=%d run %d: kills %v, want %v", procs, run, got.kills, want)
			}
		}
	}
	return len(want), len(audit.Opt.Config.Materialized())
}

// checkAgainstSimulator requires each group's realized kills to equal the
// simulator's retries of that group.
func checkAgainstSimulator(t *testing.T, audit *sql.AuditPlan, sim *exec.Result, kills []string) {
	t.Helper()
	group := map[string]string{}
	for _, g := range audit.Pred.Ops {
		for _, op := range g.Ops {
			group[op] = g.Name
		}
	}
	realized := map[string]int{}
	for _, k := range kills {
		realized[group[strings.Fields(k)[0]]]++
	}
	for _, st := range sim.Stages {
		if realized[st.Name] != st.Retries {
			t.Errorf("group %s: %d kills realized, simulator retried %d", st.Name, realized[st.Name], st.Retries)
		}
		delete(realized, st.Name)
	}
	if len(realized) != 0 {
		t.Errorf("kills outside the simulated groups: %v", realized)
	}
}

type auditedRun struct {
	rows   [][]string
	kills  []string // "op part attempt" of every realized failure, sorted
	report *engine.Report
}

// buildAudit plans text with the server's base model: no load or drift
// correction, so every run plans the same configuration.
func buildAudit(t *testing.T, s *Server, text string) *sql.AuditPlan {
	t.Helper()
	stmt, err := sql.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	tstats, err := s.stats(stmt)
	if err != nil {
		t.Fatal(err)
	}
	audit, err := sql.BuildAuditPlan(stmt, s.cat, tstats, s.cp, s.base)
	if err != nil {
		t.Fatal(err)
	}
	return audit
}

// executeAudited runs audit's plan once under inj on a private runtime,
// recording the failures it realized.
func executeAudited(t *testing.T, audit *sql.AuditPlan, inj engine.FailureInjector) auditedRun {
	t.Helper()
	tracer := obs.NewTracer(1 << 14)
	rt, err := runtime.New(runtime.Config{Nodes: eqNodes, Injector: inj, Tracer: tracer})
	if err != nil {
		t.Fatal(err)
	}
	res, report, err := rt.Execute(context.Background(), audit.Phys.Root)
	if err != nil {
		t.Fatal(err)
	}
	run := auditedRun{report: report}
	run.rows, _ = formatRows(res, 0)
	for _, sp := range tracer.Snapshot() {
		if sp.Kind == obs.KindFailure {
			run.kills = append(run.kills, fmt.Sprintf("%s %d %d", sp.Name, sp.Part, sp.Attempt))
		}
	}
	slices.Sort(run.kills)
	return run
}
