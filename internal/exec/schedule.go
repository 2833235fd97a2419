package exec

import (
	"slices"

	"ftpde/internal/engine"
	"ftpde/internal/failure"
	"ftpde/internal/obs"
	"ftpde/internal/plan"
	"ftpde/internal/schemes"
)

// KillSchedule simulates the audited cost plan p against tr under
// opt.Recovery with MTTR 0 (the runtime re-runs a failed partition at once)
// and returns the task attempts the trace killed as the runtime's failure
// schedule, with the simulated run. A kill is thus a pure function of
// (trace, plan, scheme) on any host.
//
// A failed attempt of a group on node n kills the group's last engine
// operator (from pred.Ops, labelled like the simulator's spans) on partition
// n at that attempt. Under coarse recovery the failure's offset into its
// restarted run picks the group running then in the failure-free layout (the
// first in topological order), and the attempt is the number of earlier
// restarts that had started that group.
func KillSchedule(p *plan.Plan, pred obs.Prediction, opt Options, tr *failure.Trace) (*engine.ScriptedFailures, *Result, error) {
	opt.Cluster.MTTR = 0
	res, err := Run(p, opt, tr)
	if err != nil {
		return nil, nil, err
	}
	coarse, layout := opt.Recovery == schemes.CoarseRestart, res
	if coarse {
		opt.Recovery = schemes.FineGrained
		if layout, err = Run(p, opt, &failure.Trace{PerNode: make([][]float64, opt.Cluster.Nodes)}); err != nil {
			return nil, nil, err
		}
	}
	victim := make(map[string]string, len(pred.Ops))
	for _, g := range pred.Ops {
		if len(g.Ops) > 0 {
			victim[g.Name] = g.Ops[len(g.Ops)-1]
		}
	}
	kills := engine.NewScriptedFailures()
	var offsets []float64 // per failed run: when into the run it failed
	for _, sp := range res.Spans {
		switch {
		case sp.Kind == obs.KindTask && sp.Err != "":
			offsets = append(offsets, sp.End.Sub(sp.Start).Seconds())
		case sp.Kind == obs.KindFailure && !coarse:
			kills.Add(victim[sp.Name], sp.Part, sp.Attempt)
		case sp.Kind == obs.KindFailure:
			at := offsets[len(offsets)-1]
			i := slices.IndexFunc(layout.Stages, func(g StageReport) bool { return g.Start <= at && at < g.End })
			if i < 0 {
				continue
			}
			attempt := 0
			for _, o := range offsets[:len(offsets)-1] {
				if o > layout.Stages[i].Start {
					attempt++
				}
			}
			kills.Add(victim[layout.Stages[i].Name], sp.Part, attempt)
		}
	}
	return kills, res, nil
}
