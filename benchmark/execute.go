package main

import (
	"context"
	"time"

	"ftpde/internal/engine"
	"ftpde/internal/obs/metrics"
	"ftpde/internal/runtime"
)

// execution is one runtime.Execute as seen from outside.
type execution struct {
	res    *engine.PartitionedResult
	report *engine.Report
	wall   time.Duration
	// Filled on traced runs only: the runtime's counters and the seconds its
	// ledger books as waiting for checkpoints to land.
	snap  runtime.Snapshot
	stall float64
}

// execute builds a runtime from cfg and runs root on it: one operation of
// exec_scan_join and ft_schemes, and the last step of a replayed request. On
// a traced run it records the call as a runtime.Execute span with the
// per-stage wall times of the runtime's snapshot as children.
func execute(rec *recorder, parent, op int, cfg runtime.Config, root engine.Operator) (execution, error) {
	if rec != nil {
		cfg.Metrics = &runtime.Metrics{}
	}
	var ex execution
	id := rec.begin("runtime.Execute", parent, op)
	start := time.Now()
	rt, err := runtime.New(cfg)
	if err == nil {
		ex.res, ex.report, err = rt.Execute(context.Background(), root)
	}
	ex.wall = time.Since(start)
	rec.end(id)
	if err != nil || rec == nil {
		return ex, err
	}
	ex.snap = cfg.Metrics.Snapshot()
	ex.stall = cfg.Metrics.Ledger().Seconds(metrics.CauseCheckpointStall)
	at := start
	for _, st := range ex.snap.Stages {
		rec.add("stage:"+st.Stage, id, op, at, st.WallNS)
		at = at.Add(st.WallNS)
	}
	return ex, nil
}

// stageWall is the summed per-stage wall time of a traced execution.
func (ex execution) stageWall() time.Duration {
	var t time.Duration
	for _, st := range ex.snap.Stages {
		t += st.WallNS
	}
	return t
}
