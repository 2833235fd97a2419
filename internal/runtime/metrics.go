package runtime

import "ftpde/internal/obs/metrics"

// Metrics is the runtime's counter set, safe for concurrent use. It is the
// shared executable metric set from internal/obs/metrics: one Metrics value
// can be shared across queries to accumulate,
// or allocated per query for isolated measurement; the experiments layer
// reads Snapshot, the debug endpoint serves Registry. The aliases keep the
// original package-local names working (tests and callers construct
// &runtime.Metrics{} directly).
type Metrics = metrics.Exec

// Snapshot is a plain-value copy of the counters for reporting.
type Snapshot = metrics.ExecSnapshot

// StageMetric is one row of the deterministic per-stage table.
type StageMetric = metrics.StageMetric
