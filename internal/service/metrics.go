package service

import (
	"maps"
	"sort"

	"ftpde/internal/obs/metrics"
)

// records copies every tenant's record under its lock, name-sorted.
func (s *Server) records() []tenantRecord {
	s.tmu.Lock()
	ts := make([]*tenantState, 0, len(s.tenants))
	for _, t := range s.tenants {
		ts = append(ts, t)
	}
	s.tmu.Unlock()
	out := make([]tenantRecord, len(ts))
	for i, t := range ts {
		t.mu.Lock()
		out[i] = t.tenantRecord
		out[i].rejected = maps.Clone(t.rejected)
		t.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}

// registerMetrics registers the service families, each a collector over
// live server state: the tenant families read the tenants' records, so a
// series appears once its tenant has something to count, and queue depth,
// in-flight count and pool utilization sample the server at scrape time.
func (s *Server) registerMetrics(reg *metrics.Registry) {
	perTenant := func(name, help, unit string, value func(r tenantRecord) (float64, bool)) {
		reg.MustRegisterFunc(metrics.Desc{Name: name, Help: help, Kind: metrics.KindCounter, Unit: unit, Labels: []string{"tenant"}},
			func() []metrics.Sample {
				var out []metrics.Sample
				for _, r := range s.records() {
					if v, ok := value(r); ok {
						out = append(out, metrics.Sample{LabelValues: []string{r.Tenant}, Value: v})
					}
				}
				return out
			})
	}
	perTenant("ftserve_admitted_total", "Queries admitted past global and tenant admission control.", "",
		func(r tenantRecord) (float64, bool) { return float64(r.Admitted), r.Admitted > 0 })
	perTenant("ftserve_completed_total", "Queries that returned a result.", "",
		func(r tenantRecord) (float64, bool) { return float64(r.Completed), r.Completed > 0 })
	perTenant("ftserve_failed_total", "Admitted queries that failed in planning or execution.", "",
		func(r tenantRecord) (float64, bool) { return float64(r.Failed), r.Failed > 0 })
	perTenant("ftserve_injected_failures_total", "Injected node failures absorbed while executing a tenant's queries.", "",
		func(r tenantRecord) (float64, bool) { return float64(r.Failures), r.Completed > 0 })
	perTenant("ftserve_recovered_partitions_total", "Partitions recomputed by fine-grained recovery for a tenant.", "",
		func(r tenantRecord) (float64, bool) { return float64(r.Recovered), r.Completed > 0 })
	perTenant("ftserve_wasted_seconds_total", "Ledger-attributed recovery seconds wasted on a tenant's queries.", "seconds",
		func(r tenantRecord) (float64, bool) { return r.WastedSeconds, r.Completed > 0 })
	reg.MustRegisterFunc(metrics.Desc{
		Name: "ftserve_rejected_total", Kind: metrics.KindCounter, Labels: []string{"tenant", "reason"},
		Help: "Queries shed by admission control, by reject reason.",
	}, func() []metrics.Sample {
		var out []metrics.Sample
		for _, r := range s.records() {
			for code, n := range r.rejected {
				out = append(out, metrics.Sample{LabelValues: []string{r.Tenant, string(code)}, Value: float64(n)})
			}
		}
		return out
	})
	reg.MustRegisterFunc(metrics.Desc{
		Name: "ftserve_latency_seconds", Kind: metrics.KindHistogram, Unit: "seconds", Labels: []string{"tenant"},
		Help: "End-to-end latency of completed queries.",
	}, func() []metrics.Sample {
		var out []metrics.Sample
		for _, r := range s.records() {
			if r.latency != nil {
				h := r.latency.Snapshot()
				out = append(out, metrics.Sample{LabelValues: []string{r.Tenant}, Hist: &h})
			}
		}
		return out
	})
	gauge := func(name string, kind metrics.Kind, help string, value func() float64) {
		reg.MustRegisterFunc(metrics.Desc{Name: name, Kind: kind, Help: help},
			func() []metrics.Sample { return []metrics.Sample{{Value: value()}} })
	}
	gauge("ftserve_forensics_errors_total", metrics.KindCounter,
		"Forensics bundles that failed to persist (the query error itself is never masked).",
		func() float64 { return float64(s.bundleErrors.Load()) })
	gauge("ftserve_queue_depth", metrics.KindGauge, "Requests parked waiting for an execution slot.",
		func() float64 { return float64(s.queue.Depth()) })
	gauge("ftserve_inflight", metrics.KindGauge, "Queries currently holding an execution slot.",
		func() float64 { return float64(len(s.slots)) })
	gauge("ftserve_pool_utilization", metrics.KindGauge, "Shared worker pool utilization: (busy + waiting) / capacity.",
		s.pool.Utilization)
}

// TenantTotals is one tenant's aggregate accounting, for Stats.
type TenantTotals struct {
	Tenant        string  `json:"tenant"`
	Admitted      int64   `json:"admitted"`
	Rejected      int64   `json:"rejected"`
	Completed     int64   `json:"completed"`
	Failed        int64   `json:"failed"`
	Failures      int64   `json:"failures"`
	Recovered     int64   `json:"recovered"`
	WastedSeconds float64 `json:"wasted_seconds"`
}

// Stats is a live snapshot of server state.
type Stats struct {
	Draining    bool           `json:"draining"`
	QueueDepth  int            `json:"queue_depth"`
	InFlight    int            `json:"in_flight"`
	Utilization float64        `json:"utilization"`
	Tenants     []TenantTotals `json:"tenants,omitempty"`
}

// Stats returns the live server snapshot served under /debug/vars: a copy
// of each tenant's record that has been admitted or shed at least once.
func (s *Server) Stats() Stats {
	st := Stats{
		Draining:    s.Draining(),
		QueueDepth:  s.queue.Depth(),
		InFlight:    len(s.slots),
		Utilization: s.pool.Utilization(),
	}
	for _, r := range s.records() {
		if r.Admitted > 0 || r.Rejected > 0 {
			st.Tenants = append(st.Tenants, r.TenantTotals)
		}
	}
	return st
}
