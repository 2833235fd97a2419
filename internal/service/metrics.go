package service

import (
	"ftpde/internal/obs/metrics"
)

// svcMetrics is the per-tenant labeled metric set of the query service,
// registered into the obs/metrics registry and served at /metrics.
type svcMetrics struct {
	admitted  *metrics.CounterVec   // ftserve_admitted_total{tenant}
	rejected  *metrics.CounterVec   // ftserve_rejected_total{tenant,reason}
	completed *metrics.CounterVec   // ftserve_completed_total{tenant}
	failed    *metrics.CounterVec   // ftserve_failed_total{tenant}
	failures  *metrics.CounterVec   // ftserve_injected_failures_total{tenant}
	recovered *metrics.CounterVec   // ftserve_recovered_partitions_total{tenant}
	latency   *metrics.HistogramVec // ftserve_latency_seconds{tenant}
	wasted    *metrics.GaugeVec     // ftserve_wasted_seconds_total{tenant}

	bundleErrors *metrics.Counter // ftserve_forensics_errors_total
}

// newSvcMetrics registers the service families. Queue depth, in-flight count
// and pool utilization are func-gauges sampling live server state, so a
// scrape always sees the current value without a write on the query path.
func newSvcMetrics(reg *metrics.Registry, s *Server) *svcMetrics {
	m := &svcMetrics{
		admitted: reg.NewCounterVec("ftserve_admitted_total",
			"Queries admitted past global and tenant admission control.", []string{"tenant"}),
		rejected: reg.NewCounterVec("ftserve_rejected_total",
			"Queries shed by admission control, by reject reason.", []string{"tenant", "reason"}),
		completed: reg.NewCounterVec("ftserve_completed_total",
			"Queries that returned a result.", []string{"tenant"}),
		failed: reg.NewCounterVec("ftserve_failed_total",
			"Admitted queries that failed in planning or execution.", []string{"tenant"}),
		failures: reg.NewCounterVec("ftserve_injected_failures_total",
			"Injected node failures absorbed while executing a tenant's queries.", []string{"tenant"}),
		recovered: reg.NewCounterVec("ftserve_recovered_partitions_total",
			"Partitions recomputed by fine-grained recovery for a tenant.", []string{"tenant"}),
		latency: reg.NewHistogramVec("ftserve_latency_seconds",
			"End-to-end latency of completed queries.", "seconds",
			[]string{"tenant"}, metrics.DefaultLatencyBuckets()),
		wasted: metrics.NewGaugeVec([]string{"tenant"}),
		bundleErrors: reg.NewCounter("ftserve_forensics_errors_total",
			"Forensics bundles that failed to persist (the query error itself is never masked)."),
	}
	// Wasted seconds accumulate fractional values, which Counter (int64)
	// cannot hold; a monotone GaugeVec exposed with counter semantics keeps
	// the Prometheus type honest.
	reg.MustRegisterFunc(metrics.Desc{
		Name: "ftserve_wasted_seconds_total", Kind: metrics.KindCounter, Unit: "seconds",
		Help:   "Ledger-attributed recovery seconds wasted on a tenant's queries.",
		Labels: []string{"tenant"},
	}, m.wasted.Samples)
	reg.MustRegisterFunc(metrics.Desc{
		Name: "ftserve_queue_depth", Kind: metrics.KindGauge,
		Help: "Requests parked waiting for an execution slot.",
	}, func() []metrics.Sample {
		return []metrics.Sample{{Value: float64(s.queue.Depth())}}
	})
	reg.MustRegisterFunc(metrics.Desc{
		Name: "ftserve_inflight", Kind: metrics.KindGauge,
		Help: "Queries currently holding an execution slot.",
	}, func() []metrics.Sample {
		return []metrics.Sample{{Value: float64(len(s.slots))}}
	})
	reg.MustRegisterFunc(metrics.Desc{
		Name: "ftserve_pool_utilization", Kind: metrics.KindGauge,
		Help: "Shared worker pool utilization: (busy + waiting) / capacity.",
	}, func() []metrics.Sample {
		return []metrics.Sample{{Value: s.pool.Utilization()}}
	})
	return m
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

// Stats returns the live server snapshot served under /debug/vars.
func (s *Server) Stats() Stats {
	st := Stats{
		Draining:    s.Draining(),
		QueueDepth:  s.queue.Depth(),
		InFlight:    len(s.slots),
		Utilization: s.pool.Utilization(),
	}
	totals := map[string]*TenantTotals{}
	get := func(tenant string) *TenantTotals {
		t, ok := totals[tenant]
		if !ok {
			t = &TenantTotals{Tenant: tenant}
			totals[tenant] = t
		}
		return t
	}
	for _, smp := range s.met.admitted.Samples() {
		get(smp.LabelValues[0]).Admitted = int64(smp.Value)
	}
	for _, smp := range s.met.rejected.Samples() {
		get(smp.LabelValues[0]).Rejected += int64(smp.Value)
	}
	for _, smp := range s.met.completed.Samples() {
		get(smp.LabelValues[0]).Completed = int64(smp.Value)
	}
	for _, smp := range s.met.failed.Samples() {
		get(smp.LabelValues[0]).Failed = int64(smp.Value)
	}
	for _, smp := range s.met.failures.Samples() {
		get(smp.LabelValues[0]).Failures = int64(smp.Value)
	}
	for _, smp := range s.met.recovered.Samples() {
		get(smp.LabelValues[0]).Recovered = int64(smp.Value)
	}
	for _, smp := range s.met.wasted.Samples() {
		get(smp.LabelValues[0]).WastedSeconds = smp.Value
	}
	for _, t := range totals {
		st.Tenants = append(st.Tenants, *t)
	}
	sortTenants(st.Tenants)
	return st
}

// sortTenants orders totals by tenant name for deterministic output.
func sortTenants(ts []TenantTotals) {
	for i := 1; i < len(ts); i++ {
		for j := i; j > 0 && ts[j].Tenant < ts[j-1].Tenant; j-- {
			ts[j], ts[j-1] = ts[j-1], ts[j]
		}
	}
}
