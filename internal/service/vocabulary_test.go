package service

import (
	"context"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"

	"ftpde/internal/engine"
	"ftpde/internal/obs/metrics"
)

// TestServiceMetricsMatchDocs pins the ftserve_* rows of docs/METRICS.md to
// the families a Server registers: the documented table must be exactly what
// metrics.DescribeTable prints for them.
func TestServiceMetricsMatchDocs(t *testing.T) {
	doc, err := os.ReadFile("../../docs/METRICS.md")
	if err != nil {
		t.Fatal(err)
	}
	var descs []metrics.Desc
	for _, d := range newTestServer(t, Config{}).Registry().Describe() {
		if strings.HasPrefix(d.Name, "ftserve_") {
			descs = append(descs, d)
		}
	}
	if len(descs) != 12 {
		t.Errorf("%d ftserve_* families registered, want 12", len(descs))
	}
	table := metrics.DescribeTable(descs)
	if !strings.Contains(string(doc), strings.TrimRight(table, "\n")) {
		t.Errorf("docs/METRICS.md is out of date; its ftserve table must read:\n%s", table)
	}
}

// pinnedSession drives one server through a fixed sequence: alice's
// aggregate query absorbs a scripted failure and recovers, alice submits a
// statement that does not plan, bob's third query trips his quota, and
// carol's one submission comes after the drain and is shed. It returns the ftserve_* exposition, with
// the wall-clock values (latency buckets and sums, wasted seconds) masked,
// and the Stats JSON with wasted seconds masked.
func pinnedSession(t *testing.T) (prom, stats string, s *Server) {
	t.Helper()
	inj := engine.NewScriptedFailures()
	inj.Add("aggregate", 1, 0)
	s = newTestServer(t, Config{Injector: inj, TenantRate: 1.0 / 3600, TenantBurst: 2})
	ctx := context.Background()
	submit := func(tenant, query string, wantErr bool) {
		t.Helper()
		if _, err := s.Submit(ctx, Request{Tenant: tenant, Query: query}); (err != nil) != wantErr {
			t.Fatalf("%s: Submit(%q) error = %v, want error %v", tenant, query, err, wantErr)
		}
	}
	submit("alice", aggQuery, false)
	submit("bob", "SELECT n_name FROM nation", false)
	submit("alice", "SELECT nope FROM nowhere", true)
	submit("bob", "SELECT n_name FROM nation", false)
	submit("bob", "SELECT n_name FROM nation", true) // quota
	s.drain()
	submit("carol", "SELECT n_name FROM nation", true) // draining

	var b strings.Builder
	if err := s.Registry().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	for _, line := range strings.SplitAfter(b.String(), "\n") {
		name := strings.TrimPrefix(strings.TrimPrefix(line, "# HELP "), "# TYPE ")
		if !strings.HasPrefix(name, "ftserve_") {
			continue
		}
		for _, masked := range []string{"ftserve_latency_seconds_bucket", "ftserve_latency_seconds_sum", "ftserve_wasted_seconds_total{"} {
			if strings.HasPrefix(line, masked) {
				line = line[:strings.LastIndexByte(line, ' ')] + " *\n"
			}
		}
		out.WriteString(line)
	}
	js, err := json.Marshal(s.Stats())
	if err != nil {
		t.Fatal(err)
	}
	return out.String(), wastedJSON.ReplaceAllString(string(js), `"wasted_seconds":*`), s
}

var wastedJSON = regexp.MustCompile(`"wasted_seconds":[^,}]+`)

// TestServiceExpositionPinned pins the ftserve_* exposition and the Stats
// JSON of a scripted session byte for byte: family and series order, label
// values, which series exist (a tenant gets a series only once it has
// something to count: carol, only ever shed, has none but her reject) and
// every count.
func TestServiceExpositionPinned(t *testing.T) {
	prom, stats, s := pinnedSession(t)
	if prom != pinnedServiceProm {
		t.Errorf("ftserve exposition drifted:\n--- got\n%s--- want\n%s", prom, pinnedServiceProm)
	}
	if stats != pinnedServiceStats {
		t.Errorf("Stats JSON drifted:\n--- got\n%s\n--- want\n%s", stats, pinnedServiceStats)
	}
	for _, tt := range s.Stats().Tenants {
		if (tt.Tenant == "alice") != (tt.WastedSeconds > 0) {
			t.Errorf("%s wasted %g s; only alice's query failed", tt.Tenant, tt.WastedSeconds)
		}
	}
}

// Captured from the service before tenants became one record each; these
// must not change.

const pinnedServiceProm = `# HELP ftserve_admitted_total Queries admitted past global and tenant admission control.
# TYPE ftserve_admitted_total counter
ftserve_admitted_total{tenant="alice"} 2
ftserve_admitted_total{tenant="bob"} 2
# HELP ftserve_completed_total Queries that returned a result.
# TYPE ftserve_completed_total counter
ftserve_completed_total{tenant="alice"} 1
ftserve_completed_total{tenant="bob"} 2
# HELP ftserve_failed_total Admitted queries that failed in planning or execution.
# TYPE ftserve_failed_total counter
ftserve_failed_total{tenant="alice"} 1
# HELP ftserve_forensics_errors_total Forensics bundles that failed to persist (the query error itself is never masked).
# TYPE ftserve_forensics_errors_total counter
ftserve_forensics_errors_total 0
# HELP ftserve_inflight Queries currently holding an execution slot.
# TYPE ftserve_inflight gauge
ftserve_inflight 0
# HELP ftserve_injected_failures_total Injected node failures absorbed while executing a tenant's queries.
# TYPE ftserve_injected_failures_total counter
ftserve_injected_failures_total{tenant="alice"} 1
ftserve_injected_failures_total{tenant="bob"} 0
# HELP ftserve_latency_seconds End-to-end latency of completed queries.
# TYPE ftserve_latency_seconds histogram
ftserve_latency_seconds_bucket{tenant="alice",le="1e-06"} *
ftserve_latency_seconds_bucket{tenant="alice",le="4e-06"} *
ftserve_latency_seconds_bucket{tenant="alice",le="1.6e-05"} *
ftserve_latency_seconds_bucket{tenant="alice",le="6.4e-05"} *
ftserve_latency_seconds_bucket{tenant="alice",le="0.000256"} *
ftserve_latency_seconds_bucket{tenant="alice",le="0.001024"} *
ftserve_latency_seconds_bucket{tenant="alice",le="0.004096"} *
ftserve_latency_seconds_bucket{tenant="alice",le="0.016384"} *
ftserve_latency_seconds_bucket{tenant="alice",le="0.065536"} *
ftserve_latency_seconds_bucket{tenant="alice",le="0.262144"} *
ftserve_latency_seconds_bucket{tenant="alice",le="1.048576"} *
ftserve_latency_seconds_bucket{tenant="alice",le="4.194304"} *
ftserve_latency_seconds_bucket{tenant="alice",le="16.777216"} *
ftserve_latency_seconds_bucket{tenant="alice",le="67.108864"} *
ftserve_latency_seconds_bucket{tenant="alice",le="+Inf"} *
ftserve_latency_seconds_sum{tenant="alice"} *
ftserve_latency_seconds_count{tenant="alice"} 1
ftserve_latency_seconds_bucket{tenant="bob",le="1e-06"} *
ftserve_latency_seconds_bucket{tenant="bob",le="4e-06"} *
ftserve_latency_seconds_bucket{tenant="bob",le="1.6e-05"} *
ftserve_latency_seconds_bucket{tenant="bob",le="6.4e-05"} *
ftserve_latency_seconds_bucket{tenant="bob",le="0.000256"} *
ftserve_latency_seconds_bucket{tenant="bob",le="0.001024"} *
ftserve_latency_seconds_bucket{tenant="bob",le="0.004096"} *
ftserve_latency_seconds_bucket{tenant="bob",le="0.016384"} *
ftserve_latency_seconds_bucket{tenant="bob",le="0.065536"} *
ftserve_latency_seconds_bucket{tenant="bob",le="0.262144"} *
ftserve_latency_seconds_bucket{tenant="bob",le="1.048576"} *
ftserve_latency_seconds_bucket{tenant="bob",le="4.194304"} *
ftserve_latency_seconds_bucket{tenant="bob",le="16.777216"} *
ftserve_latency_seconds_bucket{tenant="bob",le="67.108864"} *
ftserve_latency_seconds_bucket{tenant="bob",le="+Inf"} *
ftserve_latency_seconds_sum{tenant="bob"} *
ftserve_latency_seconds_count{tenant="bob"} 2
# HELP ftserve_pool_utilization Shared worker pool utilization: (busy + waiting) / capacity.
# TYPE ftserve_pool_utilization gauge
ftserve_pool_utilization 0
# HELP ftserve_queue_depth Requests parked waiting for an execution slot.
# TYPE ftserve_queue_depth gauge
ftserve_queue_depth 0
# HELP ftserve_recovered_partitions_total Partitions recomputed by fine-grained recovery for a tenant.
# TYPE ftserve_recovered_partitions_total counter
ftserve_recovered_partitions_total{tenant="alice"} 2
ftserve_recovered_partitions_total{tenant="bob"} 0
# HELP ftserve_rejected_total Queries shed by admission control, by reject reason.
# TYPE ftserve_rejected_total counter
ftserve_rejected_total{tenant="bob",reason="quota"} 1
ftserve_rejected_total{tenant="carol",reason="draining"} 1
# HELP ftserve_wasted_seconds_total Ledger-attributed recovery seconds wasted on a tenant's queries.
# TYPE ftserve_wasted_seconds_total counter
ftserve_wasted_seconds_total{tenant="alice"} *
ftserve_wasted_seconds_total{tenant="bob"} *
`

const pinnedServiceStats = `{"draining":true,"queue_depth":0,"in_flight":0,"utilization":0,"tenants":[{"tenant":"alice","admitted":2,"rejected":0,"completed":1,"failed":1,"failures":1,"recovered":2,"wasted_seconds":*},{"tenant":"bob","admitted":2,"rejected":1,"completed":2,"failed":0,"failures":0,"recovered":0,"wasted_seconds":*},{"tenant":"carol","admitted":0,"rejected":1,"completed":0,"failed":0,"failures":0,"recovered":0,"wasted_seconds":*}]}`
