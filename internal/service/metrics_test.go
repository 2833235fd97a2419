package service

import (
	"context"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"ftpde/internal/engine"
	"ftpde/internal/obs"
)

// TestPerTenantMetricsAndWastedAttribution: per-tenant families account
// admissions, rejects, injected failures and — via the per-query ledger —
// wasted recovery seconds, attributable to exactly the tenant that paid
// them.
func TestPerTenantMetricsAndWastedAttribution(t *testing.T) {
	// MTBF far below query runtime: failures (and thus ledger waste) are
	// effectively certain.
	s := newTestServer(t, Config{InjectMTBF: 0.01, TenantRate: 1.0 / 3600, TenantBurst: 2})
	ctx := context.Background()

	var aliceWasted float64
	var aliceFailures int
	for i := 0; i < 2; i++ {
		resp, err := s.Submit(ctx, Request{Tenant: "alice", Query: TPCHQueries()[1].Text})
		if err != nil {
			t.Fatal(err)
		}
		aliceWasted += resp.WastedSeconds
		aliceFailures += resp.Failures
	}
	if aliceFailures == 0 {
		t.Fatal("no failures injected; attribution test is vacuous")
	}
	if aliceWasted <= 0 {
		t.Fatal("failures fired but ledger attributed no wasted seconds")
	}
	// Third query trips the quota.
	if _, err := s.Submit(ctx, Request{Tenant: "alice", Query: TPCHQueries()[0].Text}); err == nil {
		t.Fatal("expected quota reject")
	}

	st := s.Stats()
	if len(st.Tenants) != 1 || st.Tenants[0].Tenant != "alice" {
		t.Fatalf("tenants = %+v, want only alice", st.Tenants)
	}
	a := st.Tenants[0]
	if a.Admitted != 2 || a.Completed != 2 || a.Rejected != 1 {
		t.Fatalf("alice totals = %+v, want 2 admitted, 2 completed, 1 rejected", a)
	}
	if a.Failures != int64(aliceFailures) {
		t.Fatalf("metric failures = %d, responses said %d", a.Failures, aliceFailures)
	}
	// The tenant's wasted-seconds family equals the sum of her queries'
	// ledger totals: every lost second has exactly one owner.
	if math.Abs(a.WastedSeconds-aliceWasted) > 1e-9 {
		t.Fatalf("metric wasted = %g, responses summed to %g", a.WastedSeconds, aliceWasted)
	}

	// The families appear in Prometheus exposition with tenant labels.
	var b strings.Builder
	s.Registry().WritePrometheus(&b)
	text := b.String()
	for _, want := range []string{
		`ftserve_admitted_total{tenant="alice"} 2`,
		`ftserve_rejected_total{tenant="alice",reason="quota"} 1`,
		`ftserve_wasted_seconds_total{tenant="alice"}`,
		`ftserve_latency_seconds_count{tenant="alice"} 2`,
		"ftserve_queue_depth 0",
		"ftserve_pool_utilization 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestServedWasteIsTheSpansFold: a served query runs with no metric set, so
// the WastedSeconds it reports must be what folding its recorded spans
// through obs.Exec books — under a scripted kill, with fine-grained recovery
// and with coarse restarts.
func TestServedWasteIsTheSpansFold(t *testing.T) {
	for _, coarse := range []bool{false, true} {
		inj := engine.NewScriptedFailures()
		inj.Add("aggregate", 1, 0)
		s := newTestServer(t, Config{Injector: inj, Coarse: coarse})
		resp, err := s.Submit(context.Background(), Request{Tenant: "t", Query: aggQuery})
		if err != nil {
			t.Fatal(err)
		}
		var fold obs.Exec
		for _, sp := range s.tracer.Snapshot() {
			fold.Observe(sp)
		}
		want := fold.Snapshot().WastedSeconds
		if resp.Failures != 1 || want <= 0 || resp.WastedSeconds != want {
			t.Errorf("coarse=%v: %d failures, WastedSeconds %g, the spans' fold %g; want 1 failure and equal, positive waste",
				coarse, resp.Failures, resp.WastedSeconds, want)
		}
	}
}

func TestStatsMultiTenantOrdering(t *testing.T) {
	s := newTestServer(t, Config{})
	ctx := context.Background()
	for _, tenant := range []string{"zeta", "alpha", "mid"} {
		if _, err := s.Submit(ctx, Request{Tenant: tenant, Query: "SELECT n_name FROM nation"}); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if len(st.Tenants) != 3 {
		t.Fatalf("tenants = %d, want 3", len(st.Tenants))
	}
	for i, want := range []string{"alpha", "mid", "zeta"} {
		if st.Tenants[i].Tenant != want {
			t.Fatalf("tenants[%d] = %s, want %s (deterministic order)", i, st.Tenants[i].Tenant, want)
		}
	}
}

// TestStatsSnapshotsAreConsistent: every Stats snapshot copies each
// tenant's one record whole, so no snapshot shows a query as finished that
// it does not show as admitted, however the snapshot interleaves with
// submissions; /metrics is scraped throughout for the race detector. The
// final totals are what was submitted.
func TestStatsSnapshotsAreConsistent(t *testing.T) {
	s := newTestServer(t, Config{MaxConcurrent: 8, QueueDepth: 32})
	tenants := []string{"a", "b", "c"}
	const perTenant, goodEvery = 12, 3 // every third statement does not plan
	var submitters sync.WaitGroup
	for _, tenant := range tenants {
		for g := 0; g < 2; g++ {
			submitters.Add(1)
			go func(tenant string, g int) {
				defer submitters.Done()
				for i := g; i < perTenant; i += 2 {
					q := "SELECT n_name FROM nation"
					if i%goodEvery == 0 {
						q = "SELECT nope FROM nowhere"
					}
					s.Submit(context.Background(), Request{Tenant: tenant, Query: q})
				}
			}(tenant, g)
		}
	}
	check := func(st Stats) {
		for _, tt := range st.Tenants {
			if tt.Admitted < tt.Completed+tt.Failed {
				t.Errorf("%s: admitted %d < completed %d + failed %d", tt.Tenant, tt.Admitted, tt.Completed, tt.Failed)
			}
		}
	}
	done := make(chan struct{})
	var pollers sync.WaitGroup
	pollers.Add(2)
	go func() {
		defer pollers.Done()
		for {
			select {
			case <-done:
				return
			default:
				check(s.Stats())
			}
		}
	}()
	go func() {
		defer pollers.Done()
		for {
			select {
			case <-done:
				return
			default:
				var b strings.Builder
				s.Registry().WritePrometheus(&b)
			}
		}
	}()
	within(t, 30*time.Second, submitters.Wait)
	close(done)
	within(t, 10*time.Second, pollers.Wait)

	st := s.Stats()
	check(st)
	if len(st.Tenants) != len(tenants) {
		t.Fatalf("tenants = %+v, want %v", st.Tenants, tenants)
	}
	bad := int64((perTenant + goodEvery - 1) / goodEvery)
	for _, tt := range st.Tenants {
		want := TenantTotals{Tenant: tt.Tenant, Admitted: perTenant, Completed: perTenant - bad, Failed: bad}
		if tt != want {
			t.Errorf("final totals %+v, want %+v", tt, want)
		}
	}
}
