package service

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	goruntime "runtime"
	"runtime/pprof"
	"sync"
	"testing"
	"time"

	"ftpde/internal/sql"
)

// Test data shape shared with the runtime equivalence tests.
const (
	eqSF    = 0.002
	eqNodes = 4
	eqSeed  = 7
)

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.SF == 0 {
		cfg.SF = eqSF
	}
	if cfg.Nodes == 0 {
		cfg.Nodes = eqNodes
	}
	if cfg.Seed == 0 {
		cfg.Seed = eqSeed
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// within runs f and fails the test, with every goroutine's stack, if f has
// not returned after d: a blocked channel operation fails the test that met it,
// by name, instead of hanging the package until the go test timeout. f must not
// call t.Fatal.
func within(t *testing.T, d time.Duration, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(d):
		var stacks bytes.Buffer
		pprof.Lookup("goroutine").WriteTo(&stacks, 2)
		t.Fatalf("did not return within %v\n%s", d, stacks.String())
	}
}

func TestProtoRoundtrip(t *testing.T) {
	var buf bytes.Buffer
	in := Request{ID: "r1", Tenant: "alice", Query: "SELECT n_name FROM nation", MaxRows: 3}
	if err := WriteFrame(&buf, in); err != nil {
		t.Fatal(err)
	}
	var out Request
	if err := ReadFrame(&buf, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("roundtrip mismatch: %+v vs %+v", out, in)
	}
	// A frame claiming an absurd length is rejected before allocation.
	buf.Reset()
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff})
	if err := ReadFrame(&buf, &out); err == nil {
		t.Fatal("oversized frame accepted")
	}
}

func TestSubmitSimpleQuery(t *testing.T) {
	s := newTestServer(t, Config{})
	resp, err := s.Submit(context.Background(), Request{Query: "SELECT n_name FROM nation", MaxRows: 5})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Code != CodeOK {
		t.Fatalf("code = %s, want ok", resp.Code)
	}
	if len(resp.Rows) != 5 || resp.RowsTotal != 25 {
		t.Fatalf("rows = %d (total %d), want 5 of 25", len(resp.Rows), resp.RowsTotal)
	}
	if len(resp.Columns) != 1 || resp.Columns[0] != "n_name" {
		t.Fatalf("columns = %v", resp.Columns)
	}
}

func TestSubmitBadQuery(t *testing.T) {
	s := newTestServer(t, Config{})
	_, err := s.Submit(context.Background(), Request{Query: "SELEC nonsense"})
	qe := (*QueryError)(nil)
	if !errors.As(err, &qe) || qe.Phase != "plan" {
		t.Fatalf("bad query error = %v, want plan-phase QueryError", err)
	}
}

// TestQueueFullTypedReject pins the load-shedding contract: when every
// execution slot is held and the waiter queue is at capacity, Submit sheds
// immediately with a typed queue_full reject carrying a Retry-After hint.
func TestQueueFullTypedReject(t *testing.T) {
	s := newTestServer(t, Config{MaxConcurrent: 1, QueueDepth: 1})
	ctx := context.Background()

	// Deterministically occupy the single execution slot.
	release, rej, err := s.admitGlobal(ctx, "holder")
	if err != nil || rej != nil {
		t.Fatalf("holder admission failed: %v %v", err, rej)
	}

	// Park one request in the (depth-1) waiter queue.
	parked := make(chan error, 1)
	go func() {
		_, err := s.Submit(ctx, Request{Tenant: "queued", Query: "SELECT n_name FROM nation"})
		parked <- err
	}()
	for i := 0; s.QueueDepth() == 0 && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}
	if s.QueueDepth() != 1 {
		t.Fatal("request did not park in the waiter queue")
	}

	// The queue is full: the next submission is shed, typed and hinted.
	_, err = s.Submit(ctx, Request{Tenant: "shed", Query: "SELECT n_name FROM nation"})
	rej2, ok := AsReject(err)
	if !ok || rej2.Code != RejectQueueFull {
		t.Fatalf("err = %v, want queue_full Reject", err)
	}
	if rej2.RetryAfter <= 0 {
		t.Fatalf("queue_full RetryAfter = %v, want > 0", rej2.RetryAfter)
	}
	if rej2.Tenant != "shed" {
		t.Fatalf("reject tenant = %q", rej2.Tenant)
	}

	// Releasing the slot lets the parked request run to completion.
	release()
	if err := <-parked; err != nil {
		t.Fatalf("parked request failed after release: %v", err)
	}
}

// TestParkedAdmissionIsReleased: a Submit parked in the admission queue
// behind a held execution slot leaves it when its context is cancelled, with
// the context's error, and when the server drains, with a draining reject;
// neither leaves a waiter counted or a goroutine behind.
func TestParkedAdmissionIsReleased(t *testing.T) {
	s := newTestServer(t, Config{MaxConcurrent: 1, QueueDepth: 1})
	before := goruntime.NumGoroutine()
	holder, rej, err := s.admitGlobal(context.Background(), "holder")
	if err != nil || rej != nil {
		t.Fatalf("holder admission failed: %v %v", err, rej)
	}
	// Registered after the server's Close, so it runs first: a Submit still
	// parked when the test fails gets the slot, and Close's drain can end.
	release := sync.OnceFunc(holder)
	t.Cleanup(release)
	// parkThenRelease parks one Submit behind the held slot, calls release,
	// and returns what the parked Submit returned.
	parkThenRelease := func(ctx context.Context, release func()) error {
		parked := make(chan error, 1)
		go func() {
			_, err := s.Submit(ctx, Request{Tenant: "queued", Query: "SELECT n_name FROM nation"})
			parked <- err
		}()
		for i := 0; s.QueueDepth() == 0 && i < 5000; i++ {
			time.Sleep(time.Millisecond)
		}
		if s.QueueDepth() != 1 {
			t.Fatal("request did not park in the waiter queue")
		}
		var err error
		within(t, 5*time.Second, func() {
			release()
			err = <-parked
		})
		return err
	}

	ctx, cancel := context.WithCancel(context.Background())
	if err := parkThenRelease(ctx, cancel); !errors.Is(err, context.Canceled) {
		t.Fatalf("parked Submit on cancel = %v, want context.Canceled", err)
	}
	if got := s.QueueDepth(); got != 0 {
		t.Fatalf("queue depth after the cancel = %d, want 0", got)
	}

	err = parkThenRelease(context.Background(), s.Drain)
	if rej, ok := AsReject(err); !ok || rej.Code != RejectDraining {
		t.Fatalf("parked Submit on Drain = %v, want a draining Reject", err)
	}
	if got := s.QueueDepth(); got != 0 {
		t.Fatalf("queue depth after the drain = %d, want 0", got)
	}
	release()
	within(t, 5*time.Second, func() {
		for goruntime.NumGoroutine() > before+1 { // +1: within's own goroutine
			time.Sleep(time.Millisecond)
		}
	})
}

// TestTenantQuotaReject: a tenant with an exhausted token bucket is shed
// with a quota reject whose Retry-After reflects the refill rate, while
// other tenants are unaffected.
func TestTenantQuotaReject(t *testing.T) {
	s := newTestServer(t, Config{TenantRate: 1.0 / 3600, TenantBurst: 1})
	ctx := context.Background()
	if _, err := s.Submit(ctx, Request{Tenant: "alice", Query: "SELECT n_name FROM nation"}); err != nil {
		t.Fatalf("first query within burst failed: %v", err)
	}
	_, err := s.Submit(ctx, Request{Tenant: "alice", Query: "SELECT n_name FROM nation"})
	rej, ok := AsReject(err)
	if !ok || rej.Code != RejectQuota {
		t.Fatalf("err = %v, want quota Reject", err)
	}
	if rej.RetryAfter <= 0 {
		t.Fatalf("quota RetryAfter = %v, want > 0", rej.RetryAfter)
	}
	// Bob has his own bucket.
	if _, err := s.Submit(ctx, Request{Tenant: "bob", Query: "SELECT n_name FROM nation"}); err != nil {
		t.Fatalf("other tenant rejected: %v", err)
	}
}

// TestTenantCapCannotStarveOthers is the deterministic scheduling test: a
// tenant pinned at its concurrency cap is shed with tenant_busy and does not
// consume global slots, so another tenant still executes.
func TestTenantCapCannotStarveOthers(t *testing.T) {
	s := newTestServer(t, Config{TenantConcurrency: 2, MaxConcurrent: 8})
	ctx := context.Background()

	// Pin alice at her cap via the admission bookkeeping (no execution, no
	// races: this is pure accounting).
	alice := s.tenant("alice")
	for i := 0; i < 2; i++ {
		if rej := alice.admit(time.Now(), time.Second); rej != nil {
			t.Fatalf("admit %d: %v", i, rej)
		}
	}
	_, err := s.Submit(ctx, Request{Tenant: "alice", Query: "SELECT n_name FROM nation"})
	rej, ok := AsReject(err)
	if !ok || rej.Code != RejectTenantBusy {
		t.Fatalf("capped tenant err = %v, want tenant_busy Reject", err)
	}
	// The cap reject consumed no global slot and no quota token.
	if got := len(s.slots); got != 0 {
		t.Fatalf("global slots held after tenant-cap reject: %d", got)
	}
	// Bob runs while alice is pinned.
	if _, err := s.Submit(ctx, Request{Tenant: "bob", Query: "SELECT n_name FROM nation"}); err != nil {
		t.Fatalf("bob starved by alice's cap: %v", err)
	}
	alice.release()
	alice.release()
	if _, err := s.Submit(ctx, Request{Tenant: "alice", Query: "SELECT n_name FROM nation"}); err != nil {
		t.Fatalf("alice rejected after releasing cap: %v", err)
	}
}

// TestDrainGraceful: draining lets the in-flight query finish (it is parked
// on the shared pool mid-execution when the drain begins), sheds new
// submissions with a typed draining reject, and closes the pool.
func TestDrainGraceful(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	ctx := context.Background()

	// Hold the single pool worker so the submitted query is pinned
	// in-flight (inside execute, waiting for the pool) when Drain begins.
	if err := s.pool.Acquire(ctx); err != nil {
		t.Fatal(err)
	}
	inflight := make(chan error, 1)
	go func() {
		_, err := s.Submit(ctx, Request{Tenant: "alice", Query: "SELECT n_name FROM nation"})
		inflight <- err
	}()
	for i := 0; s.pool.Waiting() == 0 && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}
	if s.pool.Waiting() == 0 {
		t.Fatal("query never reached the pool")
	}

	drained := make(chan struct{})
	go func() {
		s.Drain()
		close(drained)
	}()
	for i := 0; !s.Draining() && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}

	// New work is shed while draining.
	_, err := s.Submit(ctx, Request{Tenant: "late", Query: "SELECT n_name FROM nation"})
	rej, ok := AsReject(err)
	if !ok || rej.Code != RejectDraining {
		t.Fatalf("submit during drain = %v, want draining Reject", err)
	}

	// The drain must be blocked on the in-flight query.
	select {
	case <-drained:
		t.Fatal("Drain returned with a query still in flight")
	case <-time.After(20 * time.Millisecond):
	}

	// Release the worker: the in-flight query completes, then the drain.
	s.pool.Release()
	if err := <-inflight; err != nil {
		t.Fatalf("in-flight query failed during drain: %v", err)
	}
	select {
	case <-drained:
	case <-time.After(5 * time.Second):
		t.Fatal("Drain did not complete")
	}
	if !s.pool.Closed() {
		t.Fatal("pool not closed after drain")
	}
}

// serialBaseline runs each workload query alone on a fresh server and
// returns its formatted rows keyed by query name.
func serialBaseline(t *testing.T, cfg Config) map[string]*Response {
	t.Helper()
	s := newTestServer(t, cfg)
	out := map[string]*Response{}
	for _, q := range TPCHQueries() {
		resp, err := s.Submit(context.Background(), Request{Tenant: "serial", Query: q.Text})
		if err != nil {
			t.Fatalf("serial %s: %v", q.Name, err)
		}
		out[q.Name] = resp
	}
	return out
}

// runConcurrent submits rounds copies of every workload query concurrently
// over TCP and checks byte-identical rows against the serial baseline.
// Returns the total injected failures observed.
func runConcurrent(t *testing.T, cfg Config, want map[string]*Response, rounds int) int {
	t.Helper()
	s := newTestServer(t, cfg)
	addr, err := s.StartTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	queries := TPCHQueries()
	var wg sync.WaitGroup
	var mu sync.Mutex
	failures := 0
	for r := 0; r < rounds; r++ {
		for _, q := range queries {
			wg.Add(1)
			go func(r int, q TPCHQuery) {
				defer wg.Done()
				c, err := Dial(addr)
				if err != nil {
					t.Errorf("%s/%d: dial: %v", q.Name, r, err)
					return
				}
				defer c.Close()
				resp, err := c.Do(Request{Tenant: q.Name, Query: q.Text})
				if err != nil {
					t.Errorf("%s/%d: %v", q.Name, r, err)
					return
				}
				if resp.Code != CodeOK {
					t.Errorf("%s/%d: code %s: %s", q.Name, r, resp.Code, resp.Error)
					return
				}
				if !reflect.DeepEqual(resp.Rows, want[q.Name].Rows) ||
					!reflect.DeepEqual(resp.Columns, want[q.Name].Columns) {
					t.Errorf("%s/%d: concurrent rows differ from serial baseline", q.Name, r)
				}
				mu.Lock()
				failures += resp.Failures
				mu.Unlock()
			}(r, q)
		}
	}
	wg.Wait()
	return failures
}

// TestConcurrentEquivalenceClean: >= 9 concurrent TPC-H Q1/Q3/Q5 executions
// multiplexed on one small shared pool return byte-identical results to
// serial runs.
func TestConcurrentEquivalenceClean(t *testing.T) {
	want := serialBaseline(t, Config{})
	if n := runConcurrent(t, Config{Workers: 3}, want, 3); n != 0 {
		t.Fatalf("clean run reported %d injected failures", n)
	}
}

// TestConcurrentEquivalenceUnderFailures: same bar with trace-drawn failure
// injection hot enough that recoveries overlap across queries.
func TestConcurrentEquivalenceUnderFailures(t *testing.T) {
	want := serialBaseline(t, Config{})
	n := runConcurrent(t, Config{Workers: 3, InjectMTBF: 0.02}, want, 3)
	if n == 0 {
		t.Fatal("failure arm injected no failures; lower InjectMTBF")
	}
	t.Logf("recovered from %d injected failures with identical results", n)
}

// TestLoadAwareFlip pins the acceptance criterion: the same query planned
// through the same server picks a different (more materialized)
// configuration when the shared pool is saturated than when it is idle.
func TestLoadAwareFlip(t *testing.T) {
	s := newTestServer(t, Config{
		Workers:     2,
		ModelMTBF:   0.3,
		ModelMTTR:   0.05,
		WritePerRow: 3e-6,
	})
	q5 := TPCHQueries()[2]
	plan := func() (string, int) {
		m, _ := s.planModel()
		stmt, err := sql.Parse(q5.Text)
		if err != nil {
			t.Fatal(err)
		}
		tstats, err := s.stats(stmt)
		if err != nil {
			t.Fatal(err)
		}
		audit, err := sql.BuildAuditPlan(stmt, s.cat, tstats, s.cp, m)
		if err != nil {
			t.Fatal(err)
		}
		return audit.Opt.Config.String(), len(audit.Opt.Config.Materialized())
	}

	idleCfg, idleMats := plan()

	// Saturate the pool: hold both workers, so utilization >= 1 and the
	// recovery stretch hits its clamp.
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if err := s.pool.Acquire(ctx); err != nil {
			t.Fatal(err)
		}
	}
	defer func() {
		s.pool.Release()
		s.pool.Release()
	}()
	hotCfg, hotMats := plan()

	if idleCfg == hotCfg {
		t.Fatalf("materialization did not flip under load: idle=%s hot=%s", idleCfg, hotCfg)
	}
	if hotMats <= idleMats {
		t.Fatalf("saturated pool picked fewer materializations: idle=%s (%d) hot=%s (%d)",
			idleCfg, idleMats, hotCfg, hotMats)
	}
	t.Logf("idle config %s (%d mats) -> saturated config %s (%d mats)", idleCfg, idleMats, hotCfg, hotMats)
}

// TestLoadAwareDisabled: with DisableLoadAware the same saturation changes
// nothing.
func TestLoadAwareDisabled(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2, DisableLoadAware: true})
	m, _ := s.planModel()
	if m.RecoveryStretch != 0 {
		t.Fatalf("idle stretch = %g, want 0", m.RecoveryStretch)
	}
	if err := s.pool.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer s.pool.Release()
	m, util := s.planModel()
	if util == 0 {
		t.Fatal("utilization not observed")
	}
	if m.RecoveryStretch != 0 {
		t.Fatalf("stretch with load-aware disabled = %g, want 0", m.RecoveryStretch)
	}
}
