package runtime

import (
	"context"
	"errors"
	"reflect"
	goruntime "runtime"
	"sync"
	"testing"
	"time"

	"ftpde/internal/engine"
	"ftpde/internal/tpch"
)

func TestPoolAcquireRelease(t *testing.T) {
	p := NewPool(2)
	ctx := context.Background()
	if err := p.Acquire(ctx); err != nil {
		t.Fatal(err)
	}
	if err := p.Acquire(ctx); err != nil {
		t.Fatal(err)
	}
	if got := p.InUse(); got != 2 {
		t.Fatalf("InUse = %d, want 2", got)
	}
	if got := p.Utilization(); got != 1 {
		t.Fatalf("Utilization = %g, want 1", got)
	}
	// A third acquire must respect context cancellation while parked.
	cctx, cancel := context.WithTimeout(ctx, 10*time.Millisecond)
	defer cancel()
	var err error
	within(t, 5*time.Second, func() { err = p.Acquire(cctx) })
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("parked Acquire = %v, want deadline exceeded", err)
	}
	p.Release()
	p.Release()
	if got := p.InUse(); got != 0 {
		t.Fatalf("InUse after release = %d, want 0", got)
	}
}

func TestPoolUtilizationCountsWaiters(t *testing.T) {
	p := NewPool(1)
	ctx := context.Background()
	if err := p.Acquire(ctx); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- p.Acquire(ctx) }()
	// Wait until the second acquire is parked.
	for i := 0; p.Waiting() == 0 && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}
	if got := p.Utilization(); got != 2 {
		t.Fatalf("Utilization with one busy + one waiting on capacity 1 = %g, want 2", got)
	}
	p.Release()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	p.Release()
}

// TestPoolAcquireAfterCloseTypedError pins the typed error contract of a
// parked Acquire on a full pool — its context's error on cancel, ErrPoolClosed
// on Close — and of an Acquire after Close. Each release is bounded by within,
// so an Acquire that blocks past it fails here by name.
func TestPoolAcquireAfterCloseTypedError(t *testing.T) {
	p := NewPool(1)
	ctx := context.Background()
	if err := p.Acquire(ctx); err != nil {
		t.Fatal(err)
	}
	before := goruntime.NumGoroutine()
	// parkThenRelease parks one Acquire on the full pool, calls release, and
	// returns what the parked Acquire returned.
	parkThenRelease := func(ctx context.Context, release func()) error {
		parked := make(chan error, 1)
		go func() { parked <- p.Acquire(ctx) }()
		waitFor(t, "an Acquire is parked", func() bool { return p.Waiting() == 1 })
		var err error
		within(t, 5*time.Second, func() {
			release()
			err = <-parked
		})
		return err
	}

	cctx, cancel := context.WithCancel(ctx)
	if err := parkThenRelease(cctx, cancel); !errors.Is(err, context.Canceled) {
		t.Fatalf("parked Acquire on cancel = %v, want context.Canceled", err)
	}
	if got := p.Waiting(); got != 0 {
		t.Fatalf("Waiting after the cancel = %d, want 0", got)
	}

	closed := make(chan struct{})
	closePool := func() {
		go func() {
			p.Close()
			close(closed)
		}()
	}
	if err := parkThenRelease(ctx, closePool); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("parked Acquire during Close = %v, want ErrPoolClosed", err)
	}
	select {
	case <-closed:
		t.Fatal("Close returned while a slot was still held")
	case <-time.After(20 * time.Millisecond):
	}
	p.Release()
	within(t, 5*time.Second, func() { <-closed })
	if err := p.Acquire(ctx); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("Acquire after Close = %v, want ErrPoolClosed", err)
	}
	if !p.Closed() {
		t.Fatal("Closed() = false after Close")
	}
	waitForGoroutines(t, before, "after Close")
}

// TestPoolCloseDrainsOtherQueries verifies the shared-pool drain contract:
// Close blocks until in-flight stage work of *other* queries releases its
// slots, instead of yanking workers mid-stage.
func TestPoolCloseDrainsOtherQueries(t *testing.T) {
	p := NewPool(4)
	ctx := context.Background()
	const holders = 3
	release := make(chan struct{})
	var held sync.WaitGroup
	for i := 0; i < holders; i++ {
		held.Add(1)
		if err := p.Acquire(ctx); err != nil {
			t.Fatal(err)
		}
		go func() {
			defer held.Done()
			<-release
			p.Release()
		}()
	}
	closed := make(chan struct{})
	go func() {
		p.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned with slots still held")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	held.Wait()
	select {
	case <-closed:
	case <-time.After(time.Second):
		t.Fatal("Close did not return after the last slot was released")
	}
}

// TestSharedPoolConcurrentRecovery runs two queries on ONE shared pool, both
// failing and recovering concurrently (run with -race: this is the shared
// mutable state the refactor introduced), and checks both still produce
// byte-identical results to the staged engine.
func TestSharedPoolConcurrentRecovery(t *testing.T) {
	cat, err := tpch.Generate(eqSF, eqNodes, eqSeed)
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool(3) // undersized: queries contend for slots
	defer pool.Close()

	type job struct {
		name  string
		build queryBuilder
		inj   func() *engine.ScriptedFailures
	}
	jobs := []job{
		{"q3", tpchQueries()["q3"], func() *engine.ScriptedFailures {
			return engine.NewScriptedFailures().
				Add("q3-join-orders-lineitem", 1, 0).
				Add("q3-agg", 2, 0)
		}},
		{"q5", tpchQueries()["q5"], func() *engine.ScriptedFailures {
			return engine.NewScriptedFailures().
				Add("q5-join4", 3, 0).
				Add("q5-agg", 0, 0)
		}},
	}
	want := map[string][]engine.Row{}
	for _, j := range jobs {
		want[j.name] = oracleRows(t, cat, j.build, nil)
	}

	const rounds = 4
	var wg sync.WaitGroup
	errs := make(chan error, len(jobs)*rounds)
	for r := 0; r < rounds; r++ {
		for _, j := range jobs {
			wg.Add(1)
			go func(j job) {
				defer wg.Done()
				rt, err := New(Config{Nodes: eqNodes, BatchSize: 64, Pool: pool, Injector: j.inj()})
				if err != nil {
					errs <- err
					return
				}
				res, rep, err := rt.Execute(context.Background(), j.build(t, cat))
				if err != nil {
					errs <- err
					return
				}
				if rep.Failures == 0 {
					t.Errorf("%s: scripted failures did not fire", j.name)
				}
				if got := res.AllRows(); !reflect.DeepEqual(got, want[j.name]) {
					t.Errorf("%s: concurrent recovery on shared pool diverged (%d vs %d rows)",
						j.name, len(got), len(want[j.name]))
				}
			}(j)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestSharedPoolExecuteAfterCloseFails pins the runtime-level behavior: a
// query submitted to a runtime whose shared pool has closed fails with
// ErrPoolClosed instead of hanging.
func TestSharedPoolExecuteAfterCloseFails(t *testing.T) {
	cat, err := tpch.Generate(eqSF, eqNodes, eqSeed)
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool(2)
	pool.Close()
	rt, err := New(Config{Nodes: eqNodes, Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = executeWithin(t, rt, context.Background(), tpchQueries()["q1"](t, cat))
	if !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("Execute on closed pool = %v, want ErrPoolClosed", err)
	}
}
