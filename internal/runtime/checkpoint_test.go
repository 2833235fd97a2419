package runtime

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	goruntime "runtime"
	"runtime/pprof"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ftpde/internal/engine"
	"ftpde/internal/obs/metrics"
	"ftpde/internal/schemes"
	"ftpde/internal/tpch"
)

// gateStore is the writer's blockSink: it records the groups it is handed
// and, when gated, holds each write until the test lets it go.
type gateStore struct {
	gate chan struct{} // nil: a write returns at once; else it waits for one send
	fail map[string]error

	mu       sync.Mutex
	inFlight int
	writes   map[string][][]int // per operator, the partitions of each group written
}

func (s *gateStore) PutGroup(op string, parts int, group []engine.PartBlock) error {
	var members []int
	for _, b := range group {
		if _, err := engine.DecodeBlock(b.Data, nil); err != nil {
			return err
		}
		members = append(members, b.Part)
	}
	s.mu.Lock()
	if s.writes == nil {
		s.writes = map[string][][]int{}
	}
	s.writes[op] = append(s.writes[op], members)
	s.inFlight++
	s.mu.Unlock()
	if s.gate != nil {
		<-s.gate
	}
	s.mu.Lock()
	s.inFlight--
	s.mu.Unlock()
	return s.fail[op]
}

// writing reports how many writes are inside the store and how many it has
// been handed in all.
func (s *gateStore) writing() (inFlight, calls int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, w := range s.writes {
		calls += len(w)
	}
	return s.inFlight, calls
}

// groups returns the groups of op the store was handed, each as the sorted
// partitions it held.
func (s *gateStore) groups(op string) [][]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out [][]int
	for _, g := range s.writes[op] {
		g = append([]int(nil), g...)
		sort.Ints(g)
		out = append(out, g)
	}
	return out
}

// waitFor polls until cond holds. It sleeps between looks, so the goroutines
// it waits on make progress on one thread too.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("timed out waiting until %s\n%s", what, buf[:goruntime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// executeWithin is r.Execute bounded by within. Every test that runs a query
// on its own goroutine goes through it, so a query that never returns fails
// that test rather than the package's timeout.
func executeWithin(t *testing.T, r *Runtime, ctx context.Context, root engine.Operator) (res *engine.PartitionedResult, rep *engine.Report, err error) {
	t.Helper()
	within(t, 10*time.Second, func() { res, rep, err = r.Execute(ctx, root) })
	return res, rep, err
}

// hung is set once a within call has timed out. The goroutine it left blocked
// may hold what later tests wait on, and the same defect would cost every later
// call its whole deadline, so later calls fail at once instead.
var hung atomic.Bool

// within runs f and fails the test, with every goroutine's stack, if f has
// not returned after d: a blocked channel operation fails the test that met it,
// by name, instead of hanging the package until the go test timeout. f must not
// call t.Fatal.
func within(t *testing.T, d time.Duration, f func()) {
	t.Helper()
	if hung.Load() {
		t.Fatal("not run: an earlier call did not return within its deadline")
	}
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
		hung.Store(true)
		t.Fatalf("did not return within %v\n%s", d, stacks.String())
	}
}

// parked counts the goroutines blocked in the sync primitive `in` (a frame
// such as "sync.(*Cond).Wait(") somewhere below the function `under`.
func parked(under, in string) int {
	buf := make([]byte, 1<<16)
	buf = buf[:goruntime.Stack(buf, true)]
	n := 0
	for _, g := range bytes.Split(buf, []byte("\n\n")) {
		if bytes.Contains(g, []byte(under)) && bytes.Contains(g, []byte(in)) {
			n++
		}
	}
	return n
}

const (
	barrierFrame = "ftpde/internal/runtime.(*checkpointWriter).barrier("
	condWait     = "sync.(*Cond).Wait("
)

// state reads the writer's barrier fields: partitions in flight, and how
// many of them are encoded and buffered.
func (w *checkpointWriter) state() (pending, buffered int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, g := range w.groups {
		buffered += len(g.blocks)
	}
	return w.pending, buffered
}

func ckptBatch(t *testing.T, n int) *engine.Batch {
	t.Helper()
	rows := make([]engine.Row, n)
	for i := range rows {
		rows[i] = engine.Row{int64(i), int64(i % 3), float64(i)}
	}
	b, err := engine.RowsToBatch(chainSchema, rows)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// stallEntries returns what the ledger booked as checkpoint stall.
func stallEntries(m *Metrics) []metrics.LedgerEntry {
	var out []metrics.LedgerEntry
	for _, e := range m.Ledger().Snapshot().Entries {
		if e.Cause == metrics.CauseCheckpointStall {
			out = append(out, e)
		}
	}
	return out
}

func TestCheckpointWriter(t *testing.T) {
	errA, errB := errors.New("disk A is gone"), errors.New("disk B is gone")
	// buffered waits until n partitions are encoded and sit in their groups.
	buffered := func(t *testing.T, w *checkpointWriter, n int) {
		t.Helper()
		waitFor(t, "the enqueued partitions are encoded and buffered", func() bool { _, b := w.state(); return b == n })
	}
	for _, tc := range []struct {
		name  string
		gated bool
		fail  map[string]error
		run   func(t *testing.T, w *checkpointWriter, s *gateStore, m *Metrics)
	}{
		{name: "a full stage is one store write, with no barrier", run: func(t *testing.T, w *checkpointWriter, s *gateStore, m *Metrics) {
			const parts = 8
			for p := 0; p < parts; p++ {
				if p == parts-1 {
					buffered(t, w, parts-1)
					if _, calls := s.writing(); calls != 0 {
						t.Fatalf("%d store writes with the stage one partition short", calls)
					}
				}
				if !w.enqueue("join", p, ckptBatch(t, 50), parts) {
					t.Fatalf("enqueue of partition %d refused", p)
				}
			}
			waitFor(t, "the group has landed", func() bool { pending, _ := w.state(); return pending == 0 })
			want := [][]int{{0, 1, 2, 3, 4, 5, 6, 7}}
			if got := s.groups("join"); !reflect.DeepEqual(got, want) || m.CheckpointParts.Load() != parts {
				t.Errorf("store was handed %v with %d partitions counted, want %v and %d", got, m.CheckpointParts.Load(), want, parts)
			}
			var size int64
			for p := 0; p < parts; p++ {
				data, err := engine.EncodeBlock(ckptBatch(t, 50))
				if err != nil {
					t.Fatal(err)
				}
				size += int64(len(data))
			}
			if got := m.CheckpointBytes.Load(); got != size {
				t.Errorf("CheckpointBytes = %d, want the %d bytes of the encoded blocks", got, size)
			}
			if stalls := stallEntries(m); len(stalls) != 0 {
				t.Errorf("stall booked with no barrier called: %+v", stalls)
			}
		}},
		{name: "a barrier mid-stage writes a partial group, the rest is a second write", run: func(t *testing.T, w *checkpointWriter, s *gateStore, m *Metrics) {
			w.enqueue("join", 0, ckptBatch(t, 10), 4)
			w.enqueue("join", 2, ckptBatch(t, 10), 4)
			w.enqueue("agg", 1, ckptBatch(t, 10), 4)
			buffered(t, w, 3)
			if _, calls := s.writing(); calls != 0 {
				t.Fatalf("%d store writes before any barrier, with no stage complete", calls)
			}
			// The restore probe's barrier: the partition's own operator only.
			if err := w.wait("join", 2); err != nil {
				t.Fatal(err)
			}
			if got, want := s.groups("join"), [][]int{{0, 2}}; !reflect.DeepEqual(got, want) || len(s.groups("agg")) != 0 {
				t.Fatalf("after wait(join, 2) the store holds join %v and agg %v, want join %v only", got, s.groups("agg"), want)
			}
			if stalls := stallEntries(m); len(stalls) != 1 || stalls[0].Op != "join" || stalls[0].Part != 2 || stalls[0].Seconds <= 0 {
				t.Errorf("ledger stall entries %+v, want one non-zero stall booked to join/2", stalls)
			}
			// A partition this writer does not have in flight costs the probe
			// nothing, landed or never seen.
			for _, part := range []int{0, 3} {
				if err := w.wait("join", part); err != nil {
					t.Fatal(err)
				}
			}
			if stalls := stallEntries(m); len(stalls) != 1 {
				t.Errorf("waits on partitions not in flight booked stalls: %+v", stalls)
			}
			w.enqueue("join", 1, ckptBatch(t, 10), 4)
			w.enqueue("join", 3, ckptBatch(t, 10), 4)
			if err := w.flush("root", -1); err != nil {
				t.Fatal(err)
			}
			if got, want := s.groups("join"), [][]int{{0, 2}, {1, 3}}; !reflect.DeepEqual(got, want) {
				t.Errorf("join went to the store as %v, want %v", got, want)
			}
			if got, want := s.groups("agg"), [][]int{{1}}; !reflect.DeepEqual(got, want) {
				t.Errorf("agg went to the store as %v, want %v", got, want)
			}
			if got := m.CheckpointParts.Load(); got != 5 {
				t.Errorf("CheckpointParts = %d, want 5", got)
			}
		}},
		{name: "a partition is written once", gated: true, run: func(t *testing.T, w *checkpointWriter, s *gateStore, m *Metrics) {
			b := ckptBatch(t, 10)
			if !w.enqueue("join", 0, b, 2) {
				t.Fatal("first enqueue refused")
			}
			buffered(t, w, 1)
			if w.enqueue("join", 0, b, 2) {
				t.Error("second enqueue accepted while the first is buffered")
			}
			if !w.enqueue("join", 1, b, 2) {
				t.Error("another partition of the same operator refused")
			}
			waitFor(t, "the group is inside the store", func() bool { n, _ := s.writing(); return n == 1 })
			if w.enqueue("join", 0, b, 2) {
				t.Error("second enqueue accepted while the first is inside the store")
			}
			s.gate <- struct{}{}
			if err := w.flush("join", -1); err != nil {
				t.Fatal(err)
			}
			if w.enqueue("join", 0, b, 2) || w.enqueue("join", 1, b, 2) {
				t.Error("enqueue of a landed partition accepted")
			}
			if _, calls := s.writing(); calls != 1 || m.CheckpointParts.Load() != 2 {
				t.Errorf("%d store writes, %d partitions counted, want 1 and 2", calls, m.CheckpointParts.Load())
			}
		}},
		{name: "wait is keyed and flush waits for all", gated: true, run: func(t *testing.T, w *checkpointWriter, s *gateStore, m *Metrics) {
			w.enqueue("join", 0, ckptBatch(t, 10), 1)
			waitFor(t, "join is inside the store", func() bool { n, _ := s.writing(); return n == 1 })
			// Another operator's write in the store does not hold the probe.
			if err := w.wait("agg", 0); err != nil {
				t.Fatal(err)
			}
			if len(stallEntries(m)) != 0 {
				t.Error("a probe of agg/0 stalled on join's write")
			}
			done := make(chan error, 2)
			go func() { done <- w.wait("join", 0) }()
			go func() { done <- w.flush("root", -1) }()
			waitFor(t, "both barriers are blocked", func() bool { return parked(barrierFrame, condWait) == 2 })
			if len(stallEntries(m)) != 0 {
				t.Error("stall booked before the barrier returned")
			}
			s.gate <- struct{}{}
			for i := 0; i < 2; i++ {
				if err := <-done; err != nil {
					t.Fatal(err)
				}
			}
			booked := map[string]bool{}
			for _, e := range stallEntries(m) {
				booked[e.Op] = e.Seconds > 0
			}
			if want := map[string]bool{"join": true, "root": true}; !reflect.DeepEqual(booked, want) {
				t.Errorf("stalls booked %v, want a non-zero one each for join and root", booked)
			}
		}},
		{name: "an encode error fails the query and spares the rest of the group", run: func(t *testing.T, w *checkpointWriter, s *gateStore, m *Metrics) {
			w.enqueue("join", 0, ckptBatch(t, 10), 4)
			w.enqueue("join", 1, ckptBatch(t, 10), 4)
			// One zero-width row has no block form.
			w.enqueue("join", 2, &engine.Batch{Sel: []int32{0}}, 4)
			w.enqueue("join", 3, ckptBatch(t, 10), 4)
			for _, end := range []func() error{func() error { return w.flush("root", -1) }, w.close} {
				if err := end(); !errors.Is(err, engine.ErrNotColumnar) {
					t.Errorf("got %v, want partition 2's encode error", err)
				}
			}
			if pending, buffered := w.state(); pending != 0 || buffered != 0 {
				t.Errorf("%d partitions pending, %d buffered after the barrier", pending, buffered)
			}
			if got, want := s.groups("join"), [][]int{{0, 1, 3}}; !reflect.DeepEqual(got, want) || m.CheckpointParts.Load() != 3 {
				t.Errorf("store was handed %v with %d partitions counted, want %v and 3", got, m.CheckpointParts.Load(), want)
			}
		}},
		{name: "an idle flush books nothing", run: func(t *testing.T, w *checkpointWriter, s *gateStore, m *Metrics) {
			if err := w.flush("join", 0); err != nil {
				t.Fatal(err)
			}
			w.enqueue("join", 0, ckptBatch(t, 10), 4)
			if err := w.close(); err != nil {
				t.Fatal(err)
			}
			if err := w.flush("join", 0); err != nil {
				t.Fatal(err)
			}
			if err := w.wait("join", 0); err != nil {
				t.Fatal(err)
			}
			if stalls := stallEntries(m); len(stalls) != 0 {
				t.Errorf("barriers with nothing pending booked %+v", stalls)
			}
			if got, want := s.groups("join"), [][]int{{0}}; !reflect.DeepEqual(got, want) {
				t.Errorf("close wrote %v, want the one buffered partition", got)
			}
		}},
		{name: "close refuses further writes", run: func(t *testing.T, w *checkpointWriter, s *gateStore, m *Metrics) {
			if err := w.close(); err != nil {
				t.Fatal(err)
			}
			if w.enqueue("join", 0, ckptBatch(t, 10), 4) {
				t.Error("enqueue after close accepted")
			}
			if _, calls := s.writing(); calls != 0 {
				t.Errorf("%d store writes after close", calls)
			}
		}},
		{name: "the first write error is the one reported", gated: true,
			fail: map[string]error{"join": errA, "agg": errB},
			run: func(t *testing.T, w *checkpointWriter, s *gateStore, m *Metrics) {
				for p := 0; p < 3; p++ {
					w.enqueue("join", p, ckptBatch(t, 10), 3)
				}
				waitFor(t, "join is inside the store", func() bool { n, _ := s.writing(); return n == 1 })
				w.enqueue("agg", 0, ckptBatch(t, 10), 1)
				waitFor(t, "agg is inside the store too", func() bool { n, _ := s.writing(); return n == 2 })
				s.gate <- struct{}{}
				s.gate <- struct{}{}
				for _, end := range []func() error{func() error { return w.flush("join", -1) }, func() error { return w.wait("join", 1) }, w.close} {
					if err := end(); !(errors.Is(err, errA) || errors.Is(err, errB)) || errors.Is(err, errA) && errors.Is(err, errB) {
						t.Errorf("got %v, want exactly one of the two failures", err)
					}
				}
				if pending, _ := w.state(); pending != 0 {
					t.Errorf("%d partitions still pending after their group's write failed", pending)
				}
				if m.CheckpointParts.Load() != 0 || m.CheckpointBytes.Load() != 0 {
					t.Errorf("failed writes counted: %d parts, %d bytes", m.CheckpointParts.Load(), m.CheckpointBytes.Load())
				}
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := goruntime.NumGoroutine()
			s := &gateStore{fail: tc.fail}
			if tc.gated {
				s.gate = make(chan struct{})
			}
			m := &Metrics{}
			w := newCheckpointWriter(s, &events{metrics: m})
			tc.run(t, w, s, m)
			_ = w.close() // every case has checked the error it expects
			waitForGoroutines(t, before, tc.name)
		})
	}
}

// failingStore is a row-only engine.Store (no PutGroup) whose Put fails for
// one partition; the others land in the MatStore behind it. The one
// checkpointed operator's groups reach the row adapter one at a time, so the
// counts need no lock of their own.
type failingStore struct {
	engine.Store
	bad            partKey
	err            error
	landed, failed int
}

func (s *failingStore) Put(op string, part int, rows []engine.Row, parts int) error {
	if (partKey{op, part}) == s.bad {
		s.failed++
		return s.err
	}
	s.landed++
	return s.Store.Put(op, part, rows, parts)
}

// TestStoreErrorFailsTheQuery: a checkpoint the store refuses is the query's
// error — no result is reported on top of it — whichever barrier meets it
// first, and no partition of the refused group is counted as a checkpoint,
// whatever part of it the row adapter had put before the refusal.
func TestStoreErrorFailsTheQuery(t *testing.T) {
	errDisk := errors.New("disk full")
	for _, arm := range []struct {
		name     string
		recovery schemes.Recovery
		kill     bool
		workers  int
	}{
		{"fine", schemes.FineGrained, false, 0},
		{"coarse", schemes.CoarseRestart, false, 0},
		{"fine, one worker", schemes.FineGrained, false, 1},
		{"fine, kill on the stage", schemes.FineGrained, true, 0},
		{"coarse, kill on the stage", schemes.CoarseRestart, true, 0},
		{"coarse, kill on the stage, one worker", schemes.CoarseRestart, true, 1},
	} {
		t.Run(arm.name, func(t *testing.T) {
			root := testPipeline(t, 4, true)
			store := &failingStore{Store: engine.NewMatStore(), bad: partKey{"join", 2}, err: errDisk}
			inj := engine.NewScriptedFailures()
			if arm.kill {
				inj.Add("join", 2, 0).Add("join", 3, 0)
			}
			m := &Metrics{}
			r, err := New(Config{Nodes: 4, MaxWorkers: arm.workers, Store: store, Injector: inj, Recovery: arm.recovery, Metrics: m})
			if err != nil {
				t.Fatal(err)
			}
			before := goruntime.NumGoroutine()
			res, _, err := executeWithin(t, r, context.Background(), root)
			waitForGoroutines(t, before, arm.name)
			if !errors.Is(err, errDisk) || res != nil {
				t.Fatalf("Execute = (%v, %v), want no result and an error wrapping %q", res, err, errDisk)
			}
			if store.failed != 1 {
				t.Errorf("the store refused %d writes, want the one of join/2", store.failed)
			}
			if got := m.CheckpointParts.Load(); got > int64(store.landed) || store.landed > 3 {
				t.Errorf("CheckpointParts = %d with %d writes landed of at most 3", got, store.landed)
			}
		})
	}
}

// countingStore is a MatStore that records the groups it is handed.
type countingStore struct {
	*engine.MatStore
	mu     sync.Mutex
	groups map[string][]int // per operator, the size of each group written
}

func (s *countingStore) PutGroup(op string, parts int, group []engine.PartBlock) error {
	s.mu.Lock()
	s.groups[op] = append(s.groups[op], len(group))
	s.mu.Unlock()
	return s.MatStore.PutGroup(op, parts, group)
}

// TestCheckpointedStageIsOneStoreWrite: through Execute, on one worker, Q5
// with every join materialized reaches the store in five writes of four
// partitions, not twenty of one. A kill inside a checkpointed stage under
// coarse restart splits that stage's write in two — what had committed before
// the kill, written when the restart probes for it, and the rest — and every
// partition is still counted once and restorable.
func TestCheckpointedStageIsOneStoreWrite(t *testing.T) {
	cat, err := tpch.Generate(eqSF, eqNodes, eqSeed)
	if err != nil {
		t.Fatal(err)
	}
	joins := []string{"q5-join1", "q5-join2", "q5-join3", "q5-join4", "q5-join5"}
	build := func() engine.Operator {
		mat := map[string]bool{}
		for _, j := range joins {
			mat[j] = true
		}
		q, err := tpch.EngineQ5(cat, 1, 0, 2400, mat)
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	want, _, err := (&engine.Coordinator{Nodes: eqNodes}).Execute(build())
	if err != nil {
		t.Fatal(err)
	}
	whole := []int{eqNodes}
	for _, tc := range []struct {
		name     string
		kill     *engine.ScriptedFailures
		recovery schemes.Recovery
		split    string // the stage a restart may catch partly committed
	}{
		{name: "clean"},
		{name: "fine, kill in join3", recovery: schemes.FineGrained,
			kill: engine.NewScriptedFailures().Add("q5-join3", 2, 0)},
		{name: "coarse, kill in join3", recovery: schemes.CoarseRestart,
			kill: engine.NewScriptedFailures().Add("q5-join3", 2, 0), split: "q5-join3"},
		{name: "coarse, kills in join5", recovery: schemes.CoarseRestart,
			kill: engine.NewScriptedFailures().Add("q5-join5", 0, 0).Add("q5-join5", 3, 0), split: "q5-join5"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			store := &countingStore{MatStore: engine.NewMatStore(), groups: map[string][]int{}}
			m := &Metrics{}
			cfg := Config{Nodes: eqNodes, MaxWorkers: 1, Store: store, Recovery: tc.recovery, Metrics: m}
			if tc.kill != nil {
				cfg.Injector = tc.kill
			}
			res, rep := mustExecute(t, cfg, build())
			if !reflect.DeepEqual(res.Parts, want.Parts) {
				t.Fatalf("rows differ from the oracle (%d vs %d)", len(res.AllRows()), len(want.AllRows()))
			}
			for _, j := range joins {
				got := store.groups[j]
				if j == tc.split {
					// Which partitions had committed when the kill came is the
					// pool's business; each restart adds at most one group.
					sum := 0
					for _, n := range got {
						sum += n
					}
					if sum != eqNodes || len(got) > 1+rep.Restarts {
						t.Errorf("%s reached the store in groups of %v over %d restarts, want %d partitions in at most %d groups", j, got, rep.Restarts, eqNodes, 1+rep.Restarts)
					}
				} else if !reflect.DeepEqual(got, whole) {
					t.Errorf("%s reached the store in groups of %v, want %v", j, got, whole)
				}
				for part := 0; part < eqNodes; part++ {
					if _, ok := store.GetEncoded(j, part); !ok {
						t.Errorf("%s/%d is not restorable", j, part)
					}
				}
			}
			total := len(joins) * eqNodes
			if rep.MaterializedPartitions != total || m.CheckpointParts.Load() != int64(total) {
				t.Errorf("MaterializedPartitions = %d, CheckpointParts = %d, want %d each", rep.MaterializedPartitions, m.CheckpointParts.Load(), total)
			}
		})
	}
}
