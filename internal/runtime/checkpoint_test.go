package runtime

import (
	"bytes"
	"context"
	"errors"
	goruntime "runtime"
	"sync"
	"testing"
	"time"

	"ftpde/internal/engine"
	"ftpde/internal/obs/metrics"
	"ftpde/internal/schemes"
)

// gateStore is an engine.EncodedStore that records how its writes overlap
// and, when gated, holds each one until the test lets it go.
type gateStore struct {
	gate chan struct{} // nil: a write returns at once; else it waits for one send
	fail map[partKey]error

	mu                           sync.Mutex
	calls, inFlight, maxInFlight int
}

func (s *gateStore) PutEncoded(op string, part int, data []byte, parts int) error {
	key := partKey{op, part}
	s.mu.Lock()
	s.calls++
	s.inFlight++
	if s.inFlight > s.maxInFlight {
		s.maxInFlight = s.inFlight
	}
	s.mu.Unlock()
	if s.gate != nil {
		<-s.gate
	} else {
		goruntime.Gosched() // give an overlapping write the chance to show
	}
	s.mu.Lock()
	s.inFlight--
	s.mu.Unlock()
	return s.fail[key]
}

func (s *gateStore) Put(string, int, []engine.Row, int) error {
	return errors.New("gateStore: the writer must use PutEncoded")
}
func (s *gateStore) Get(string, int) ([]engine.Row, bool) { return nil, false }
func (s *gateStore) Len() int                             { return 0 }

// writing reports how many writes are inside the store and how many it has
// been handed in all.
func (s *gateStore) writing() (inFlight, calls int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inFlight, s.calls
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

// parked counts the goroutines blocked in the sync primitive `in` (a frame
// such as "sync.(*Mutex).Lock(") somewhere below the function `under`.
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
	writeFrame = "ftpde/internal/runtime.(*checkpointWriter).write("
	flushFrame = "ftpde/internal/runtime.(*checkpointWriter).flush("
	mutexLock  = "sync.(*Mutex).Lock("
	condWait   = "sync.(*Cond).Wait("
)

// state reads the writer's barrier fields.
func (w *checkpointWriter) state() (pending int, err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.pending, w.err
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
	for _, tc := range []struct {
		name  string
		gated bool
		fail  map[partKey]error
		run   func(t *testing.T, w *checkpointWriter, s *gateStore, m *Metrics)
	}{
		{name: "a partition is written once", run: func(t *testing.T, w *checkpointWriter, s *gateStore, m *Metrics) {
			b := ckptBatch(t, 10)
			if !w.enqueue("join", 0, b, 4) {
				t.Fatal("first enqueue refused")
			}
			if w.enqueue("join", 0, b, 4) {
				t.Error("second enqueue of the same partition accepted while the first is in flight")
			}
			if err := w.flush("join", 0); err != nil {
				t.Fatal(err)
			}
			if w.enqueue("join", 0, b, 4) {
				t.Error("enqueue of an already written partition accepted")
			}
			if !w.enqueue("join", 1, b, 4) {
				t.Error("another partition of the same operator refused")
			}
			if err := w.close(); err != nil {
				t.Fatal(err)
			}
			if _, calls := s.writing(); calls != 2 || m.CheckpointParts.Load() != 2 {
				t.Errorf("%d store writes, %d counted, want 2 and 2", calls, m.CheckpointParts.Load())
			}
		}},
		{name: "writes never overlap", run: func(t *testing.T, w *checkpointWriter, s *gateStore, m *Metrics) {
			const parts = 16
			for p := 0; p < parts; p++ {
				w.enqueue("join", p, ckptBatch(t, 50), parts)
			}
			if err := w.flush("join", -1); err != nil {
				t.Fatal(err)
			}
			if _, calls := s.writing(); calls != parts || s.maxInFlight != 1 {
				t.Errorf("%d writes, at most %d at once; want %d, one at a time", calls, s.maxInFlight, parts)
			}
		}},
		{name: "one partition encodes ahead and flush waits", gated: true, run: func(t *testing.T, w *checkpointWriter, s *gateStore, m *Metrics) {
			w.enqueue("join", 0, ckptBatch(t, 10), 4)
			waitFor(t, "partition 0 is inside the store", func() bool { n, _ := s.writing(); return n == 1 })
			w.enqueue("join", 1, ckptBatch(t, 10), 4)
			waitFor(t, "partition 1 is encoded and waits for the store", func() bool { return parked(writeFrame, mutexLock) == 1 })
			// One zero-width row has no block form: the moment partition 2 is
			// encoded it settles with an error, without touching the store.
			w.enqueue("join", 2, &engine.Batch{Sel: []int32{0}}, 4)
			waitFor(t, "partition 2 waits its turn to encode", func() bool { return parked(writeFrame, mutexLock) == 2 })
			// Nothing can move until the store lets go: the double buffer holds
			// one partition on disk, one encoded, and the rest untouched.
			if pending, err := w.state(); pending != 3 || err != nil {
				t.Fatalf("store blocked in its first write: %d pending, err %v; want all 3 pending and partition 2 not yet encoded", pending, err)
			}

			done := make(chan error, 1)
			go func() { done <- w.flush("agg", 3) }()
			waitFor(t, "flush is blocked", func() bool { return parked(flushFrame, condWait) == 1 })
			if len(stallEntries(m)) != 0 {
				t.Error("stall booked before the flush returned")
			}
			s.gate <- struct{}{}
			s.gate <- struct{}{}
			if err := <-done; !errors.Is(err, engine.ErrNotColumnar) {
				t.Errorf("flush = %v, want partition 2's encode error", err)
			}
			stalls := stallEntries(m)
			if len(stalls) != 1 || stalls[0].Seconds <= 0 || stalls[0].Op != "agg" || stalls[0].Part != 3 {
				t.Errorf("ledger stall entries %+v, want one non-zero stall booked to agg/3", stalls)
			}
			if _, calls := s.writing(); calls != 2 || m.CheckpointParts.Load() != 2 {
				t.Errorf("%d store writes, %d counted, want the 2 encodable partitions", calls, m.CheckpointParts.Load())
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
			if stalls := stallEntries(m); len(stalls) != 0 {
				t.Errorf("flushes with nothing pending booked %+v", stalls)
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
			fail: map[partKey]error{{"join", 0}: errA, {"join", 1}: errB},
			run: func(t *testing.T, w *checkpointWriter, s *gateStore, m *Metrics) {
				w.enqueue("join", 0, ckptBatch(t, 10), 4)
				waitFor(t, "partition 0 is inside the store", func() bool { n, _ := s.writing(); return n == 1 })
				w.enqueue("join", 1, ckptBatch(t, 10), 4)
				s.gate <- struct{}{}
				waitFor(t, "partition 0 has settled", func() bool { pending, _ := w.state(); return pending == 1 })
				s.gate <- struct{}{}
				for _, end := range []func() error{func() error { return w.flush("join", -1) }, w.close} {
					if err := end(); !errors.Is(err, errA) || errors.Is(err, errB) {
						t.Errorf("got %v, want the first failure, %v", err, errA)
					}
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
			w := newCheckpointWriter(context.Background(), s, m, nil, nil)
			tc.run(t, w, s, m)
			_ = w.close() // every case has checked the error it expects
			waitForGoroutines(t, before, tc.name)
		})
	}
}

// failingStore is a row-only engine.Store (no PutEncoded) whose Put fails for
// one partition; the others land in the MatStore behind it. The writer calls
// Put one at a time, so the counts need no lock of their own.
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
// first, and the writes it shares the writer with are counted as they landed.
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
			res, _, err := r.Execute(context.Background(), root)
			waitForGoroutines(t, before, arm.name)
			if !errors.Is(err, errDisk) || res != nil {
				t.Fatalf("Execute = (%v, %v), want no result and an error wrapping %q", res, err, errDisk)
			}
			if store.failed != 1 {
				t.Errorf("the store refused %d writes, want the one of join/2", store.failed)
			}
			if got := m.CheckpointParts.Load(); got != int64(store.landed) || got > 3 {
				t.Errorf("CheckpointParts = %d with %d writes landed of at most 3", got, store.landed)
			}
		})
	}
}
