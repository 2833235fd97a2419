package obs

import (
	"encoding/json"
	"runtime"
	"sync"
	"testing"
	"time"
)

// instant returns an instant event of kind at the current time.
func instant(kind Kind, name string, part, attempt int) Span {
	now := time.Now()
	return Span{Kind: kind, Name: name, Part: part, Attempt: attempt, Start: now, End: now}
}

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	tr.Record(Span{Kind: KindStage, Name: "s", Part: -1, Attempt: -1, Bytes: 1, Rows: 2})
	tr.Record(instant(KindFailure, "f", 0, 0))
	if got := tr.Snapshot(); got != nil {
		t.Fatalf("nil tracer snapshot = %v, want nil", got)
	}
	if tr.Dropped() != 0 {
		t.Fatal("nil tracer reported drops")
	}
}

func TestTracerRecordsSpansAndEvents(t *testing.T) {
	tr := NewTracer(1024)
	start := time.Now()
	tr.Record(Span{Kind: KindStage, Name: "join-1", Part: -1, Attempt: -1, Start: start, End: time.Now(), Rows: 42})
	tr.Record(Span{Kind: KindTask, Name: "join-1", Part: 2, Attempt: 1, Start: start, End: time.Now(), Err: "node failure"})
	tr.Record(instant(KindFailure, "join-1", 2, 1))

	spans := tr.Snapshot()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	byKind := map[Kind]Span{}
	for _, s := range spans {
		byKind[s.Kind] = s
	}
	if byKind[KindStage].Rows != 42 {
		t.Errorf("stage rows = %d, want 42", byKind[KindStage].Rows)
	}
	if byKind[KindTask].Err != "node failure" {
		t.Errorf("task err = %q", byKind[KindTask].Err)
	}
	if !byKind[KindFailure].Instant() {
		t.Error("failure event is not instant")
	}
	if byKind[KindFailure].Part != 2 || byKind[KindFailure].Attempt != 1 {
		t.Errorf("failure event ids = (%d,%d), want (2,1)",
			byKind[KindFailure].Part, byKind[KindFailure].Attempt)
	}
}

func TestTracerSnapshotSortedByStart(t *testing.T) {
	tr := NewTracer(1024)
	for i := 0; i < 50; i++ {
		tr.Record(instant(KindFailure, "op", i, 0))
	}
	spans := tr.Snapshot()
	for i := 1; i < len(spans); i++ {
		if spans[i].Start.Before(spans[i-1].Start) {
			t.Fatalf("snapshot not sorted at %d", i)
		}
	}
}

func TestTracerRingOverflowCountsDrops(t *testing.T) {
	tr := NewTracer(1) // clamped to 64
	total := tr.capacity
	for i := 0; i < total+100; i++ {
		tr.Record(instant(KindTask, "op", i, 0))
	}
	if got := len(tr.Snapshot()); got != total {
		t.Errorf("snapshot has %d spans, want ring capacity %d", got, total)
	}
	if tr.Dropped() != 100 {
		t.Errorf("dropped = %d, want 100", tr.Dropped())
	}
}

// A query's tracer has room for thousands of spans and records a few dozen;
// its rings grow to what it records, so the room costs nothing.
func TestQueryTracerAllocatesWhatItRecords(t *testing.T) {
	const spans = 40
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 20
	for i := 0; i < runs; i++ {
		tr := NewTracer(1 << 12)
		for j := 0; j < spans; j++ {
			tr.Record(instant(KindTask, "op", j, 0))
		}
	}
	runtime.ReadMemStats(&after)
	// 40 spans of ~150 B, doubled by append growth: well under the 590 KB
	// a preallocated 4,096-span tracer zeroes.
	const ceiling = 32 << 10
	if got := (after.TotalAlloc - before.TotalAlloc) / runs; got > ceiling {
		t.Errorf("a %d-span query tracer allocates %d B, ceiling %d", spans, got, ceiling)
	}
}

// TestTracerConcurrentEmitAndDrain is the race-detector coverage for the
// tracer: many workers emit while a collector snapshots concurrently.
func TestTracerConcurrentEmitAndDrain(t *testing.T) {
	tr := NewTracer(4096)
	const workers = 8
	const perWorker = 500
	stop := make(chan struct{})
	collectorDone := make(chan struct{})
	go func() { // collector drains concurrently with emission
		defer close(collectorDone)
		for {
			select {
			case <-stop:
				return
			default:
				tr.Snapshot()
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				sp := instant(KindTask, "op", w, i)
				sp.Rows = int64(i)
				tr.Record(sp)
				if i%10 == 0 {
					tr.Record(instant(KindFailure, "op", w, i))
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-collectorDone

	spans := tr.Snapshot()
	if len(spans)+int(tr.Dropped()) != workers*perWorker+workers*perWorker/10 {
		t.Errorf("spans %d + dropped %d != emitted %d",
			len(spans), tr.Dropped(), workers*perWorker+workers*perWorker/10)
	}
}

func TestChromeTraceExportParses(t *testing.T) {
	tr := NewTracer(256)
	start := time.Now()
	time.Sleep(time.Millisecond)
	tr.Record(Span{Kind: KindStage, Name: "aggregate", Part: -1, Attempt: -1, Start: start, End: time.Now()})
	tr.Record(instant(KindFailure, "aggregate", 1, 0))

	var buf jsonBuffer
	if err := WriteChromeTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.b, &parsed); err != nil {
		t.Fatalf("chrome trace does not parse: %v", err)
	}
	if len(parsed.TraceEvents) != 2 {
		t.Fatalf("got %d events, want 2", len(parsed.TraceEvents))
	}
	phases := map[string]bool{}
	for _, ev := range parsed.TraceEvents {
		phases[ev["ph"].(string)] = true
	}
	if !phases["X"] || !phases["i"] {
		t.Errorf("want one complete and one instant event, got %v", phases)
	}
}

func TestWriteJSONTimeline(t *testing.T) {
	tr := NewTracer(256)
	tr.Record(instant(KindRestart, "query", -1, -1))
	var buf jsonBuffer
	if err := WriteJSON(&buf, tr); err != nil {
		t.Fatal(err)
	}
	var tl Timeline
	if err := json.Unmarshal(buf.b, &tl); err != nil {
		t.Fatal(err)
	}
	if len(tl.Spans) != 1 || tl.Spans[0].Kind != KindRestart {
		t.Errorf("timeline = %+v", tl)
	}
}

type jsonBuffer struct{ b []byte }

func (j *jsonBuffer) Write(p []byte) (int, error) {
	j.b = append(j.b, p...)
	return len(p), nil
}
