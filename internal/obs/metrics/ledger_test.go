package metrics

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestLedgerAttributionTotals(t *testing.T) {
	var l Ledger
	l.Fail("join", 1)
	l.Attribute(CauseRecompute, "join", 1, 200*time.Millisecond)
	l.Fail("agg", 2)
	l.Attribute(CauseRecompute, "agg", 2, 300*time.Millisecond)
	l.Attribute(CauseCheckpointStall, "join", -1, 50*time.Millisecond)

	s := l.Snapshot()
	if s.Failures != 2 {
		t.Errorf("failures = %d, want 2", s.Failures)
	}
	if got := l.Seconds(CauseRecompute); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("recompute seconds = %g, want 0.5", got)
	}
	if got := s.WastedSeconds(); math.Abs(got-0.55) > 1e-9 {
		t.Errorf("wasted = %g, want 0.55", got)
	}
	if s.Unresolved != 0 {
		t.Errorf("unresolved = %d, want 0", s.Unresolved)
	}
	for _, tot := range s.Totals {
		if tot.Events <= 0 {
			t.Errorf("cause %s has %d events", tot.Cause, tot.Events)
		}
	}
	if !strings.Contains(s.String(), "recompute") {
		t.Errorf("String() missing cause breakdown: %s", s.String())
	}
}

// unpaired checks the ledger pairing invariant entry by entry: every failure
// entry must be followed (in sequence order) by a resolving attribution. It
// returns the sequence numbers of unpaired failures, empty when the ledger is
// consistent, and is exact only while the entry log has not overflowed.
func unpaired(s LedgerSnapshot) []int64 {
	var open []int64
	for _, e := range s.Entries {
		switch {
		case e.Kind == "failure":
			open = append(open, e.Seq)
		case e.Kind == "waste" && e.Cause.resolving():
			open = open[:0]
		}
	}
	return open
}

// TestLedgerPairingInvariant is the CI-side pairing check: every failure entry
// must eventually be settled by a resolving attribution (recompute or
// restart); stalls and MTTR waits resolve nothing.
func TestLedgerPairingInvariant(t *testing.T) {
	var l Ledger
	l.Fail("scan", 0)
	l.Attribute(CauseCheckpointStall, "scan", 0, time.Millisecond)
	l.Attribute(CauseMTTRWait, "scan", 0, time.Millisecond)
	s := l.Snapshot()
	if s.Unresolved != 1 {
		t.Fatalf("non-resolving causes settled the failure: unresolved = %d", s.Unresolved)
	}
	if open := unpaired(s); len(open) != 1 {
		t.Fatalf("unpaired = %v, want one open failure", open)
	}

	// One resolving window settles every outstanding failure before it:
	// recoveries are serialized, so the window answers all of them.
	l.Fail("scan", 1)
	l.Attribute(CauseRecompute, "scan", 1, time.Millisecond)
	s = l.Snapshot()
	if s.Unresolved != 0 {
		t.Errorf("unresolved = %d after resolving attribution, want 0", s.Unresolved)
	}
	if open := unpaired(s); len(open) != 0 {
		t.Errorf("unpaired = %v, want empty", open)
	}
}

func TestLedgerNegativeClampsToZero(t *testing.T) {
	var l Ledger
	l.AttributeSeconds(CauseRecompute, "x", 0, -5)
	if got := l.Seconds(CauseRecompute); got != 0 {
		t.Errorf("negative attribution booked %g seconds", got)
	}
}

func TestLedgerNilIsNoop(t *testing.T) {
	var l *Ledger
	l.Fail("x", 0)
	l.Attribute(CauseRestart, "x", 0, time.Second)
	l.AttributeSeconds(CauseRecompute, "x", 0, 1)
	if f, u := l.counts(); f != 0 || u != 0 || l.Seconds(CauseRestart) != 0 {
		t.Error("nil ledger accumulated state")
	}
	if s := l.Snapshot(); s.Failures != 0 || len(s.Entries) != 0 {
		t.Errorf("nil ledger snapshot = %+v", s)
	}
}

func TestLedgerEntryCapKeepsTotalsExact(t *testing.T) {
	var l Ledger
	for i := 0; i < maxLedgerEntries+100; i++ {
		l.AttributeSeconds(CauseRecompute, "x", 0, 0.001)
	}
	s := l.Snapshot()
	if s.DroppedEntries != 100 {
		t.Errorf("dropped = %d, want 100", s.DroppedEntries)
	}
	if len(s.Entries) != maxLedgerEntries {
		t.Errorf("entries = %d, want cap %d", len(s.Entries), maxLedgerEntries)
	}
	if got, want := l.Seconds(CauseRecompute), float64(maxLedgerEntries+100)*0.001; math.Abs(got-want) > 1e-6 {
		t.Errorf("totals drifted past the entry cap: %g, want %g", got, want)
	}
}

// TestLedgerConcurrentAttribution runs simultaneous failure/attribution
// streams against Snapshot readers — the race-detector coverage for the
// ledger's single-mutex design.
func TestLedgerConcurrentAttribution(t *testing.T) {
	var l Ledger
	const workers = 8
	const perWorker = 500
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				l.Fail("op", w)
				l.AttributeSeconds(CauseRecompute, "op", w, 0.001)
			}
		}(w)
	}
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = l.Snapshot().WastedSeconds()
				_, _ = l.counts()
			}
		}
	}()
	wg.Wait()
	close(stop)
	readers.Wait()
	s := l.Snapshot()
	if s.Failures != workers*perWorker {
		t.Errorf("failures = %d, want %d", s.Failures, workers*perWorker)
	}
	if want := float64(workers*perWorker) * 0.001; math.Abs(l.Seconds(CauseRecompute)-want) > 1e-6 {
		t.Errorf("recompute = %g, want %g", l.Seconds(CauseRecompute), want)
	}
	if s.Unresolved != 0 {
		t.Errorf("unresolved = %d after all attributions", s.Unresolved)
	}
}

func TestRegisterLedgerFamilies(t *testing.T) {
	var l Ledger
	r := NewRegistry()
	RegisterLedger(r, &l)
	l.Fail("join", 0)
	l.Attribute(CauseRestart, "join", 0, 2*time.Second)

	snap := r.Snapshot()
	sec := familyOf(snap, "ftpde_wasted_seconds_total")
	if sec == nil {
		t.Fatal("ftpde_wasted_seconds_total not registered")
	}
	if got := series(sec, string(CauseRestart)); got == nil || got.Value != 2 {
		t.Errorf("restart seconds series = %+v", got)
	}
	if got := series(familyOf(snap, "ftpde_ledger_failures_total")); got == nil || got.Value != 1 {
		t.Errorf("failures series = %+v", got)
	}
	if got := series(familyOf(snap, "ftpde_ledger_unresolved")); got == nil || got.Value != 0 {
		t.Errorf("unresolved series = %+v", got)
	}
	if got := series(familyOf(snap, "ftpde_wasted_events_total"), string(CauseRestart)); got == nil || got.Value != 1 {
		t.Errorf("events series = %+v", got)
	}
}
