package exec

import (
	"math"
	"testing"

	"ftpde/internal/failure"
	"ftpde/internal/obs"
	"ftpde/internal/obs/metrics"
	"ftpde/internal/plan"
	"ftpde/internal/schemes"
)

// booked returns the seconds s booked against cause.
func booked(s metrics.LedgerSnapshot, cause metrics.Cause) float64 {
	for _, t := range s.Totals {
		if t.Cause == cause {
			return t.Seconds
		}
	}
	return 0
}

// reconcileLedger checks the simulator's exactness guarantee: booked
// recompute/restart seconds equal the summed durations of failed-task spans,
// and mttr_wait seconds equal the summed recovery spans. The simulator runs
// on a synthetic clock, so the match is exact up to float rounding.
func reconcileLedger(t *testing.T, res *Result) {
	t.Helper()
	var failedWork, repairs float64
	for _, sp := range res.Spans {
		switch {
		case sp.Kind == obs.KindTask && sp.Err == "node failure":
			failedWork += sp.End.Sub(sp.Start).Seconds()
		case sp.Kind == obs.KindRecovery:
			repairs += sp.End.Sub(sp.Start).Seconds()
		}
	}
	lost := booked(res.Ledger, metrics.CauseRecompute) + booked(res.Ledger, metrics.CauseRestart)
	if math.Abs(lost-failedWork) > 1e-6*(1+failedWork) {
		t.Errorf("lost-work seconds %g do not reconcile with failed task spans %g", lost, failedWork)
	}
	waits := booked(res.Ledger, metrics.CauseMTTRWait)
	if math.Abs(waits-repairs) > 1e-6*(1+repairs) {
		t.Errorf("mttr_wait seconds %g do not reconcile with recovery spans %g", waits, repairs)
	}
	if int(res.Ledger.Failures) != res.Failures {
		t.Errorf("ledger failures = %d, result failures = %d", res.Ledger.Failures, res.Failures)
	}
}

func TestFineGrainedLedgerReconcilesExactly(t *testing.T) {
	p := plan.PaperExample()
	// Two failures on node 0: t=2 during stage {1,2,3}, t=8 during a later
	// stage after recovery shifts the timeline.
	tr := &failure.Trace{PerNode: [][]float64{{2, 8}, {}}}
	res, err := Run(p, opts(2, schemes.FineGrained), tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures == 0 {
		t.Fatal("trace injected no failures")
	}
	reconcileLedger(t, res)
	if res.Ledger.Unresolved != 0 {
		t.Errorf("unresolved failures: %d", res.Ledger.Unresolved)
	}
	// First failure: 2 seconds of stage {1,2,3} work destroyed, then a
	// 1-second (MTTR) repair window.
	if got := booked(res.Ledger, metrics.CauseRecompute); got < 2 {
		t.Errorf("recompute = %g, want >= 2 (first failure alone destroyed 2s)", got)
	}
	if got := booked(res.Ledger, metrics.CauseRestart); got != 0 {
		t.Errorf("fine-grained run booked restart seconds: %g", got)
	}
}

func TestCoarseLedgerReconcilesExactly(t *testing.T) {
	p := plan.PaperExample()
	// Failures at t=2 and t=11: the first aborts the initial attempt (2s
	// lost), the second interrupts the rerun that started at t=3 one second
	// before it would have finished (makespan 9).
	tr := &failure.Trace{PerNode: [][]float64{{2, 11}, {}}}
	res, err := Run(p, opts(2, schemes.CoarseRestart), tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Restarts != 2 {
		t.Fatalf("restarts = %d, want 2", res.Restarts)
	}
	reconcileLedger(t, res)
	// 2s lost at the first failure + 8s lost at the second (restart at t=3,
	// killed at t=11).
	if got := booked(res.Ledger, metrics.CauseRestart); math.Abs(got-10) > 1e-9 {
		t.Errorf("restart seconds = %g, want 10", got)
	}
	if got := booked(res.Ledger, metrics.CauseRecompute); got != 0 {
		t.Errorf("coarse run booked recompute seconds: %g", got)
	}
	if res.Ledger.Unresolved != 0 {
		t.Errorf("unresolved failures: %d", res.Ledger.Unresolved)
	}
}

func TestCoarseAbortLedgerStillReconciles(t *testing.T) {
	p := plan.PaperExample()
	// Failures every second on node 0 for long enough that a MaxRestarts=2
	// run must abort (makespan 9 never fits between failures).
	times := make([]float64, 100)
	for i := range times {
		times[i] = float64(i + 1)
	}
	o := opts(2, schemes.CoarseRestart)
	o.MaxRestarts = 2
	res, err := Run(p, o, &failure.Trace{PerNode: [][]float64{times, {}}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Aborted {
		t.Fatal("run did not abort")
	}
	reconcileLedger(t, res)
	// The abort path books the final failed attempt but no repair window
	// after it: waste accounting must not overstate the timeline.
	if res.Ledger.WastedSeconds() > res.Runtime+float64(res.Restarts)*o.Cluster.MTTR {
		t.Errorf("wasted %g exceeds what the timeline allows", res.Ledger.WastedSeconds())
	}
}

func TestCleanRunHasEmptyLedger(t *testing.T) {
	p := plan.PaperExample()
	for _, rec := range []schemes.Recovery{schemes.FineGrained, schemes.CoarseRestart} {
		res, err := Run(p, opts(2, rec), emptyTrace(2))
		if err != nil {
			t.Fatal(err)
		}
		if res.Ledger.Failures != 0 || res.Ledger.WastedSeconds() != 0 {
			t.Errorf("recovery=%d: clean run booked waste: %s", rec, res.Ledger.String())
		}
	}
}
