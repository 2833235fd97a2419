package analysis_test

import (
	"path/filepath"
	"runtime"
	"testing"

	"ftpde/internal/lint/analysis"
)

const demo = "ftpde/internal/lint/analysis/testdata/src/summarydemo"

// loadDemo loads the multi-package summary fixture tree and computes
// summaries across all of it, exercising the cross-package (export-data)
// lookup path that the real ftlint run depends on.
func loadDemo(t *testing.T) *analysis.Summaries {
	t.Helper()
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		t.Fatal("cannot locate test file")
	}
	dir := filepath.Join(filepath.Dir(file), "testdata", "src", "summarydemo")
	pkgs, err := analysis.Load(dir, "./...")
	if err != nil {
		t.Fatalf("loading summarydemo fixtures: %v", err)
	}
	return analysis.ComputeSummaries(pkgs)
}

func mustSummary(t *testing.T, s *analysis.Summaries, id analysis.FuncID) *analysis.FuncSummary {
	t.Helper()
	sum := s.ByID(id)
	if sum == nil {
		t.Fatalf("no summary for %s", id)
	}
	return sum
}

func TestOwnershipEffectsAcrossCallLevels(t *testing.T) {
	s := loadDemo(t)
	for _, id := range []analysis.FuncID{
		demo + "/own.ReleaseIt",
		demo + "/own.ReleaseDeep",
		demo + "/own.ReleaseDeeper", // two helper levels
	} {
		sum := mustSummary(t, s, id)
		if sum.ParamEffect(1)&analysis.EffReleases == 0 {
			t.Errorf("%s: want EffReleases on param 1, got %v", id, sum.ParamEffect(1))
		}
	}
	fwd := mustSummary(t, s, demo+"/own.Forward")
	if fwd.ParamEffect(1)&analysis.EffTransfers == 0 {
		t.Errorf("Forward: want EffTransfers on param 1, got %v", fwd.ParamEffect(1))
	}
	stash := mustSummary(t, s, demo+"/own.Stash")
	if stash.ParamEffect(0)&analysis.EffTransfers == 0 {
		t.Errorf("Stash: want EffTransfers on param 0, got %v", stash.ParamEffect(0))
	}
}

func TestOwnedResultsThroughHelpersAndHeuristics(t *testing.T) {
	s := loadDemo(t)
	for _, id := range []analysis.FuncID{
		demo + "/own.Acquire",      // method on arena type
		demo + "/own.AcquireDeep",  // through a helper's summary
		demo + "/own.AcquireSlice", // *Local-argument heuristic
	} {
		sum := mustSummary(t, s, id)
		if len(sum.OwnedResults) != 1 || !sum.OwnedResults[0] {
			t.Errorf("%s: want OwnedResults[0]=true, got %v", id, sum.OwnedResults)
		}
	}
}

func TestGenericCalleesResolveToOrigin(t *testing.T) {
	s := loadDemo(t)
	for _, id := range []analysis.FuncID{
		demo + "/own.ReleaseViaGeneric",         // inferred type arguments
		demo + "/own.ReleaseViaGenericExplicit", // explicit f[T](...) syntax
	} {
		sum := mustSummary(t, s, id)
		if sum.ParamEffect(1)&analysis.EffReleases == 0 {
			t.Errorf("%s: release through generic helper not propagated", id)
		}
	}
}

func TestSCCFixedPoint(t *testing.T) {
	s := loadDemo(t)
	for _, id := range []analysis.FuncID{
		demo + "/rec.PingRelease",
		demo + "/rec.PongRelease", // effect only via the cycle
		demo + "/rec.SelfRelease", // one-node SCC with self-loop
	} {
		sum := mustSummary(t, s, id)
		if sum.ParamEffect(1)&analysis.EffReleases == 0 {
			t.Errorf("%s: release effect did not converge through SCC", id)
		}
	}
}

func TestMapOrderTaint(t *testing.T) {
	s := loadDemo(t)
	keys := mustSummary(t, s, demo+"/ordered.Keys")
	if len(keys.OrderedResults) != 1 || !keys.OrderedResults[0] {
		t.Errorf("Keys: want OrderedResults[0]=true, got %v", keys.OrderedResults)
	}
	deep := mustSummary(t, s, demo+"/ordered.KeysDeep")
	if !deep.OrderedResults[0] {
		t.Error("KeysDeep: ordered result through callee not propagated")
	}
	sorted := mustSummary(t, s, demo+"/ordered.SortedKeys")
	if sorted.OrderedResults[0] {
		t.Error("SortedKeys: sort.Strings should kill map-order taint")
	}
	if dump := mustSummary(t, s, demo+"/ordered.DumpKeys"); len(dump.OrderSinks) == 0 {
		t.Error("DumpKeys: ordered data reaching Fprintln not recorded as OrderSink")
	}
	if dump := mustSummary(t, s, demo+"/ordered.DumpSorted"); len(dump.OrderSinks) != 0 {
		t.Errorf("DumpSorted: unexpected OrderSinks %v", dump.OrderSinks)
	}
	if dump := mustSummary(t, s, demo+"/ordered.DumpInline"); len(dump.OrderSinks) == 0 {
		t.Error("DumpInline: in-loop emit of iteration vars not recorded as OrderSink")
	}
}

func TestNondeterminismTaintClosure(t *testing.T) {
	s := loadDemo(t)
	if sum := mustSummary(t, s, demo+"/ordered.Stamp"); len(sum.TimeSites) == 0 {
		t.Error("Stamp: direct time.Now call not recorded")
	}
	tainted := s.Tainted(
		func(id analysis.FuncID, _ *analysis.FuncSummary) bool { return id == "time.Now" },
		func(analysis.FuncID, *analysis.FuncSummary) bool { return true },
	)
	if !tainted[demo+"/ordered.Stamp"] {
		t.Error("Stamp not tainted by its direct time.Now call")
	}
	if !tainted[demo+"/ordered.StampDeep"] {
		t.Error("StampDeep not tainted through helper")
	}
	if tainted[demo+"/ordered.Keys"] {
		t.Error("Keys spuriously tainted by time.Now")
	}
	reach := s.ForwardReachable([]analysis.FuncID{demo + "/ordered.StampDeep"})
	if !reach[demo+"/ordered.Stamp"] {
		t.Error("ForwardReachable missed Stamp from StampDeep")
	}
}
