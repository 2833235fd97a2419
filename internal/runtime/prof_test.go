package runtime

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"ftpde/internal/engine"
	"ftpde/internal/obs/prof"
	"ftpde/internal/tpch"
)

// TestProfLabelsConcurrentMultiTenant asserts the satellite contract: labels
// survive every goroutine handoff in the pipelined runtime, so during a
// concurrent multi-tenant run every sampled stack that executes engine or
// runtime code carries a query label. Run under -race in CI, it also
// exercises the sampler's rotation against live execution.
func TestProfLabelsConcurrentMultiTenant(t *testing.T) {
	cat, err := tpch.Generate(eqSF, eqNodes, eqSeed)
	if err != nil {
		t.Fatal(err)
	}
	q := func() engine.Operator {
		op, err := tpch.EngineQ1(cat, 2500)
		if err != nil {
			t.Fatal(err)
		}
		return op
	}

	dir := t.TempDir()
	s, err := prof.New(prof.Config{Dir: dir, Window: 150 * time.Millisecond, MaxFiles: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatalf("sampler start: %v", err)
	}

	deadline := time.Now().Add(1200 * time.Millisecond)
	var wg sync.WaitGroup
	for _, tc := range []struct{ query, tenant string }{
		{"qA", "tenant-a"}, {"qB", "tenant-b"},
	} {
		wg.Add(1)
		go func(query, tenant string) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				r, err := New(Config{
					Nodes:      eqNodes,
					BatchSize:  64,
					ProfLabels: prof.Labels{Query: query, Tenant: tenant},
				})
				if err != nil {
					t.Error(err)
					return
				}
				if _, _, err := r.Execute(context.Background(), q()); err != nil {
					t.Error(err)
					return
				}
			}
		}(tc.query, tc.tenant)
	}
	wg.Wait()
	s.Stop()

	names, err := filepath.Glob(filepath.Join(dir, "cpu-*.pb.gz"))
	if err != nil || len(names) == 0 {
		t.Fatalf("no cpu windows written: %v %v", names, err)
	}
	var ftpdeSamples, labeled int
	for _, name := range names {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		p, err := prof.Parse(data)
		if err != nil {
			t.Fatalf("window %s does not parse: %v", name, err)
		}
		for i := range p.Samples {
			sm := &p.Samples[i]
			// Whatever the submitting goroutine does before Execute has applied
			// the labels — plan and runtime construction, the loop itself — is
			// setup, not operator work.
			ours, submitting, inLabeled := false, false, false
			for _, fn := range p.StackFuncs(sm) {
				switch {
				case strings.Contains(fn, "TestProfLabelsConcurrentMultiTenant"):
					submitting = true
				case fn == "ftpde/internal/runtime.(*Runtime).executeLabeled":
					inLabeled = true
				}
				if strings.HasPrefix(fn, "ftpde/internal/engine") ||
					strings.HasPrefix(fn, "ftpde/internal/runtime") {
					ours = true
				}
			}
			if submitting && !inLabeled {
				continue
			}
			if !ours {
				continue
			}
			ftpdeSamples++
			switch sm.Labels[prof.LabelQuery] {
			case "qA":
				if sm.Labels[prof.LabelTenant] != "tenant-a" {
					t.Errorf("qA sample lost its tenant label: %v", sm.Labels)
				}
				labeled++
			case "qB":
				if sm.Labels[prof.LabelTenant] != "tenant-b" {
					t.Errorf("qB sample lost its tenant label: %v", sm.Labels)
				}
				labeled++
			default:
				t.Errorf("engine/runtime stack sampled without a query label: labels=%v stack=%v",
					sm.Labels, p.StackFuncs(sm))
			}
		}
	}
	if ftpdeSamples == 0 {
		t.Skip("no engine/runtime CPU samples landed; machine too contended to assert")
	}
	if labeled != ftpdeSamples {
		t.Fatalf("%d of %d engine/runtime samples carried a query label", labeled, ftpdeSamples)
	}
	if s.Attr().Stats().JoinFrac() < 0.5 {
		t.Errorf("join fraction %.2f unexpectedly low under pure engine load", s.Attr().Stats().JoinFrac())
	}
}

// TestTPCHProfiledEquivalence re-runs the oracle-vs-runtime equivalence bar
// with the continuous profiler attached: labeling and window rotation must
// not perturb results under scripted failures.
func TestTPCHProfiledEquivalence(t *testing.T) {
	cat, err := tpch.Generate(eqSF, eqNodes, eqSeed)
	if err != nil {
		t.Fatal(err)
	}
	build := tpchQueries()["q1"]
	want := oracleRows(t, cat, build, nil)
	if len(want) == 0 {
		t.Fatal("oracle produced no rows")
	}

	s, err := prof.New(prof.Config{Window: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatalf("sampler start: %v", err)
	}
	defer s.Stop()

	got, rep := pipelinedRows(t, cat, build, Config{
		Nodes:      eqNodes,
		BatchSize:  7,
		Injector:   engine.NewScriptedFailures().Add("q1-agg", 0, 0),
		ProfLabels: prof.Labels{Query: "pipelined", Tenant: "cli"},
	})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("result under profiling differs from the oracle (%d vs %d rows)", len(got), len(want))
	}
	if rep.Failures != 1 {
		t.Fatalf("pipelined failures = %d, want 1", rep.Failures)
	}
}
