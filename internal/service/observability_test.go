package service

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"ftpde/internal/engine"
	"ftpde/internal/obs"
)

const aggQuery = "SELECT l_returnflag, COUNT(*) FROM lineitem GROUP BY l_returnflag"

// TestForensicsBundleOnRecoveryExhaustion pins the failure forensics path: a
// query whose coarse restarts exhaust must leave a replayable bundle on the
// ring, with the terminal reason, the progress snapshot at death and the
// span timeline frozen inside.
func TestForensicsBundleOnRecoveryExhaustion(t *testing.T) {
	dir := t.TempDir()
	inj := engine.NewScriptedFailures()
	inj.Add("aggregate", 1, 0)
	inj.Add("aggregate", 1, 1)
	s := newTestServer(t, Config{
		Injector: inj, Coarse: true, MaxRestarts: 1,
		ForensicsDir: dir, ForensicsMax: 4,
	})

	resp, err := s.Submit(context.Background(), Request{Tenant: "victim", Query: aggQuery})
	if err == nil {
		t.Fatalf("expected recovery exhaustion, got %+v", resp)
	}
	if !strings.Contains(err.Error(), "aborted") {
		t.Fatalf("error = %v, want abort", err)
	}

	entries, derr := os.ReadDir(dir)
	if derr != nil {
		t.Fatal(derr)
	}
	if len(entries) != 1 {
		t.Fatalf("forensics ring holds %d files, want 1", len(entries))
	}
	b, err := obs.ReadBundle(filepath.Join(dir, entries[0].Name()))
	if err != nil {
		t.Fatal(err)
	}
	if b.Reason != "recovery_exhausted" {
		t.Errorf("reason = %q, want recovery_exhausted", b.Reason)
	}
	if b.Tenant != "victim" || b.Query != aggQuery {
		t.Errorf("identity lost: tenant=%q query=%q", b.Tenant, b.Query)
	}
	if b.Error == "" || !strings.Contains(b.Error, "aborted") {
		t.Errorf("bundle error = %q", b.Error)
	}
	if len(b.Spans) == 0 {
		t.Error("bundle carries no spans")
	}
	if b.Progress == nil || b.Progress.Failures < 2 || b.Progress.Attempts < 2 {
		t.Errorf("progress at death = %+v", b.Progress)
	}
	if b.Audit == nil {
		t.Error("bundle carries no audit")
	}
	// The rendered replay (what ftsql -replay-bundle prints) must summarize
	// the death without re-executing anything.
	out := b.String()
	for _, want := range []string{"reason=recovery_exhausted", "tenant=victim", "progress at death", "span timeline"} {
		if !strings.Contains(out, want) {
			t.Errorf("replay output missing %q:\n%s", want, out)
		}
	}

	// The shared registry counts the bundle; the dead query sits in the
	// recent ring of /debug/queries with its terminal error.
	bundles := -1.0
	for _, fam := range s.Registry().Snapshot().Families {
		if fam.Name == "ftpde_forensics_bundles_total" && len(fam.Series) == 1 {
			bundles = fam.Series[0].Value
		}
	}
	if bundles != 1 {
		t.Errorf("ftpde_forensics_bundles_total = %g, want 1", bundles)
	}
	snap := queries(t, s)
	if len(snap.Active) != 0 || len(snap.Recent) != 1 || snap.Recent[0].Err == "" {
		t.Errorf("progress registry after death: %+v", snap)
	}
}

// debugQueries is the /debug/queries JSON document.
type debugQueries struct {
	Active []obs.ProgressSnapshot `json:"active"`
	Recent []obs.ProgressSnapshot `json:"recent"`
}

// queries reads /debug/queries off s's progress registry.
func queries(t *testing.T, s *Server) debugQueries {
	t.Helper()
	rec := httptest.NewRecorder()
	s.progress.ServeHTTP(rec, nil)
	var snap debugQueries
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestForensicsRingBoundAcrossQueries: repeated aborts never grow the ring
// past its bound.
func TestForensicsRingBoundAcrossQueries(t *testing.T) {
	dir := t.TempDir()
	// The script is membership-based, so every query's attempts 0 and 1 fail
	// and, with MaxRestarts 1, every query aborts.
	inj := engine.NewScriptedFailures()
	inj.Add("aggregate", 1, 0)
	inj.Add("aggregate", 1, 1)
	s := newTestServer(t, Config{
		Injector: inj, Coarse: true, MaxRestarts: 1,
		ForensicsDir: dir, ForensicsMax: 2,
	})
	for i := 0; i < 4; i++ {
		if _, err := s.Submit(context.Background(), Request{Tenant: "t", Query: aggQuery}); err == nil {
			t.Fatalf("query %d did not abort", i)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("ring holds %d bundles, want 2", len(entries))
	}
}

// TestDebugQueriesConcurrentWithFailures drives multiple tenants through the
// shared pool under hot trace-drawn failure injection while hammering
// /debug/queries and /metrics from other goroutines — the race-detector
// coverage for Progress updates racing snapshots. Results must still match
// the serial baseline, and the drift detector must have ingested every
// successful query.
func TestDebugQueriesConcurrentWithFailures(t *testing.T) {
	want := serialBaseline(t, Config{})
	s := newTestServer(t, Config{Workers: 3, InjectMTBF: 0.02})
	addr, err := s.StartHTTP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	var pollWG sync.WaitGroup
	for i := 0; i < 2; i++ {
		pollWG.Add(1)
		go func() {
			defer pollWG.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				resp, err := http.Get("http://" + addr + "/debug/queries")
				if err != nil {
					continue
				}
				var snap debugQueries
				if derr := json.NewDecoder(resp.Body).Decode(&snap); derr != nil {
					t.Errorf("/debug/queries JSON: %v", derr)
				}
				resp.Body.Close()
				if mresp, err := http.Get("http://" + addr + "/metrics"); err == nil {
					mresp.Body.Close()
				}
			}
		}()
	}

	const rounds = 3
	var wg sync.WaitGroup
	for r := 0; r < rounds; r++ {
		for _, q := range TPCHQueries() {
			wg.Add(1)
			go func(r int, q TPCHQuery) {
				defer wg.Done()
				resp, err := s.Submit(context.Background(), Request{Tenant: q.Name, Query: q.Text})
				if err != nil {
					t.Errorf("%s/%d: %v", q.Name, r, err)
					return
				}
				if len(resp.Rows) != len(want[q.Name].Rows) {
					t.Errorf("%s/%d: %d rows, want %d", q.Name, r, len(resp.Rows), len(want[q.Name].Rows))
				}
			}(r, q)
		}
	}
	wg.Wait()
	close(done)
	pollWG.Wait()

	total := rounds * len(TPCHQueries())
	snap := queries(t, s)
	if len(snap.Active) != 0 {
		t.Errorf("queries still active after completion: %+v", snap.Active)
	}
	if len(snap.Recent) == 0 {
		t.Error("no recent queries tracked")
	}
	if got := s.drift.Snapshot().Queries; got != total {
		t.Errorf("drift detector observed %d queries, want %d", got, total)
	}
}
