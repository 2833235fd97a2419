package obs

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ftpde/internal/obs/metrics"
)

func testBundle(id int64) *Bundle {
	return &Bundle{
		ID: id, Tenant: "t1", Query: "SELECT * FROM lineitem",
		Reason: "recovery_exhausted", Error: "aborted after 3 restarts",
		MatConfig: "{join-1}",
		Pred: Prediction{DominantRuntime: 1.5, Ops: []OpPrediction{
			{Name: "{1}", Ops: []string{"scan"}, TR: 1, Runtime: 1.5, Dominant: true},
		}},
		Progress: &ProgressSnapshot{
			Frac: 0.5, Attempts: 3, Failures: 4,
			Stages: []StageSnapshot{{Name: "scan", DoneParts: 2, TotalParts: 4, Rows: 100}},
		},
		Drift:     DriftSnapshot{Queries: 7, Terms: []TermDrift{{Term: "mtbf", Model: 6, Estimate: 2, Flagged: true}}},
		CreatedAt: time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC),
	}
}

func TestBundleWriteReadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, err := NewBundleWriter(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	path, err := w.Write(testBundle(42))
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != "bundle-000001.json" {
		t.Errorf("path = %s", path)
	}
	got, err := ReadBundle(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != 42 || got.Reason != "recovery_exhausted" || got.Tenant != "t1" {
		t.Errorf("round trip lost fields: %+v", got)
	}
	if got.Progress == nil || got.Progress.Stages[0].Name != "scan" {
		t.Errorf("progress lost: %+v", got.Progress)
	}
	if w.count() != 1 {
		t.Errorf("Written = %d", w.count())
	}
}

func TestBundleRingPrunesOldest(t *testing.T) {
	dir := t.TempDir()
	w, err := NewBundleWriter(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 5; i++ {
		if _, err := w.Write(testBundle(i)); err != nil {
			t.Fatal(err)
		}
	}
	entries, _ := os.ReadDir(dir)
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if len(names) != 3 {
		t.Fatalf("ring holds %d bundles, want 3: %v", len(names), names)
	}
	// Oldest pruned: 000003..000005 survive.
	for _, want := range []string{"bundle-000003.json", "bundle-000004.json", "bundle-000005.json"} {
		if _, err := os.Stat(filepath.Join(dir, want)); err != nil {
			t.Errorf("missing %s: %v", want, err)
		}
	}
}

func TestBundleWriterResumesSeqAndGCsTemps(t *testing.T) {
	dir := t.TempDir()
	// A crashed writer left a bundle and a torn temp file behind.
	if err := os.WriteFile(filepath.Join(dir, "bundle-000007.json"), []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(dir, "bundle-tmp-123")
	if err := os.WriteFile(tmp, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	w, err := NewBundleWriter(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Error("temp file not garbage-collected")
	}
	path, err := w.Write(testBundle(1))
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != "bundle-000008.json" {
		t.Errorf("seq did not resume: %s", path)
	}
}

func TestBundleString(t *testing.T) {
	b := testBundle(42)
	b.Spans = []Span{
		{Kind: KindFailure, Name: "scan"},
		{Kind: KindFailure, Name: "scan"},
		{Kind: KindTask, Name: "scan"},
	}
	out := b.String()
	for _, want := range []string{
		"forensics bundle: query 42 tenant=t1 reason=recovery_exhausted",
		"query: SELECT * FROM lineitem",
		"mat config: {join-1}",
		"error: aborted after 3 restarts",
		"progress at death: 50% (3 attempts, 4 failures)",
		"span timeline: 3 spans failure=2 task=1",
		"cost-model drift after 7 queries",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("String() missing %q:\n%s", want, out)
		}
	}
}

// TestReadBundleIgnoresProfilerCapture replays a bundle in the format written
// while a continuous profiler was attached: a "prof" capture and per-group
// cpu_seconds/alloc_bytes in the audit. Forensics rings outlive the binary
// that wrote them, so such a bundle must load and render, without a profiler
// section.
func TestReadBundleIgnoresProfilerCapture(t *testing.T) {
	const old = `{
  "id": 9, "tenant": "victim", "query": "SELECT l_returnflag, COUNT(*) FROM lineitem GROUP BY l_returnflag",
  "reason": "recovery_exhausted", "error": "runtime: query aborted after 1 restarts",
  "mat_config": "{}",
  "pred": {"ops": [{"name": "{1,2}", "ops": ["scan-lineitem", "aggregate"], "tr": 0.2, "tm": 0, "total": 0.2,
    "wasted": 0, "attempts": 0, "runtime": 0.2, "materialize": false, "dominant": true}],
    "dominant_runtime": 0.2, "mttr": 1},
  "audit": {"rows": [{"pred": {"name": "{1,2}", "ops": ["scan-lineitem", "aggregate"], "tr": 0.2, "runtime": 0.2, "dominant": true},
    "obs": {"wall": 4000000, "task_wall": 9000000, "attempts": 2, "failures": 2, "rows": 0,
      "cpu_seconds": 0.008, "alloc_bytes": 65536}, "rel_err": 49}],
    "predicted_runtime": 0.2, "actual_runtime": 5000000, "dominant_rel_err": 49, "failures": 2, "restarts": 2},
  "ledger": {}, "registry": {}, "drift": {"queries": 6, "terms": [{"term": "tp_cpu", "model": 1, "estimate": 1.3}]},
  "prof": {"windows": 3, "samples": 41, "join_frac": 0.95,
    "top_cpu": [{"op": "aggregate", "seconds": 0.03}], "top_alloc": [{"op": "scan-lineitem", "bytes": 4096}],
    "cpu_profile": "H4sIAAAAAAAA/wEAAP//AAAAAAAAAAA=", "heap_profile": "H4sIAAAAAAAA/wEAAP//AAAAAAAAAAA="},
  "created_at": "2026-08-08T12:00:00Z"
}`
	path := filepath.Join(t.TempDir(), "bundle-000001.json")
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	b, err := ReadBundle(path)
	if err != nil {
		t.Fatalf("ReadBundle: %v", err)
	}
	if b.ID != 9 || b.Audit == nil || len(b.Audit.Rows) != 1 || b.Audit.Rows[0].Obs.Failures != 2 {
		t.Fatalf("bundle fields lost: %+v", b)
	}
	out := b.String()
	for _, want := range []string{"forensics bundle: query 9 tenant=victim reason=recovery_exhausted", "scan-lineitem,aggregate", "cost-model drift after 6 queries"} {
		if !strings.Contains(out, want) {
			t.Errorf("String() missing %q:\n%s", want, out)
		}
	}
	for _, gone := range []string{"profiler", "top-CPU", "raw profiles", "profiled cpu"} {
		if strings.Contains(out, gone) {
			t.Errorf("String() renders %q:\n%s", gone, out)
		}
	}
}

func TestNilBundleWriter(t *testing.T) {
	var w *BundleWriter
	if path, err := w.Write(testBundle(1)); err != nil || path != "" {
		t.Errorf("nil writer Write = %q, %v", path, err)
	}
	if w.count() != 0 {
		t.Error("nil writer reports writes")
	}
}

// TestBundleUnsyncableDirFailsTheWrite pins the DiskStore durability
// contract: a bundle whose rename cannot be made durable (here the ring
// directory cannot be opened for fsync) is an error, not a silent success.
func TestBundleUnsyncableDirFailsTheWrite(t *testing.T) {
	if os.Geteuid() == 0 {
		t.Skip("root opens a directory whatever its mode")
	}
	dir := t.TempDir()
	w, err := NewBundleWriter(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Write and search, but no read: the temp file and the rename succeed,
	// opening the directory to fsync it does not.
	if err := os.Chmod(dir, 0o300); err != nil {
		t.Fatal(err)
	}
	defer os.Chmod(dir, 0o755)
	if _, err := w.Write(testBundle(1)); err == nil || !strings.Contains(err.Error(), "sync bundle dir") {
		t.Fatalf("Write into an unsyncable ring = %v, want a sync error", err)
	}
}

func TestRegisterForensicsMetrics(t *testing.T) {
	dir := t.TempDir()
	w, err := NewBundleWriter(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	RegisterForensicsMetrics(reg, w)
	RegisterForensicsMetrics(reg, w) // idempotent
	if _, err := w.Write(testBundle(1)); err != nil {
		t.Fatal(err)
	}
	fam := familyOf(reg.Snapshot(), "ftpde_forensics_bundles_total")
	if fam == nil || len(fam.Series) != 1 || fam.Series[0].Value != 1 {
		t.Errorf("ftpde_forensics_bundles_total = %+v", fam)
	}
}
