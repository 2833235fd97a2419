package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"ftpde/internal/obs/metrics"
)

// Bundle is a failure forensics capture: everything needed to diagnose one
// query that exhausted recovery or was rejected mid-flight, frozen at the
// moment of death. `ftsql -replay-bundle <path>` pretty-prints one.
type Bundle struct {
	// ID is the server-assigned query ID (matches Span.Query tags).
	ID int64 `json:"id"`
	// Tenant and Query identify what was running.
	Tenant string `json:"tenant,omitempty"`
	Query  string `json:"query"`
	// Reason classifies the death: "recovery_exhausted", "exec_error",
	// "rejected", ... Error carries the terminal error text.
	Reason string `json:"reason"`
	Error  string `json:"error,omitempty"`
	// MatConfig is the materialization choice the optimizer made.
	MatConfig string `json:"mat_config,omitempty"`
	// Pred is the plan-time cost forecast; Audit joins it against the spans
	// observed before death.
	Pred  Prediction   `json:"pred"`
	Audit *AuditReport `json:"audit,omitempty"`
	// Spans is the query's span slice (partial: the query died mid-flight).
	Spans []Span `json:"spans,omitempty"`
	// Progress is the live-progress snapshot at death.
	Progress *ProgressSnapshot `json:"progress,omitempty"`
	// Ledger is the wasted-work attribution for the query's metrics.
	Ledger metrics.LedgerSnapshot `json:"ledger"`
	// Registry is the per-query metrics snapshot.
	Registry metrics.RegistrySnapshot `json:"registry"`
	// Drift is the server's online drift state when the query died.
	Drift DriftSnapshot `json:"drift"`
	// CreatedAt stamps the capture.
	CreatedAt time.Time `json:"created_at"`
}

// String renders the bundle as the forensics report -replay-bundle prints.
func (b *Bundle) String() string {
	var sb strings.Builder
	w := func(format string, args ...any) { fmt.Fprintf(&sb, format, args...) }
	w("forensics bundle: query %d", b.ID)
	if b.Tenant != "" {
		w(" tenant=%s", b.Tenant)
	}
	w(" reason=%s\n", b.Reason)
	if !b.CreatedAt.IsZero() {
		w("captured: %s\n", b.CreatedAt.Format(time.RFC3339Nano))
	}
	w("query: %s\n", b.Query)
	if b.MatConfig != "" {
		w("mat config: %s\n", b.MatConfig)
	}
	if b.Error != "" {
		w("error: %s\n", b.Error)
	}
	if b.Progress != nil {
		w("\nprogress at death: %.0f%% (%d attempts, %d failures)\n",
			b.Progress.Frac*100, b.Progress.Attempts, b.Progress.Failures)
		for _, st := range b.Progress.Stages {
			w("  %-24s %4d/%-4d parts %10d rows %10d ckpt B\n",
				st.Name, st.DoneParts, st.TotalParts, st.Rows, st.CheckpointBytes)
		}
	}
	if b.Audit != nil {
		w("\n%s", b.Audit.String())
	}
	if len(b.Spans) > 0 {
		w("\nspan timeline: %d spans", len(b.Spans))
		counts := map[Kind]int{}
		for _, sp := range b.Spans {
			counts[sp.Kind]++
		}
		kinds := make([]string, 0, len(counts))
		for k := range counts {
			kinds = append(kinds, string(k))
		}
		sort.Strings(kinds)
		for _, k := range kinds {
			w(" %s=%d", k, counts[Kind(k)])
		}
		w("\n")
	}
	if b.Ledger.Failures > 0 || b.Ledger.WastedSeconds() > 0 {
		w("\n%s\n", b.Ledger.String())
	}
	if b.Drift.Queries > 0 {
		w("\n%s", b.Drift.String())
	}
	return sb.String()
}

// BundleWriter persists forensics bundles to a bounded on-disk ring. Writes
// follow the DiskStore.Put crash-safety protocol — temp file, write, fsync,
// rename, directory fsync — so a half-written bundle can never be observed,
// and the oldest bundles are pruned once the ring exceeds its bound.
type BundleWriter struct {
	dir string
	max int

	mu      sync.Mutex
	seq     int64
	written int64
}

// NewBundleWriter opens (creating if needed) a bundle ring in dir keeping at
// most max bundles (max <= 0 defaults to 32). Leftover temp files from a
// crashed writer are garbage-collected; numbering resumes after the newest
// existing bundle.
func NewBundleWriter(dir string, max int) (*BundleWriter, error) {
	if max <= 0 {
		max = 32
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("obs: forensics dir: %w", err)
	}
	w := &BundleWriter{dir: dir, max: max}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("obs: forensics dir: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if strings.HasPrefix(name, "bundle-tmp-") {
			os.Remove(filepath.Join(dir, name))
			continue
		}
		var seq int64
		if _, err := fmt.Sscanf(name, "bundle-%d.json", &seq); err == nil && seq > w.seq {
			w.seq = seq
		}
	}
	return w, nil
}

// Write persists one bundle and returns its path, pruning the oldest bundles
// past the ring bound.
func (w *BundleWriter) Write(b *Bundle) (string, error) {
	if w == nil {
		return "", nil
	}
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return "", fmt.Errorf("obs: encode bundle: %w", err)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.seq++
	final := filepath.Join(w.dir, fmt.Sprintf("bundle-%06d.json", w.seq))

	tmp, err := os.CreateTemp(w.dir, "bundle-tmp-*")
	if err != nil {
		return "", fmt.Errorf("obs: write bundle: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return "", fmt.Errorf("obs: write bundle: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return "", fmt.Errorf("obs: sync bundle: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return "", fmt.Errorf("obs: close bundle: %w", err)
	}
	if err := os.Rename(tmpName, final); err != nil {
		os.Remove(tmpName)
		return "", fmt.Errorf("obs: rename bundle: %w", err)
	}
	if err := syncBundleDir(w.dir); err != nil {
		return "", fmt.Errorf("obs: sync bundle dir: %w", err)
	}
	w.written++
	w.pruneLocked()
	return final, nil
}

// count reports how many bundles this writer has persisted.
func (w *BundleWriter) count() int64 {
	if w == nil {
		return 0
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.written
}

// pruneLocked deletes the oldest bundles beyond the ring bound. Bundle names
// are zero-padded, so lexical order is creation order.
func (w *BundleWriter) pruneLocked() {
	entries, err := os.ReadDir(w.dir)
	if err != nil {
		return
	}
	var names []string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "bundle-") && strings.HasSuffix(e.Name(), ".json") {
			names = append(names, e.Name())
		}
	}
	if len(names) <= w.max {
		return
	}
	sort.Strings(names)
	for _, name := range names[:len(names)-w.max] {
		os.Remove(filepath.Join(w.dir, name))
	}
}

// syncBundleDir fsyncs the ring directory so a preceding rename is durable.
// Its contract is the DiskStore's: any error counts, except on Windows,
// which cannot fsync a directory.
func syncBundleDir(dir string) error {
	f, err := os.Open(dir)
	if err == nil {
		err = f.Sync()
		f.Close()
	}
	if runtime.GOOS == "windows" {
		return nil
	}
	return err
}

// ReadBundle loads one bundle from disk.
func ReadBundle(path string) (*Bundle, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("obs: read bundle: %w", err)
	}
	var b Bundle
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("obs: decode bundle %s: %w", path, err)
	}
	return &b, nil
}

// RegisterForensicsMetrics exposes the writer's counter as
// ftpde_forensics_bundles_total. Idempotent like RegisterTraceMetrics.
func RegisterForensicsMetrics(reg *metrics.Registry, w *BundleWriter) {
	_ = reg.RegisterFunc(metrics.Desc{
		Name: "ftpde_forensics_bundles_total", Kind: metrics.KindCounter,
		Help: "Failure forensics bundles written to the on-disk ring.",
	}, func() []metrics.Sample {
		return []metrics.Sample{{Value: float64(w.count())}}
	})
}
