package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// moduleRoot resolves the repo root from go env GOMOD, so the smoke test
// works regardless of the test binary's working directory.
func moduleRoot(t *testing.T) string {
	t.Helper()
	out, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		t.Fatalf("go env GOMOD: %v", err)
	}
	gomod := strings.TrimSpace(string(out))
	if gomod == "" || gomod == os.DevNull {
		t.Fatal("not inside a module")
	}
	return filepath.Dir(gomod)
}

// TestFtlintRepoIsClean is the gate the CI job enforces: the multichecker
// over the whole module must exit 0. A regression that reintroduces a
// discarded checkpoint error or an exact float comparison in the cost model
// fails this test.
func TestFtlintRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the whole module; skipped in -short")
	}
	cmd := exec.Command("go", "run", "./cmd/ftlint", "./...")
	cmd.Dir = moduleRoot(t)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go run ./cmd/ftlint ./... failed: %v\n%s", err, out)
	}
	if len(strings.TrimSpace(string(out))) != 0 {
		t.Fatalf("expected no findings, got:\n%s", out)
	}
}

func TestListFlag(t *testing.T) {
	stdout := tempFile(t)
	stderr := tempFile(t)
	if code := run([]string{"-list"}, stdout, stderr); code != 0 {
		t.Fatalf("-list exited %d", code)
	}
	listing := readBack(t, stdout)
	var names []string
	for _, line := range strings.Split(strings.TrimSpace(listing), "\n") {
		names = append(names, strings.Fields(line)[0])
	}
	want := "ckpterr costfloat"
	if got := strings.Join(names, " "); got != want {
		t.Errorf("-list names = %q, want %q:\n%s", got, want, listing)
	}
}

// TestJSONFlag runs the real ckpterr analyzer over its own fixture package
// (which contains deliberate violations) and checks the machine-readable
// output shape plus the exit-code contract: findings still exit 1.
func TestJSONFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks a fixture package; skipped in -short")
	}
	fixture := filepath.Join(moduleRoot(t), "internal", "lint", "ckpterr", "testdata", "src", "ckpt")
	t.Chdir(fixture)
	stdout := tempFile(t)
	stderr := tempFile(t)
	code := run([]string{"-run", "ckpterr", "-json", "."}, stdout, stderr)
	if code != 1 {
		t.Fatalf("-json over fixture exited %d, want 1 (stderr: %s)", code, readBack(t, stderr))
	}
	var findings []struct {
		File     string `json:"file"`
		Line     int    `json:"line"`
		Col      int    `json:"col"`
		Analyzer string `json:"analyzer"`
		Message  string `json:"message"`
	}
	if err := json.Unmarshal([]byte(readBack(t, stdout)), &findings); err != nil {
		t.Fatalf("output is not a JSON array: %v\n%s", err, readBack(t, stdout))
	}
	if len(findings) == 0 {
		t.Fatal("expected findings from the ckpterr fixture, got none")
	}
	for _, f := range findings {
		if f.File == "" || f.Line <= 0 || f.Col <= 0 || f.Analyzer != "ckpterr" || f.Message == "" {
			t.Errorf("malformed finding: %+v", f)
		}
	}
}

// TestUnknownAnalyzerExitsUsage also covers retired analyzers: their names
// are usage errors now, not silently empty runs.
func TestUnknownAnalyzerExitsUsage(t *testing.T) {
	for _, name := range []string{"nosuch", "chanproto", "ctxleak", "arenaown"} {
		stdout := tempFile(t)
		stderr := tempFile(t)
		if code := run([]string{"-run", name}, stdout, stderr); code != 2 {
			t.Fatalf("-run %s exited %d, want 2", name, code)
		}
		if msg := readBack(t, stderr); !strings.Contains(msg, "unknown analyzer") {
			t.Errorf("-run %s: stderr missing diagnosis: %q", name, msg)
		}
	}
}

func tempFile(t *testing.T) *os.File {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "out")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

func readBack(t *testing.T, f *os.File) string {
	t.Helper()
	data, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}
