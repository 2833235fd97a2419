// Package analysistest runs a lint analyzer over fixture packages under a
// testdata directory and checks its diagnostics against `// want "regexp"`
// comments, following the convention of golang.org/x/tools/go/analysis/
// analysistest so fixtures port unchanged if the suite ever moves to the
// upstream framework.
//
// Fixture layout: testdata/src/<pkg>/... — each fixture is a compilable Go
// package inside this module (go list builds it with export data like any
// other package; `./...` patterns skip testdata, so fixtures never leak into
// regular builds or vet runs). A line may carry several want expectations:
//
//	s.Put(k, v) // want `error .* discarded` `second finding`
//
// Suppression directives are honored exactly as in real runs, so fixtures
// can also assert that `//lint:ignore` works.
package analysistest

import (
	"fmt"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"

	"ftpde/internal/lint/analysis"
)

// TestData returns the caller's testdata directory.
func TestData() string {
	_, file, _, ok := runtime.Caller(1)
	if !ok {
		panic("analysistest: cannot locate caller")
	}
	return filepath.Join(filepath.Dir(file), "testdata")
}

// Run loads every fixture package named by pkgs (paths relative to
// testdata/src) and reports mismatches between the analyzer's findings and
// the fixtures' want comments.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, pkgs ...string) {
	t.Helper()
	for _, rel := range pkgs {
		loaded, err := analysis.Load(filepath.Join(testdata, "src", rel), ".")
		if err != nil {
			t.Fatalf("loading fixture %s: %v", rel, err)
		}
		findings, err := analysis.Run(loaded, []*analysis.Analyzer{a})
		if err != nil {
			t.Fatalf("running %s on %s: %v", a.Name, rel, err)
		}
		checkWants(t, loaded, findings)
	}
}

// wantKey identifies one source line.
type wantKey struct {
	file string
	line int
}

// checkWants matches findings against want comments line by line.
func checkWants(t *testing.T, pkgs []*analysis.Package, findings []analysis.Finding) {
	t.Helper()
	wants := make(map[wantKey][]*regexp.Regexp)
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					pos := pkg.Fset.Position(c.Pos())
					exprs, err := parseWant(c.Text)
					if err != nil {
						t.Errorf("%s: %v", pos, err)
						continue
					}
					key := wantKey{pos.Filename, pos.Line}
					wants[key] = append(wants[key], exprs...)
				}
			}
		}
	}
	matched := make(map[*regexp.Regexp]bool)
	for _, f := range findings {
		key := wantKey{f.Pos.Filename, f.Pos.Line}
		ok := false
		for _, re := range wants[key] {
			if !matched[re] && re.MatchString(f.Message) {
				matched[re] = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("unexpected finding: %v", f)
		}
	}
	for key, res := range wants {
		for _, re := range res {
			if !matched[re] {
				t.Errorf("%s:%d: no finding matched want %q", key.file, key.line, re)
			}
		}
	}
}

// parseWant extracts the quoted regexps of a `// want` expectation ("" or “
// quoting), returning nil when the comment carries none. The marker may
// appear mid-comment so that directive lines (e.g. //lint:ignore) can hold
// expectations about themselves.
func parseWant(comment string) ([]*regexp.Regexp, error) {
	i := strings.Index(comment, "// want ")
	if i < 0 {
		return nil, nil
	}
	text := comment[i+len("// want "):]
	var out []*regexp.Regexp
	rest := strings.TrimSpace(text)
	for rest != "" {
		if len(rest) < 2 || (rest[0] != '"' && rest[0] != '`') {
			return nil, fmt.Errorf("malformed want pattern %q", rest)
		}
		q := rest[0]
		end := strings.IndexByte(rest[1:], q)
		if end < 0 {
			return nil, fmt.Errorf("unterminated want pattern %q", rest)
		}
		re, err := regexp.Compile(rest[1 : 1+end])
		if err != nil {
			return nil, err
		}
		out = append(out, re)
		rest = strings.TrimSpace(rest[2+end:])
	}
	return out, nil
}
