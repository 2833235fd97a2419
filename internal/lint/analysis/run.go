package analysis

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// Finding is a resolved diagnostic: analyzer, position and message.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// String renders the finding in the conventional file:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s", f.Pos, f.Analyzer, f.Message)
}

// Run applies every analyzer to every package and returns the surviving
// findings, sorted by position. Diagnostics matched by an
// `//lint:ignore <analyzers> <reason>` comment — on the same line or the
// line immediately above — are dropped; ignore directives without a reason
// are themselves reported as findings so suppressions stay documented.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Finding, error) {
	var findings []Finding
	seen := make(map[string]bool) // dedupe across test-variant overlap
	for _, pkg := range pkgs {
		sup, supFindings := suppressions(pkg)
		findings = append(findings, supFindings...)
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.TypesInfo,
			}
			var runErr error
			pass.Report = func(d Diagnostic) {
				pos := pkg.Fset.Position(d.Pos)
				if sup.matches(a.Name, pos) {
					return
				}
				key := fmt.Sprintf("%s|%s|%s", a.Name, pos, d.Message)
				if seen[key] {
					return
				}
				seen[key] = true
				findings = append(findings, Finding{Analyzer: a.Name, Pos: pos, Message: d.Message})
			}
			if err := a.Run(pass); err != nil {
				runErr = fmt.Errorf("lint: %s on %s: %v", a.Name, pkg.ImportPath, err)
			}
			if runErr != nil {
				return nil, runErr
			}
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return findings, nil
}

// suppressionSet records which (analyzer, file, line) triples are silenced.
type suppressionSet map[string]bool

func (s suppressionSet) matches(analyzer string, pos token.Position) bool {
	return s[fmt.Sprintf("%s|%s|%d", analyzer, pos.Filename, pos.Line)]
}

// suppressions scans a package's comments for `//lint:ignore` directives.
// A directive names one analyzer (or a comma-separated list) and silences its
// diagnostics on the directive's own line and on the following line, matching
// the staticcheck convention this repo's CI already uses.
func suppressions(pkg *Package) (suppressionSet, []Finding) {
	set := make(suppressionSet)
	var findings []Finding
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//lint:ignore ")
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				fields := strings.Fields(text)
				if len(fields) < 2 {
					findings = append(findings, Finding{
						Analyzer: "directive",
						Pos:      pos,
						Message:  "//lint:ignore needs an analyzer name and a reason",
					})
					continue
				}
				for _, name := range strings.Split(fields[0], ",") {
					set[fmt.Sprintf("%s|%s|%d", name, pos.Filename, pos.Line)] = true
					set[fmt.Sprintf("%s|%s|%d", name, pos.Filename, pos.Line+1)] = true
				}
			}
		}
	}
	return set, findings
}
