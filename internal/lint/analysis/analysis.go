// Package analysis is a self-contained, stdlib-only re-implementation of the
// core of golang.org/x/tools/go/analysis, sized for this repository's custom
// lint suite (cmd/ftlint). It exists because the module deliberately has no
// external dependencies: analyzers are written against the same Analyzer /
// Pass / Diagnostic shape as the upstream framework, so they can be ported to
// the real go/analysis verbatim if the module ever grows a tools dependency.
//
// The package provides three layers:
//
//   - the analyzer contract (this file): Analyzer, Pass, Diagnostic;
//   - a package loader (load.go) that shells out to `go list -export` and
//     type-checks target packages from source with dependency types read
//     from the toolchain's export data — no network, no GOPATH assumptions;
//   - a runner (run.go) that applies analyzers to loaded packages and
//     filters diagnostics through `//lint:ignore` suppression directives.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one static check. It mirrors the upstream
// go/analysis.Analyzer contract: Run inspects a single package via the Pass
// and reports diagnostics through it.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in `//lint:ignore`
	// directives. It must be a valid Go identifier.
	Name string
	// Doc is the help text: first line is a one-sentence summary.
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass) error
}

// Pass carries one package's syntax and type information to an analyzer,
// exactly like the upstream go/analysis.Pass.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Report delivers one diagnostic. Analyzers usually call Reportf.
	Report func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding, positioned inside the analyzed package.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}
