// Package lint is the registry of this repo's custom analyzers. The ftlint
// multichecker and the analyzer tests both draw from Analyzers, so the CLI
// and the test suite can never drift apart.
package lint

import (
	"ftpde/internal/lint/analysis"
	"ftpde/internal/lint/ckpterr"
	"ftpde/internal/lint/costfloat"
)

// Analyzers lists every analyzer ftlint runs, in report order.
var Analyzers = []*analysis.Analyzer{
	ckpterr.Analyzer,
	costfloat.Analyzer,
}

// ByName returns the named analyzer, or nil.
func ByName(name string) *analysis.Analyzer {
	for _, a := range Analyzers {
		if a.Name == name {
			return a
		}
	}
	return nil
}
