// Package ckpterr implements the ftlint analyzer that keeps checkpoint
// error handling honest: recovery correctness (paper §3–4) depends on every
// checkpoint write and read surfacing its failure, so errors returned by
// Store.Put/Get-style methods and by the column-block encode/decode paths
// must never be discarded.
package ckpterr

import (
	"go/ast"
	"go/types"
	"regexp"
	"strings"

	"ftpde/internal/lint/analysis"
)

// Analyzer flags discarded errors from checkpoint-store and block-codec
// calls.
var Analyzer = &analysis.Analyzer{
	Name: "ckpterr",
	Doc: "checkpoint Store/codec errors must be checked and propagated: " +
		"a silently dropped Put or decode error turns a recoverable failure " +
		"into wrong query results after recovery",
	Run: run,
}

// storeMethods are the checkpoint-store entry points whose errors matter:
// the row-typed ones and the block-typed ones the runtime's writer calls.
var storeMethods = map[string]bool{
	"Put": true, "Get": true, "Delete": true, "Flush": true,
	"PutGroup": true,
}

// codecFunc matches the block/checkpoint serialization helpers.
var codecFunc = regexp.MustCompile(`^(Encode|Decode|encode|decode|Write|write|Read|read).*(Block|block|Checkpoint|checkpoint|Rows)`)

func run(pass *analysis.Pass) error {
	pass.WithStack(func(n ast.Node, stack []ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := pass.CalleeFunc(call)
		if callee == nil || !isCheckpointAPI(callee) {
			return true
		}
		sig, ok := callee.Type().(*types.Signature)
		if !ok {
			return true
		}
		errIdxs := analysis.ErrorResultIndexes(sig)
		if len(errIdxs) == 0 {
			return true
		}
		switch parent := stack[len(stack)-1].(type) {
		case *ast.ExprStmt:
			pass.Reportf(call.Pos(), "error returned by %s is silently discarded; check and propagate it (checkpoint correctness)", callee.Name())
		case *ast.GoStmt, *ast.DeferStmt:
			pass.Reportf(call.Pos(), "error returned by %s is unobservable in a go/defer statement; call it synchronously and check the error", callee.Name())
		case *ast.AssignStmt:
			// Only the form lhs... = call(...) can discard results by
			// position; multi-RHS assignments never contain multi-result
			// calls.
			if len(parent.Rhs) != 1 || parent.Rhs[0] != n {
				return true
			}
			if sig.Results().Len() != len(parent.Lhs) {
				return true
			}
			for _, i := range errIdxs {
				if ident, ok := parent.Lhs[i].(*ast.Ident); ok && ident.Name == "_" {
					pass.Reportf(call.Pos(), "error returned by %s is discarded with _; check and propagate it (checkpoint correctness)", callee.Name())
				}
			}
		}
		return true
	})
	return nil
}

// isCheckpointAPI reports whether f is part of the checkpoint surface: a
// Put/Get-style method on a *Store type — or on a *Sink, the consumer-side
// interface the runtime's writer holds its store by — or a block/checkpoint
// codec function. Matching is structural (type and function names), so fixtures
// and future stores are covered without importing the engine package.
func isCheckpointAPI(f *types.Func) bool {
	sig, ok := f.Type().(*types.Signature)
	if !ok {
		return false
	}
	if recv := sig.Recv(); recv != nil {
		name := analysis.NamedTypeName(recv.Type())
		return storeMethods[f.Name()] && (strings.Contains(name, "Store") || strings.HasSuffix(name, "Sink"))
	}
	return codecFunc.MatchString(f.Name())
}
