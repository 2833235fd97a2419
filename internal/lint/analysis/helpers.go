package analysis

import (
	"go/ast"
	"go/types"
)

// WithStack walks every file of the pass, invoking fn with each node and the
// stack of its ancestors (outermost first, not including the node itself).
// Returning false prunes the subtree.
func (p *Pass) WithStack(fn func(n ast.Node, stack []ast.Node) bool) {
	for _, f := range p.Files {
		var stack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			if !fn(n, stack) {
				return false // pruned: Inspect skips children and the pop call
			}
			stack = append(stack, n)
			return true
		})
	}
}

// CalleeFunc resolves a call expression to the function or method object it
// statically invokes, or nil for dynamic calls (function values, interface
// methods resolve to the interface method object). Generic calls resolve to
// their origin function.
func (p *Pass) CalleeFunc(call *ast.CallExpr) *types.Func {
	return CalleeOf(p.TypesInfo, call)
}

// CalleeOf resolves a call expression to the function or method object it
// statically invokes, or nil for dynamic calls. It sees through parentheses
// and the explicit type-argument syntax of generic calls (f[T](x)), and
// normalizes instantiated methods to their origin.
func CalleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	// Generic instantiation: f[T] or f[T1, T2].
	switch ix := fun.(type) {
	case *ast.IndexExpr:
		fun = ast.Unparen(ix.X)
	case *ast.IndexListExpr:
		fun = ast.Unparen(ix.X)
	}
	switch fn := fun.(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fn].(*types.Func); ok {
			return f.Origin()
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fn]; ok {
			if f, ok := sel.Obj().(*types.Func); ok {
				return f.Origin()
			}
		}
		if f, ok := info.Uses[fn.Sel].(*types.Func); ok {
			return f.Origin()
		}
	}
	return nil
}

// NamedTypeName returns the name of the (possibly pointer-wrapped) named type
// of t, or "" when t is not a named type. It is the structural hook the
// analyzers use so fixtures can declare their own Store types.
func NamedTypeName(t types.Type) string {
	if t == nil {
		return ""
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// ErrorResultIndexes returns the positions of error-typed results in the
// callee's signature (empty when the call has none).
func ErrorResultIndexes(sig *types.Signature) []int {
	var out []int
	res := sig.Results()
	for i := 0; i < res.Len(); i++ {
		if isErrorType(res.At(i).Type()) {
			out = append(out, i)
		}
	}
	return out
}

func isErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}
