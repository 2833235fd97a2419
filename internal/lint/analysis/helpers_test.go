package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

// TestGenericCalleesResolveToOrigin: a call of a generic function, with
// inferred or explicit type arguments, and a call of a generic type's method
// resolve to the declared function, not to an instantiation.
func TestGenericCalleesResolveToOrigin(t *testing.T) {
	const src = `package p

func release[T any](x T) {}

type box[T any] struct{ v T }

func (b *box[T]) drop() {}

func use(b *box[int]) {
	release(1)
	release[string]("s")
	(release[int])(2)
	b.drop()
}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Defs:       map[*ast.Ident]types.Object{},
	}
	pkg, err := new(types.Config).Check("p", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]*types.Func{
		"release": pkg.Scope().Lookup("release").(*types.Func),
		"drop":    pkg.Scope().Lookup("box").Type().(*types.Named).Method(0),
	}
	calls := 0
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		calls++
		got := CalleeOf(info, call)
		if got == nil || got != want[got.Name()] {
			t.Errorf("%s: callee %v, want the declared origin", fset.Position(call.Pos()), got)
		}
		return true
	})
	if calls != 4 {
		t.Fatalf("found %d calls, want 4", calls)
	}
}
