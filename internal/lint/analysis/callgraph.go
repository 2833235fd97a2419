package analysis

import (
	"go/ast"
	"go/types"
	"sort"
)

// FuncID is a stable, load-independent identifier for a function or method:
// "<pkgpath>.<name>" for package functions, "(<recv type>).<name>" for
// methods, with the receiver type spelled with its full package path. Two
// loads of the same module — one from source, one from export data — produce
// the same FuncID for the same function, which is what lets per-function
// summaries computed in one package be consulted from call sites in another.
type FuncID string

// IDOf computes the FuncID of a function object. Generic instantiations are
// normalized to their origin, so f[int] and f[string] share one summary.
func IDOf(f *types.Func) FuncID {
	f = f.Origin()
	if sig, ok := f.Type().(*types.Signature); ok && sig.Recv() != nil {
		return FuncID("(" + types.TypeString(sig.Recv().Type(), nil) + ")." + f.Name())
	}
	if f.Pkg() != nil {
		return FuncID(f.Pkg().Path() + "." + f.Name())
	}
	return FuncID(f.Name())
}

// CallNode is one declared function in the module-local call graph.
type CallNode struct {
	ID   FuncID
	Decl *ast.FuncDecl
	Pkg  *Package
	// Calls lists the statically resolved callees (deduped, first-call
	// order), including functions outside the loaded packages — those have
	// no CallNode and act as opaque leaves.
	Calls []FuncID
}

// CallGraph is the module-local call graph over every function declared in
// the loaded packages. Dynamic calls (function values, interface methods)
// are not resolved; interface method IDs appear as opaque leaves.
type CallGraph struct {
	Nodes map[FuncID]*CallNode
}

// BuildCallGraph constructs the call graph for the loaded packages. Calls
// inside nested function literals are attributed to the enclosing
// declaration: for summary purposes a closure's effects belong to whoever
// builds (and usually runs or launches) it.
func BuildCallGraph(pkgs []*Package) *CallGraph {
	cg := &CallGraph{Nodes: make(map[FuncID]*CallNode)}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, d := range file.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.TypesInfo.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				id := IDOf(obj)
				node := &CallNode{ID: id, Decl: fd, Pkg: pkg}
				seen := make(map[FuncID]bool)
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					if callee := CalleeOf(pkg.TypesInfo, call); callee != nil {
						if cid := IDOf(callee); !seen[cid] {
							seen[cid] = true
							node.Calls = append(node.Calls, cid)
						}
					}
					return true
				})
				cg.Nodes[id] = node
			}
		}
	}
	return cg
}

// SCCs returns the graph's strongly connected components in reverse
// topological order of the condensation: every component is emitted after
// all components it calls into. Summary computation walks this order so
// callee summaries are final (or, inside a cycle, converging) when a caller
// is summarized.
func (cg *CallGraph) SCCs() [][]*CallNode {
	ids := make([]FuncID, 0, len(cg.Nodes))
	for id := range cg.Nodes {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	// Tarjan, iterative to keep deep call chains off the Go stack.
	index := make(map[FuncID]int)
	low := make(map[FuncID]int)
	onStack := make(map[FuncID]bool)
	var stack []FuncID
	var comps [][]*CallNode
	next := 0

	type frame struct {
		id    FuncID
		calls []FuncID
		ci    int
	}
	for _, root := range ids {
		if _, seen := index[root]; seen {
			continue
		}
		frames := []frame{{id: root, calls: cg.Nodes[root].Calls}}
		index[root], low[root] = next, next
		next++
		stack = append(stack, root)
		onStack[root] = true
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			advanced := false
			for f.ci < len(f.calls) {
				c := f.calls[f.ci]
				f.ci++
				if _, inGraph := cg.Nodes[c]; !inGraph {
					continue // opaque leaf: stdlib, interface method, other module
				}
				if _, seen := index[c]; !seen {
					index[c], low[c] = next, next
					next++
					stack = append(stack, c)
					onStack[c] = true
					frames = append(frames, frame{id: c, calls: cg.Nodes[c].Calls})
					advanced = true
					break
				}
				if onStack[c] && low[f.id] > index[c] {
					low[f.id] = index[c]
				}
			}
			if advanced {
				continue
			}
			if low[f.id] == index[f.id] {
				var comp []*CallNode
				for {
					top := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[top] = false
					comp = append(comp, cg.Nodes[top])
					if top == f.id {
						break
					}
				}
				comps = append(comps, comp)
			}
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				parent := &frames[len(frames)-1]
				if low[parent.id] > low[f.id] {
					low[parent.id] = low[f.id]
				}
			}
		}
	}
	return comps
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
