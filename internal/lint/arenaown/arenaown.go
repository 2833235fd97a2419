// Package arenaown implements the ftlint analyzer that machine-checks the
// arena ownership discipline (DESIGN.md §7): every arena-acquired Batch or
// Vector must be released exactly once or have its ownership transferred
// (channel send, return, escape into a longer-lived structure). It detects
// double-release, release-after-transfer, transfer-after-release, and
// owned values leaking on early return paths — and because call effects come
// from interprocedural summaries, it sees releases and sends that happen
// inside helper functions, across package boundaries, and through generic
// instantiations.
package arenaown

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"ftpde/internal/lint/analysis"
)

// Analyzer enforces release-exactly-once-or-transfer for arena-owned values.
var Analyzer = &analysis.Analyzer{
	Name: "arenaown",
	Doc: "arena-acquired Batch/Vector values must be released exactly once " +
		"or ownership-transferred; double releases corrupt the freelist, " +
		"releases after a send race the consumer, and values dropped on " +
		"early returns defeat buffer recycling",
	Run: run,
}

// scopes are the package-path fragments where arena values live.
var scopes = []string{"internal/engine", "internal/runtime"}

func run(pass *analysis.Pass) error {
	inScope := false
	for _, s := range scopes {
		if strings.Contains(pass.Pkg.Path(), s) {
			inScope = true
			break
		}
	}
	if !inScope {
		return nil
	}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			a := &walker{pass: pass}
			st := make(state)
			terminated := a.block(fd.Body.List, st)
			if !terminated {
				a.leakCheck(fd.Body.Rbrace, st)
			}
		}
	}
	return nil
}

// status is the ownership state of one tracked local variable.
type status int

const (
	owned    status = iota // acquired here, still ours
	released               // buffers returned to the arena
	sent                   // ownership moved: channel send, return, escape
)

// varState tracks one arena-owned local.
type varState struct {
	status   status
	deferred bool // a deferred release is pending at function exit
	name     string
}

func (v *varState) clone() *varState { c := *v; return &c }

// state maps tracked variables to their ownership state. Variables leave the
// map when the analysis loses precision about them (aliasing, closure
// capture, conflicting branch states): unknown variables are never reported.
type state map[types.Object]*varState

func (st state) clone() state {
	c := make(state, len(st))
	for k, v := range st {
		c[k] = v.clone()
	}
	return c
}

// mergeInto replaces dst with the join of the branch exit states: variables
// whose states agree keep them; disagreements become unknown.
func mergeInto(dst state, outs ...state) {
	if len(outs) == 0 {
		return
	}
	first := outs[0]
	for obj := range dst {
		delete(dst, obj)
		_ = obj
	}
	for obj, v := range first {
		agree := true
		for _, o := range outs[1:] {
			w := o[obj]
			if w == nil || w.status != v.status || w.deferred != v.deferred {
				agree = false
				break
			}
		}
		if agree {
			dst[obj] = v.clone()
		}
	}
}

type walker struct {
	pass *analysis.Pass
}

// block executes a statement list, returning whether control definitely
// leaves the enclosing flow (return, or break/continue/goto).
func (a *walker) block(stmts []ast.Stmt, st state) bool {
	for _, s := range stmts {
		if a.stmt(s, st) {
			return true
		}
	}
	return false
}

func (a *walker) stmt(s ast.Stmt, st state) bool {
	switch s := s.(type) {
	case *ast.AssignStmt:
		a.assign(s, st)
	case *ast.DeclStmt:
		a.declStmt(s, st)
	case *ast.ExprStmt:
		a.expr(s.X, st)
	case *ast.IncDecStmt:
		a.expr(s.X, st)
	case *ast.SendStmt:
		a.sendStmt(s, st)
	case *ast.ReturnStmt:
		a.returnStmt(s, st)
		return true
	case *ast.BranchStmt:
		return true
	case *ast.IfStmt:
		return a.ifStmt(s, st)
	case *ast.ForStmt:
		a.forStmt(s, st)
	case *ast.RangeStmt:
		a.rangeStmt(s, st)
	case *ast.SwitchStmt:
		a.switchStmt(s, st)
	case *ast.TypeSwitchStmt:
		a.typeSwitchStmt(s, st)
	case *ast.SelectStmt:
		a.selectStmt(s, st)
	case *ast.BlockStmt:
		return a.block(s.List, st)
	case *ast.LabeledStmt:
		return a.stmt(s.Stmt, st)
	case *ast.DeferStmt:
		a.deferStmt(s, st)
	case *ast.GoStmt:
		a.goStmt(s, st)
	}
	return false
}

func (a *walker) ifStmt(s *ast.IfStmt, st state) bool {
	if s.Init != nil {
		a.stmt(s.Init, st)
	}
	a.expr(s.Cond, st)
	thenSt := st.clone()
	thenTerm := a.block(s.Body.List, thenSt)
	elseSt := st.clone()
	elseTerm := false
	if s.Else != nil {
		elseTerm = a.stmt(s.Else, elseSt)
	}
	switch {
	case thenTerm && elseTerm:
		return true
	case thenTerm:
		mergeInto(st, elseSt)
	case elseTerm:
		mergeInto(st, thenSt)
	default:
		mergeInto(st, thenSt, elseSt)
	}
	return false
}

func (a *walker) forStmt(s *ast.ForStmt, st state) {
	if s.Init != nil {
		a.stmt(s.Init, st)
	}
	a.expr(s.Cond, st)
	bodySt := st.clone()
	a.block(s.Body.List, bodySt)
	if s.Post != nil {
		a.stmt(s.Post, bodySt)
	}
	// Zero iterations is possible: join the body exit with the entry state.
	mergeInto(st, st.clone(), bodySt)
}

func (a *walker) rangeStmt(s *ast.RangeStmt, st state) {
	a.expr(s.X, st)
	bodySt := st.clone()
	a.block(s.Body.List, bodySt)
	mergeInto(st, st.clone(), bodySt)
}

func (a *walker) switchStmt(s *ast.SwitchStmt, st state) {
	if s.Init != nil {
		a.stmt(s.Init, st)
	}
	a.expr(s.Tag, st)
	var outs []state
	hasDefault := false
	for _, c := range s.Body.List {
		cc, ok := c.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			hasDefault = true
		}
		for _, e := range cc.List {
			a.expr(e, st)
		}
		caseSt := st.clone()
		if !a.block(cc.Body, caseSt) {
			outs = append(outs, caseSt)
		}
	}
	if !hasDefault {
		outs = append(outs, st.clone())
	}
	mergeInto(st, outs...)
}

func (a *walker) typeSwitchStmt(s *ast.TypeSwitchStmt, st state) {
	if s.Init != nil {
		a.stmt(s.Init, st)
	}
	var outs []state
	hasDefault := false
	for _, c := range s.Body.List {
		cc, ok := c.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			hasDefault = true
		}
		caseSt := st.clone()
		if !a.block(cc.Body, caseSt) {
			outs = append(outs, caseSt)
		}
	}
	if !hasDefault {
		outs = append(outs, st.clone())
	}
	mergeInto(st, outs...)
}

func (a *walker) selectStmt(s *ast.SelectStmt, st state) {
	var outs []state
	for _, c := range s.Body.List {
		cc, ok := c.(*ast.CommClause)
		if !ok {
			continue
		}
		caseSt := st.clone()
		if cc.Comm != nil {
			a.stmt(cc.Comm, caseSt)
		}
		if !a.block(cc.Body, caseSt) {
			outs = append(outs, caseSt)
		}
	}
	mergeInto(st, outs...)
}

func (a *walker) declStmt(s *ast.DeclStmt, st state) {
	gd, ok := s.Decl.(*ast.GenDecl)
	if !ok {
		return
	}
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		for i, name := range vs.Names {
			if i >= len(vs.Values) {
				break
			}
			a.expr(vs.Values[i], st)
			a.bindIdent(name, vs.Values[i], st)
		}
	}
}

func (a *walker) assign(s *ast.AssignStmt, st state) {
	// Tuple assignment from one call: per-result ownership.
	if len(s.Rhs) == 1 && len(s.Lhs) > 1 {
		a.expr(s.Rhs[0], st)
		if call, ok := ast.Unparen(s.Rhs[0]).(*ast.CallExpr); ok {
			ownedRes := a.pass.Summaries.OwnedCallResults(a.pass.TypesInfo, call)
			for i, lhs := range s.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				obj := a.objOf(id)
				if obj == nil {
					continue
				}
				if i < len(ownedRes) && ownedRes[i] {
					st[obj] = &varState{status: owned, name: id.Name}
				} else {
					delete(st, obj)
				}
			}
		}
		return
	}
	if len(s.Lhs) != len(s.Rhs) {
		return
	}
	for i, lhs := range s.Lhs {
		rhs := s.Rhs[i]
		a.expr(rhs, st)
		if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
			if id.Name == "_" {
				continue
			}
			a.bindIdent(id, rhs, st)
			continue
		}
		// Storing an owned value into a field, slice or map transfers it.
		if obj := a.identObj(rhs); obj != nil {
			a.transfer(obj, rhs.Pos(), st)
		}
	}
}

// bindIdent applies the assignment `id = rhs` to the tracking state.
func (a *walker) bindIdent(id *ast.Ident, rhs ast.Expr, st state) {
	obj := a.objOf(id)
	if obj == nil {
		return
	}
	if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok && a.pass.Summaries.OwnedCall(a.pass.TypesInfo, call) {
		st[obj] = &varState{status: owned, name: id.Name}
		return
	}
	// Aliasing (`b2 := b`) defeats exactly-once reasoning: stop tracking
	// both names rather than risk double counting one release.
	if rhsObj := a.identObj(rhs); rhsObj != nil && st[rhsObj] != nil {
		delete(st, rhsObj)
		delete(st, obj)
		return
	}
	delete(st, obj) // re-pointed at something else: unknown
}

func (a *walker) sendStmt(s *ast.SendStmt, st state) {
	a.expr(s.Chan, st)
	a.expr(s.Value, st)
	if obj := a.identObj(s.Value); obj != nil {
		a.transfer(obj, s.Pos(), st)
	}
}

func (a *walker) returnStmt(s *ast.ReturnStmt, st state) {
	for _, res := range s.Results {
		a.expr(res, st)
		if obj := a.identObj(res); obj != nil {
			a.transfer(obj, res.Pos(), st)
		}
	}
	a.leakCheck(s.Pos(), st)
}

func (a *walker) deferStmt(s *ast.DeferStmt, st state) {
	if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
		a.invalidateCaptured(lit, st)
		return
	}
	recvEff, argEffs := a.pass.Summaries.CallOwnEffects(a.pass.TypesInfo, s.Call)
	applyDeferred := func(obj types.Object, eff analysis.OwnEffect, pos token.Pos) {
		if obj == nil || eff&analysis.EffReleases == 0 {
			return
		}
		vs := st[obj]
		if vs == nil {
			return
		}
		switch {
		case vs.deferred:
			a.pass.Reportf(pos, "%s already has a deferred release pending: deferred release here runs twice", vs.name)
		case vs.status == released:
			a.pass.Reportf(pos, "%s was already released: the deferred release will release it twice", vs.name)
		}
		vs.deferred = true
	}
	if sel, ok := ast.Unparen(s.Call.Fun).(*ast.SelectorExpr); ok {
		applyDeferred(a.identObj(sel.X), recvEff, s.Pos())
	}
	for i, arg := range s.Call.Args {
		if i < len(argEffs) {
			applyDeferred(a.identObj(arg), argEffs[i], s.Pos())
		}
	}
}

func (a *walker) goStmt(s *ast.GoStmt, st state) {
	if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
		// The goroutine takes over captured owned values.
		for _, obj := range a.capturedTracked(lit, st) {
			a.transfer(obj, s.Pos(), st)
		}
		for _, arg := range s.Call.Args {
			if obj := a.identObj(arg); obj != nil {
				a.transfer(obj, s.Pos(), st)
			}
		}
		return
	}
	for _, arg := range s.Call.Args {
		if obj := a.identObj(arg); obj != nil {
			a.transfer(obj, s.Pos(), st)
		}
	}
}

// expr scans an expression for ownership events: calls with release or
// transfer effects, escapes into composite literals, closures capturing
// tracked values.
func (a *walker) expr(e ast.Expr, st state) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			a.invalidateCaptured(n, st)
			return false
		case *ast.CallExpr:
			a.call(n, st)
		case *ast.CompositeLit:
			for _, elt := range n.Elts {
				v := elt
				if kv, ok := v.(*ast.KeyValueExpr); ok {
					v = kv.Value
				}
				if obj := a.identObj(v); obj != nil {
					a.transfer(obj, v.Pos(), st)
				}
			}
		}
		return true
	})
}

func (a *walker) call(call *ast.CallExpr, st state) {
	// append(dst, b): the slice takes the value.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "append" && len(call.Args) > 1 {
		for _, arg := range call.Args[1:] {
			if obj := a.identObj(arg); obj != nil {
				a.transfer(obj, arg.Pos(), st)
			}
		}
		return
	}
	recvEff, argEffs := a.pass.Summaries.CallOwnEffects(a.pass.TypesInfo, call)
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && recvEff.Consumes() {
		a.applyEffect(a.identObj(sel.X), recvEff, call.Pos(), st)
	}
	for i, arg := range call.Args {
		if i < len(argEffs) && argEffs[i].Consumes() {
			a.applyEffect(a.identObj(arg), argEffs[i], arg.Pos(), st)
		}
	}
}

func (a *walker) applyEffect(obj types.Object, eff analysis.OwnEffect, pos token.Pos, st state) {
	if obj == nil {
		return
	}
	if eff&analysis.EffReleases != 0 {
		a.release(obj, pos, st)
	} else if eff&analysis.EffTransfers != 0 {
		a.transfer(obj, pos, st)
	}
}

func (a *walker) release(obj types.Object, pos token.Pos, st state) {
	vs := st[obj]
	if vs == nil {
		return
	}
	switch vs.status {
	case released:
		a.pass.Reportf(pos, "%s released twice: the arena freelist would hand the same buffers out twice", vs.name)
	case sent:
		a.pass.Reportf(pos, "%s released after its ownership was transferred: the new owner's reads race the recycled buffers", vs.name)
	default:
		if vs.deferred {
			a.pass.Reportf(pos, "%s released here and again by a pending deferred release", vs.name)
		}
	}
	vs.status = released
}

func (a *walker) transfer(obj types.Object, pos token.Pos, st state) {
	vs := st[obj]
	if vs == nil {
		return
	}
	switch vs.status {
	case released:
		a.pass.Reportf(pos, "ownership of %s transferred after it was released: the receiver gets recycled buffers", vs.name)
	case owned:
		if vs.deferred {
			a.pass.Reportf(pos, "%s transferred while a deferred release is pending: the deferred release races the new owner", vs.name)
		}
	}
	vs.status = sent
}

// leakCheck reports arena values still owned at a function exit point.
func (a *walker) leakCheck(pos token.Pos, st state) {
	for _, vs := range st {
		if vs.status == owned && !vs.deferred {
			a.pass.Reportf(pos, "arena-owned %s is neither released nor transferred on this return path: its buffers never return to the arena", vs.name)
		}
	}
}

// capturedTracked returns tracked objects referenced inside a function
// literal's body.
func (a *walker) capturedTracked(lit *ast.FuncLit, st state) []types.Object {
	var out []types.Object
	seen := make(map[types.Object]bool)
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := a.pass.TypesInfo.Uses[id]; obj != nil && st[obj] != nil && !seen[obj] {
				seen[obj] = true
				out = append(out, obj)
			}
		}
		return true
	})
	return out
}

func (a *walker) invalidateCaptured(lit *ast.FuncLit, st state) {
	for _, obj := range a.capturedTracked(lit, st) {
		delete(st, obj)
	}
}

// identObj unwraps a plain identifier expression (possibly &x or parens).
func (a *walker) identObj(e ast.Expr) types.Object {
	e = ast.Unparen(e)
	if un, ok := e.(*ast.UnaryExpr); ok && un.Op == token.AND {
		e = ast.Unparen(un.X)
	}
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	return a.objOf(id)
}

func (a *walker) objOf(id *ast.Ident) types.Object {
	if obj := a.pass.TypesInfo.Uses[id]; obj != nil {
		return obj
	}
	return a.pass.TypesInfo.Defs[id]
}
