package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// OwnEffect is a bitmask describing what a function does with ownership of
// an arena-managed value (Batch/Vector) passed through a parameter or
// receiver. Effects compose: a function may release on one path and
// transfer on another.
type OwnEffect uint8

const (
	// EffReleases: the function returns the value's buffers to the arena
	// (directly via Release/releaseShell or through a callee that does).
	EffReleases OwnEffect = 1 << iota
	// EffTransfers: the function moves ownership elsewhere — sends the value
	// on a channel, stores it into a structure that outlives the call, or
	// returns it to the caller.
	EffTransfers
)

// Consumes reports whether the effect ends the caller's ownership: after the
// call, the caller must neither release nor use the value.
func (e OwnEffect) Consumes() bool { return e != 0 }

func (e OwnEffect) String() string {
	switch {
	case e&EffReleases != 0 && e&EffTransfers != 0:
		return "releases+transfers"
	case e&EffReleases != 0:
		return "releases"
	case e&EffTransfers != 0:
		return "transfers"
	}
	return "none"
}

// OrderSink is one place where map-iteration-ordered data reaches an
// encoding or output call without an intervening sort.
type OrderSink struct {
	Pos  token.Pos
	Sink string // callee name of the encode/write call
}

// FuncSummary captures the externally visible invariant-relevant behavior of
// one function: what it does with ownership of its parameters, whether its
// results are arena-owned or map-iteration-ordered, and which nondeterminism
// sources and span kinds it touches directly. Summaries are computed bottom-up
// over the call graph's strongly connected components, so these facts see
// through same-module helper functions — including mutually recursive ones —
// regardless of package boundaries.
type FuncSummary struct {
	ID   FuncID
	Decl *ast.FuncDecl
	Pkg  *Package

	// Recv and Params carry ownership effects for the receiver and each
	// declared parameter, in signature order.
	Recv   OwnEffect
	Params []OwnEffect

	// OwnedResults[i]: result i is arena-owned storage the caller must
	// release or transfer.
	OwnedResults []bool
	// OrderedResults[i]: result i's element order depends on map iteration
	// order (built in a map range with no intervening sort).
	OrderedResults []bool
	// SinksParams[i]: parameter i flows into an encode/marshal/write call
	// inside the function (possibly through further callees).
	SinksParams []bool
	// OrderSinks: map-iteration-ordered data reaches an output sink inside
	// this function.
	OrderSinks []OrderSink

	// TimeSites / RandSites: direct calls to time.Now/time.Since and
	// math/rand in this function.
	TimeSites []token.Pos
	RandSites []token.Pos

	// SpanKinds: tracer span kinds this function emits directly (constant
	// values of a type named Kind).
	SpanKinds map[string]bool

	// Calls: statically resolved callees, including opaque leaves outside
	// the loaded packages.
	Calls []FuncID
}

// ParamEffect returns the ownership effect for parameter index i (0-based,
// not counting the receiver), or EffNone when out of range.
func (s *FuncSummary) ParamEffect(i int) OwnEffect {
	if s == nil || i < 0 || i >= len(s.Params) {
		return 0
	}
	return s.Params[i]
}

// Summaries is the module-local summary store handed to analyzers through
// Pass.Summaries. Lookups are keyed by FuncID, so a *types.Func loaded from
// export data in one package resolves to the summary computed from source in
// another.
type Summaries struct {
	byID map[FuncID]*FuncSummary
}

// ComputeSummaries builds the call graph over the loaded packages and
// computes every function's summary bottom-up: strongly connected components
// in reverse topological order, iterating each cyclic component to a fixed
// point (effects only grow, so convergence is guaranteed; a generous
// iteration cap guards against surprises).
func ComputeSummaries(pkgs []*Package) *Summaries {
	cg := BuildCallGraph(pkgs)
	s := &Summaries{byID: make(map[FuncID]*FuncSummary, len(cg.Nodes))}
	for _, comp := range cg.SCCs() {
		cyclic := len(comp) > 1 || selfLoop(comp[0])
		for iter := 0; iter < 16; iter++ {
			changed := false
			for _, node := range comp {
				next := summarize(node, s.ByID)
				if prev := s.byID[node.ID]; prev == nil || prev.fingerprint() != next.fingerprint() {
					changed = true
				}
				s.byID[node.ID] = next
			}
			if !changed || !cyclic {
				break
			}
		}
	}
	return s
}

func selfLoop(n *CallNode) bool {
	for _, c := range n.Calls {
		if c == n.ID {
			return true
		}
	}
	return false
}

// ByID returns the summary for id, or nil when the function was not loaded
// from source (stdlib, interface methods, other modules).
func (s *Summaries) ByID(id FuncID) *FuncSummary {
	if s == nil {
		return nil
	}
	return s.byID[id]
}

// Of returns the summary for a resolved function object, or nil.
func (s *Summaries) Of(f *types.Func) *FuncSummary {
	if s == nil || f == nil {
		return nil
	}
	return s.byID[IDOf(f)]
}

// All returns every summary, sorted by FuncID for deterministic iteration.
func (s *Summaries) All() []*FuncSummary {
	out := make([]*FuncSummary, 0, len(s.byID))
	for _, sum := range s.byID {
		out = append(out, sum)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Tainted computes the transitive closure of a boolean property over the
// call graph: a function is tainted when seed holds for it, or when it calls
// a tainted function for which through holds. Both predicates receive a nil
// summary for opaque leaves (functions with no source), so seeds can match
// stdlib calls like time.Now by FuncID alone.
func (s *Summaries) Tainted(seed, through func(FuncID, *FuncSummary) bool) map[FuncID]bool {
	tainted := make(map[FuncID]bool)
	callers := make(map[FuncID][]FuncID)
	var work []FuncID
	mark := func(id FuncID) {
		if !tainted[id] {
			tainted[id] = true
			work = append(work, id)
		}
	}
	seen := make(map[FuncID]bool)
	for id, sum := range s.byID {
		if seed(id, sum) {
			mark(id)
		}
		for _, c := range sum.Calls {
			callers[c] = append(callers[c], id)
			if !seen[c] {
				seen[c] = true
				if s.byID[c] == nil && seed(c, nil) {
					mark(c)
				}
			}
		}
	}
	for len(work) > 0 {
		id := work[len(work)-1]
		work = work[:len(work)-1]
		// Opaque leaves (no summary) always taint their direct callers;
		// summarized functions taint upward only when through allows it.
		if sum := s.byID[id]; sum != nil && !through(id, sum) {
			continue
		}
		for _, caller := range callers[id] {
			mark(caller)
		}
	}
	return tainted
}

// ForwardReachable returns the set of functions reachable from roots through
// statically resolved calls (roots included).
func (s *Summaries) ForwardReachable(roots []FuncID) map[FuncID]bool {
	reach := make(map[FuncID]bool)
	var work []FuncID
	for _, r := range roots {
		if !reach[r] {
			reach[r] = true
			work = append(work, r)
		}
	}
	for len(work) > 0 {
		id := work[len(work)-1]
		work = work[:len(work)-1]
		sum := s.byID[id]
		if sum == nil {
			continue
		}
		for _, c := range sum.Calls {
			if !reach[c] {
				reach[c] = true
				work = append(work, c)
			}
		}
	}
	return reach
}

// fingerprint is a monotone convergence measure: it grows (or stays) as
// effects accumulate across fixed-point iterations and never needs to
// distinguish equal-sized different states, because the transfer function is
// monotone over a finite lattice.
func (s *FuncSummary) fingerprint() uint64 {
	var fp uint64
	for _, e := range s.Params {
		fp += uint64(e)
	}
	fp += uint64(s.Recv) << 8
	count := func(bs []bool) {
		for _, b := range bs {
			if b {
				fp += 1 << 16
			}
		}
	}
	count(s.OwnedResults)
	count(s.OrderedResults)
	count(s.SinksParams)
	fp += uint64(len(s.OrderSinks)) << 24
	fp += uint64(len(s.SpanKinds)) << 32
	return fp
}

// Structural vocabulary shared by the summary engine and the arena
// analyzers: type names are matched structurally so fixture packages can
// declare their own Batch/Vector/Local types.
var (
	// ReleaseMethodNames are the arena ownership sinks.
	ReleaseMethodNames = map[string]bool{"Release": true, "releaseShell": true}
	// ArenaTypeNames are the allocator types whose methods hand out owned
	// storage.
	ArenaTypeNames = map[string]bool{"Local": true, "Arena": true}
	// OwnedTypeNames are the value types whose backing storage the arena
	// recycles.
	OwnedTypeNames = map[string]bool{"Batch": true, "Vector": true}
)

// sinkNameRE matches functions that serialize or emit their arguments:
// map-iteration-ordered data must be sorted before reaching one.
var sinkNameRE = regexp.MustCompile(`^(Encode|encode|Marshal|marshal|Fprint|Print|print|Write|write)`)

// sortKillNames are sort entry points that neutralize map-order taint for
// their first argument (package sort and slices, or a Sort method).
var sortKillNames = map[string]bool{
	"Sort": true, "SortFunc": true, "SortStableFunc": true, "Stable": true,
	"Slice": true, "SliceStable": true, "Strings": true, "Ints": true, "Float64s": true,
}

// OwnedCall reports whether the call's single result is arena-owned storage:
// an acquisition method on an arena type, a call threading a *Local/*Arena
// through to a Batch/Vector result, or a callee whose summary marks the
// result owned. It is the call-site view of the summarizer's acquisition
// detection, exported for the arenaown analyzer.
func (s *Summaries) OwnedCall(info *types.Info, call *ast.CallExpr) bool {
	w := &summarizer{info: info, lookup: s.ByID}
	return w.ownedCall(call)
}

// OwnedCallResults returns the per-result ownership of a call used in a
// tuple assignment, or nil when nothing is known.
func (s *Summaries) OwnedCallResults(info *types.Info, call *ast.CallExpr) []bool {
	callee := CalleeOf(info, call)
	if callee == nil {
		return nil
	}
	if gsum := s.ByID(IDOf(callee)); gsum != nil {
		return gsum.OwnedResults
	}
	return nil
}

// CallOwnEffects returns the ownership effects a call applies to its
// receiver (for method calls) and to each argument: release methods by
// structural name (Release/releaseShell on a Batch/Vector), everything else
// through the callee's summary.
func (s *Summaries) CallOwnEffects(info *types.Info, call *ast.CallExpr) (recv OwnEffect, args []OwnEffect) {
	callee := CalleeOf(info, call)
	var gsum *FuncSummary
	if callee != nil {
		gsum = s.ByID(IDOf(callee))
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if ReleaseMethodNames[sel.Sel.Name] {
			if tv, ok := info.Types[sel.X]; ok && OwnedTypeNames[NamedTypeName(tv.Type)] {
				recv |= EffReleases
			}
		}
		if gsum != nil {
			recv |= gsum.Recv
		}
	}
	args = make([]OwnEffect, len(call.Args))
	if gsum != nil {
		for i := range args {
			if i < len(gsum.Params) {
				args[i] = gsum.Params[i]
			}
		}
	}
	return recv, args
}

// summarize computes one function's summary, consulting lookup for callee
// summaries (which, inside an SCC, may still be converging).
func summarize(node *CallNode, lookup func(FuncID) *FuncSummary) *FuncSummary {
	w := &summarizer{
		pkg:         node.Pkg,
		info:        node.Pkg.TypesInfo,
		lookup:      lookup,
		paramIdx:    make(map[types.Object]int),
		ownedVars:   make(map[types.Object]bool),
		orderedVars: make(map[types.Object]bool),
		iterVars:    make(map[types.Object]bool),
	}
	fd := node.Decl
	sum := &FuncSummary{
		ID:        node.ID,
		Decl:      fd,
		Pkg:       node.Pkg,
		Calls:     node.Calls,
		SpanKinds: make(map[string]bool),
	}
	w.sum = sum

	if fd.Recv != nil {
		for _, field := range fd.Recv.List {
			for _, name := range field.Names {
				if obj := w.info.Defs[name]; obj != nil {
					w.recvObj = obj
				}
			}
		}
	}
	nparams := 0
	if fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			for _, name := range field.Names {
				if obj := w.info.Defs[name]; obj != nil {
					w.paramIdx[obj] = nparams
				}
				nparams++
			}
			if len(field.Names) == 0 {
				nparams++
			}
		}
	}
	sum.Params = make([]OwnEffect, nparams)
	sum.SinksParams = make([]bool, nparams)
	nres := 0
	if fd.Type.Results != nil {
		for _, field := range fd.Type.Results.List {
			n := len(field.Names)
			if n == 0 {
				n = 1
			}
			nres += n
		}
	}
	sum.OwnedResults = make([]bool, nres)
	sum.OrderedResults = make([]bool, nres)

	// One source-order walk: assignments and sort calls update the
	// owned/ordered variable states; effects and sinks are recorded as
	// encountered.
	var stack []ast.Node
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if n == nil {
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if w.isMapRange(top) {
				w.mapRangeDepth--
			}
			if _, ok := top.(*ast.FuncLit); ok {
				w.funcLitDepth--
			}
			return true
		}
		w.visit(n)
		stack = append(stack, n)
		if w.isMapRange(n) {
			w.mapRangeDepth++
		}
		if _, ok := n.(*ast.FuncLit); ok {
			w.funcLitDepth++
		}
		return true
	})
	return sum
}

// summarizer holds the walk state for one function.
type summarizer struct {
	pkg    *Package
	info   *types.Info
	lookup func(FuncID) *FuncSummary
	sum    *FuncSummary

	recvObj  types.Object
	paramIdx map[types.Object]int

	ownedVars   map[types.Object]bool // assigned from an arena acquisition
	orderedVars map[types.Object]bool // accumulated in map-iteration order
	iterVars    map[types.Object]bool // map-range key/value variables

	mapRangeDepth int
	// funcLitDepth > 0 while the walk is inside a nested function literal:
	// its return statements describe the literal's results, not the
	// declaration's, so they must not feed OwnedResults/OrderedResults.
	funcLitDepth int
}

func (w *summarizer) isMapRange(n ast.Node) bool {
	r, ok := n.(*ast.RangeStmt)
	if !ok {
		return false
	}
	tv, ok := w.info.Types[r.X]
	if !ok || tv.Type == nil {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

func (w *summarizer) paramEffect(obj types.Object, eff OwnEffect) {
	if obj == nil {
		return
	}
	if obj == w.recvObj {
		w.sum.Recv |= eff
		return
	}
	if i, ok := w.paramIdx[obj]; ok {
		w.sum.Params[i] |= eff
	}
}

func (w *summarizer) markSinkParam(obj types.Object) {
	if obj == nil {
		return
	}
	if i, ok := w.paramIdx[obj]; ok {
		w.sum.SinksParams[i] = true
	}
}

// argIdentObj unwraps a plain identifier argument (possibly &x or parens) to
// its object; anything deeper (field selections, index expressions) returns
// nil so effects are not over-applied.
func (w *summarizer) argIdentObj(e ast.Expr) types.Object {
	e = ast.Unparen(e)
	if un, ok := e.(*ast.UnaryExpr); ok && un.Op == token.AND {
		e = ast.Unparen(un.X)
	}
	if id, ok := e.(*ast.Ident); ok {
		if obj := w.info.Uses[id]; obj != nil {
			return obj
		}
		return w.info.Defs[id]
	}
	return nil
}

func (w *summarizer) visit(n ast.Node) {
	switch s := n.(type) {
	case *ast.AssignStmt:
		w.visitAssign(s)
	case *ast.SendStmt:
		// Sending a value on a channel hands its ownership to the receiver.
		if obj := w.argIdentObj(s.Value); obj != nil {
			w.paramEffect(obj, EffTransfers)
		}
	case *ast.RangeStmt:
		if w.isMapRange(s) {
			for _, e := range []ast.Expr{s.Key, s.Value} {
				if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
					if obj := w.info.Defs[id]; obj != nil {
						w.iterVars[obj] = true
					}
				}
			}
		}
	case *ast.ReturnStmt:
		w.visitReturn(s)
	case *ast.CompositeLit:
		for _, elt := range s.Elts {
			e := elt
			if kv, ok := e.(*ast.KeyValueExpr); ok {
				e = kv.Value
			}
			if obj := w.argIdentObj(e); obj != nil {
				w.paramEffect(obj, EffTransfers)
			}
		}
	case *ast.CallExpr:
		w.visitCall(s)
	}
}

func (w *summarizer) visitAssign(s *ast.AssignStmt) {
	// Tuple assignment from a single call: map per-result facts.
	if len(s.Rhs) == 1 && len(s.Lhs) > 1 {
		if call, ok := ast.Unparen(s.Rhs[0]).(*ast.CallExpr); ok {
			gsum := w.calleeSummary(call)
			for i, lhs := range s.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				obj := w.identObj(id)
				if obj == nil {
					continue
				}
				if gsum != nil && i < len(gsum.OwnedResults) && gsum.OwnedResults[i] {
					w.ownedVars[obj] = true
				}
				if gsum != nil && i < len(gsum.OrderedResults) && gsum.OrderedResults[i] {
					w.orderedVars[obj] = true
				}
			}
			return
		}
	}
	if len(s.Lhs) != len(s.Rhs) {
		return
	}
	for i, lhs := range s.Lhs {
		rhs := s.Rhs[i]
		// Escape: storing a parameter into a structure or slice.
		if _, isIdent := ast.Unparen(lhs).(*ast.Ident); !isIdent {
			if obj := w.argIdentObj(rhs); obj != nil {
				w.paramEffect(obj, EffTransfers)
			}
		}
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		obj := w.identObj(id)
		if obj == nil {
			continue
		}
		// Accumulation in map-iteration order: `s += <iter-derived>`.
		if s.Tok == token.ADD_ASSIGN && w.mapRangeDepth > 0 && w.usesTrackedVars(rhs) {
			w.orderedVars[obj] = true
			continue
		}
		// Strong updates in source order: a variable re-pointed at fresh
		// storage stops being owned/ordered.
		if w.ownedExpr(rhs) {
			w.ownedVars[obj] = true
		} else if s.Tok == token.ASSIGN || s.Tok == token.DEFINE {
			delete(w.ownedVars, obj)
		}
		if w.orderedExpr(rhs) {
			w.orderedVars[obj] = true
		} else if s.Tok == token.ASSIGN || s.Tok == token.DEFINE {
			delete(w.orderedVars, obj)
		}
	}
}

func (w *summarizer) visitReturn(s *ast.ReturnStmt) {
	for i, res := range s.Results {
		if obj := w.argIdentObj(res); obj != nil {
			w.paramEffect(obj, EffTransfers)
		}
		// Returns inside nested function literals yield the literal's
		// results — attributing them to the declaration would make every
		// closure factory look like an arena acquisition.
		if w.funcLitDepth > 0 || i >= len(w.sum.OwnedResults) {
			continue
		}
		if w.ownedExpr(res) {
			w.sum.OwnedResults[i] = true
		}
		if w.orderedExpr(res) {
			w.sum.OrderedResults[i] = true
		}
	}
}

func (w *summarizer) visitCall(call *ast.CallExpr) {
	// The append builtin: appended values escape into the slice.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "append" {
		if len(call.Args) > 0 {
			for _, arg := range call.Args[1:] {
				if obj := w.argIdentObj(arg); obj != nil {
					w.paramEffect(obj, EffTransfers)
				}
			}
		}
		return
	}

	callee := CalleeOf(w.info, call)
	gsum := w.calleeSummary(call)

	// Nondeterminism sources.
	if callee != nil && callee.Pkg() != nil {
		switch path := callee.Pkg().Path(); {
		case path == "time" && (callee.Name() == "Now" || callee.Name() == "Since"):
			w.sum.TimeSites = append(w.sum.TimeSites, call.Pos())
		case path == "math/rand" || path == "math/rand/v2":
			w.sum.RandSites = append(w.sum.RandSites, call.Pos())
		}
	}

	// Span vocabulary: constant Kind-typed arguments.
	for _, arg := range call.Args {
		tv, ok := w.info.Types[arg]
		if !ok || NamedTypeName(tv.Type) != "Kind" {
			continue
		}
		if tv.Value != nil && tv.Value.Kind() == constant.String {
			w.sum.SpanKinds[constant.StringVal(tv.Value)] = true
		}
	}

	// Sort calls neutralize map-order taint for their first argument.
	if w.isSortCall(call, callee) {
		for _, arg := range call.Args {
			if obj := w.rootObj(arg); obj != nil {
				delete(w.orderedVars, obj)
			}
		}
		// Method form: x.Sort() — clear the receiver.
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if obj := w.rootObj(sel.X); obj != nil {
				delete(w.orderedVars, obj)
			}
		}
		return
	}

	// Release methods consume the receiver by name even when the callee has
	// no summary (cross-run or export-data-only loads).
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && ReleaseMethodNames[sel.Sel.Name] {
		if obj := w.argIdentObj(sel.X); obj != nil {
			w.paramEffect(obj, EffReleases)
		}
	}
	// Methods with summarized receiver effects.
	if gsum != nil && gsum.Recv.Consumes() {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if obj := w.argIdentObj(sel.X); obj != nil {
				w.paramEffect(obj, gsum.Recv)
			}
		}
	}

	// Per-argument facts: ownership effects and sink flow.
	isSink := callee != nil && sinkNameRE.MatchString(callee.Name())
	orderReported := false
	for ai, arg := range call.Args {
		obj := w.argIdentObj(arg)
		if gsum != nil && ai < len(gsum.Params) {
			if eff := gsum.Params[ai]; eff.Consumes() && obj != nil {
				w.paramEffect(obj, eff)
			}
		}
		sinkArg := isSink || (gsum != nil && ai < len(gsum.SinksParams) && gsum.SinksParams[ai])
		if sinkArg {
			w.markSinkParam(obj)
			// Ordered data reaching a sink: either a tracked ordered
			// variable, or iteration-derived data emitted inside the loop.
			// One OrderSink per call, however many arguments carry taint.
			if !orderReported &&
				((obj != nil && w.orderedVars[obj]) ||
					(w.mapRangeDepth > 0 && w.usesTrackedVars(arg)) ||
					w.orderedExpr(arg)) {
				orderReported = true
				name := "sink"
				if callee != nil {
					name = callee.Name()
				}
				w.sum.OrderSinks = append(w.sum.OrderSinks, OrderSink{Pos: call.Pos(), Sink: name})
			}
		}
	}
}

// calleeSummary resolves the call's static callee to its (possibly still
// converging) summary.
func (w *summarizer) calleeSummary(call *ast.CallExpr) *FuncSummary {
	callee := CalleeOf(w.info, call)
	if callee == nil {
		return nil
	}
	return w.lookup(IDOf(callee))
}

// ownedExpr reports whether e produces arena-owned storage: an acquisition
// call (a method on an arena type, or any call that both returns a
// Batch/Vector and is passed a *Local), a call whose summary marks its
// single result owned, or a variable already holding owned storage.
func (w *summarizer) ownedExpr(e ast.Expr) bool {
	e = ast.Unparen(e)
	switch x := e.(type) {
	case *ast.Ident:
		obj := w.identObj(x)
		return obj != nil && w.ownedVars[obj]
	case *ast.CallExpr:
		return w.ownedCall(x)
	}
	return false
}

func (w *summarizer) ownedCall(call *ast.CallExpr) bool {
	callee := CalleeOf(w.info, call)
	if callee == nil {
		return false
	}
	if gsum := w.lookup(IDOf(callee)); gsum != nil {
		if len(gsum.OwnedResults) == 1 && gsum.OwnedResults[0] {
			return true
		}
	}
	sig, ok := callee.Type().(*types.Signature)
	if !ok || sig.Results().Len() != 1 {
		return false
	}
	if !OwnedTypeNames[NamedTypeName(sig.Results().At(0).Type())] {
		return false
	}
	// Receiver on an arena type?
	if recv := sig.Recv(); recv != nil && ArenaTypeNames[NamedTypeName(recv.Type())] {
		return true
	}
	// A *Local/*Arena argument threading through (SliceLocal, gatherVector).
	for i := 0; i < sig.Params().Len(); i++ {
		if ArenaTypeNames[NamedTypeName(sig.Params().At(i).Type())] {
			return true
		}
	}
	return false
}

// orderedExpr reports whether e carries map-iteration-ordered content.
func (w *summarizer) orderedExpr(e ast.Expr) bool {
	e = ast.Unparen(e)
	switch x := e.(type) {
	case *ast.Ident:
		obj := w.identObj(x)
		return obj != nil && w.orderedVars[obj]
	case *ast.CallExpr:
		if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok && id.Name == "append" && len(x.Args) > 0 {
			if w.mapRangeDepth > 0 && w.appendAddsTracked(x) {
				return true
			}
			return w.orderedExpr(x.Args[0])
		}
		if gsum := w.calleeSummary(x); gsum != nil {
			if len(gsum.OrderedResults) == 1 && gsum.OrderedResults[0] {
				return true
			}
		}
	}
	return false
}

// appendAddsTracked reports whether an append inside a map range appends
// iteration-derived or already-ordered data.
func (w *summarizer) appendAddsTracked(call *ast.CallExpr) bool {
	for _, arg := range call.Args[1:] {
		if w.usesTrackedVars(arg) {
			return true
		}
	}
	return false
}

// usesTrackedVars reports whether the expression mentions a map-iteration
// variable or an ordered variable anywhere inside it.
func (w *summarizer) usesTrackedVars(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		if id, ok := n.(*ast.Ident); ok {
			if obj := w.identObj(id); obj != nil && (w.iterVars[obj] || w.orderedVars[obj]) {
				found = true
			}
		}
		return !found
	})
	return found
}

func (w *summarizer) isSortCall(call *ast.CallExpr, callee *types.Func) bool {
	if callee == nil {
		return false
	}
	if callee.Pkg() != nil {
		path := callee.Pkg().Path()
		if (path == "sort" || path == "slices") && sortKillNames[callee.Name()] {
			return true
		}
	}
	// A method named Sort on anything (sort.Interface implementations).
	if sig, ok := callee.Type().(*types.Signature); ok && sig.Recv() != nil && strings.HasPrefix(callee.Name(), "Sort") {
		return true
	}
	return false
}

func (w *summarizer) identObj(id *ast.Ident) types.Object {
	if obj := w.info.Uses[id]; obj != nil {
		return obj
	}
	return w.info.Defs[id]
}

// rootObj walks an access path down to its base identifier's object.
func (w *summarizer) rootObj(e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		case *ast.Ident:
			return w.identObj(x)
		default:
			return nil
		}
	}
}
