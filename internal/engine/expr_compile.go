package engine

import (
	"fmt"
)

// CompiledExpr is an Expr compiled against a fixed input schema into a typed
// closure that evaluates a whole batch at once. Compilation resolves column
// indexes and value types statically, so evaluation runs over the typed
// column vectors with no per-row interface boxing. Semantics — numeric
// coercion through float64, short-circuit AND, error messages — match the
// interpreted Expr.Eval exactly; anything the compiler cannot prove (unknown
// node kinds, untyped constants, out-of-range columns) fails compilation,
// which makes the operator holding the expression non-columnar.
type CompiledExpr struct {
	// Type is the statically known result type.
	Type ColType
	// eval produces a dense result vector for the selected rows of b.
	// sel lists physical row positions (nil = all rows of b's columns).
	// loc, when non-nil, supplies recycled buffers for the result and for
	// intermediates; operand vectors are released back to it as soon as the
	// node has consumed them, so expression trees run allocation-free in the
	// steady state. With loc non-nil the result never aliases b's storage
	// (columns are copied), so callers may release b immediately after.
	eval func(b *Batch, sel []int32, loc *Local) (Vector, error)
}

// Eval evaluates the expression over the logical rows of a columnar batch,
// returning a dense vector aligned with the batch's selection.
func (c *CompiledExpr) Eval(b *Batch) (Vector, error) { return c.eval(b, b.Sel, nil) }

func selCount(b *Batch, sel []int32) int {
	if sel != nil {
		return len(sel)
	}
	return b.nrows
}

// numAt reads element i of a numeric vector as float64 (the coercion
// interpreted evaluation applies via toFloat, including for int/int
// comparisons).
func numAt(v *Vector, i int) float64 {
	if v.Type == TypeInt {
		return float64(v.Ints[i])
	}
	return v.Floats[i]
}

// Compile translates e into a batch evaluator over the given input schema.
func Compile(e Expr, schema Schema) (*CompiledExpr, error) {
	switch x := e.(type) {
	case Col:
		idx := int(x)
		if idx < 0 || idx >= len(schema) {
			return nil, fmt.Errorf("engine: compile: column %d out of range (schema width %d)", idx, len(schema))
		}
		return &CompiledExpr{
			Type: schema[idx].Type,
			eval: func(b *Batch, sel []int32, loc *Local) (Vector, error) {
				if loc != nil {
					// Copy into recycled storage: the result must outlive b,
					// whose (possibly pooled) columns the caller may release.
					return loc.gatherVector(&b.Cols[idx], sel, b.nrows), nil
				}
				if sel == nil {
					src := &b.Cols[idx]
					// Alias the column storage, but never the ownership flag.
					return Vector{Type: src.Type, Ints: src.Ints, Floats: src.Floats, Strings: src.Strings}, nil
				}
				return b.Cols[idx].gather(sel), nil
			},
		}, nil
	case Const:
		return compileConst(x)
	case Cmp:
		return compileCmp(x, schema)
	case And:
		return compileAnd(x, schema)
	case Arith:
		return compileArith(x, schema)
	default:
		return nil, fmt.Errorf("engine: compile: unsupported expression %T", e)
	}
}

func compileConst(c Const) (*CompiledExpr, error) {
	switch v := c.V.(type) {
	case int64:
		return &CompiledExpr{Type: TypeInt, eval: func(b *Batch, sel []int32, loc *Local) (Vector, error) {
			n := selCount(b, sel)
			out := loc.ints(n)
			for i := range out {
				out[i] = v
			}
			return Vector{Type: TypeInt, Ints: out, pooled: loc != nil}, nil
		}}, nil
	case float64:
		return &CompiledExpr{Type: TypeFloat, eval: func(b *Batch, sel []int32, loc *Local) (Vector, error) {
			n := selCount(b, sel)
			out := loc.floats(n)
			for i := range out {
				out[i] = v
			}
			return Vector{Type: TypeFloat, Floats: out, pooled: loc != nil}, nil
		}}, nil
	case string:
		return &CompiledExpr{Type: TypeString, eval: func(b *Batch, sel []int32, loc *Local) (Vector, error) {
			n := selCount(b, sel)
			out := loc.strs(n)
			for i := range out {
				out[i] = v
			}
			return Vector{Type: TypeString, Strings: out, pooled: loc != nil}, nil
		}}, nil
	default:
		// Plain ints and other boxed types have no vector representation.
		return nil, fmt.Errorf("engine: compile: untyped constant %T", c.V)
	}
}

// goTypeName mirrors the %T rendering of boxed values in interpreted error
// messages, derived from the static column type.
func goTypeName(t ColType) string {
	switch t {
	case TypeInt:
		return "int64"
	case TypeFloat:
		return "float64"
	default:
		return "string"
	}
}

func compileCmp(c Cmp, schema Schema) (*CompiledExpr, error) {
	l, err := Compile(c.L, schema)
	if err != nil {
		return nil, err
	}
	r, err := Compile(c.R, schema)
	if err != nil {
		return nil, err
	}
	if c.Op < EQ || c.Op > GE {
		return nil, fmt.Errorf("engine: compile: unknown comparison op %d", int(c.Op))
	}
	op := c.Op
	lt, rt := l.Type, r.Type
	return &CompiledExpr{Type: TypeInt, eval: func(b *Batch, sel []int32, loc *Local) (Vector, error) {
		lv, err := l.eval(b, sel, loc)
		if err != nil {
			return Vector{}, err
		}
		rv, err := r.eval(b, sel, loc)
		if err != nil {
			return Vector{}, err
		}
		n := selCount(b, sel)
		out := loc.ints(n)
		switch {
		case lt != TypeString && rt != TypeString:
			for i := 0; i < n; i++ {
				fl, fr := numAt(&lv, i), numAt(&rv, i)
				cmp := 0
				switch {
				case fl < fr:
					cmp = -1
				case fl > fr:
					cmp = 1
				}
				out[i] = cmpResult(op, cmp)
			}
		case lt == TypeString && rt == TypeString:
			for i := 0; i < n; i++ {
				cmp := 0
				switch {
				case lv.Strings[i] < rv.Strings[i]:
					cmp = -1
				case lv.Strings[i] > rv.Strings[i]:
					cmp = 1
				}
				out[i] = cmpResult(op, cmp)
			}
		case lt != TypeString:
			if n > 0 {
				return Vector{}, fmt.Errorf("engine: cannot compare %s with %s", goTypeName(lt), goTypeName(rt))
			}
		default:
			if n > 0 {
				return Vector{}, fmt.Errorf("engine: cannot compare string with %s", goTypeName(rt))
			}
		}
		lv.Release(loc)
		rv.Release(loc)
		return Vector{Type: TypeInt, Ints: out, pooled: loc != nil}, nil
	}}, nil
}

func cmpResult(op CmpOp, cmp int) int64 {
	var ok bool
	switch op {
	case EQ:
		ok = cmp == 0
	case NE:
		ok = cmp != 0
	case LT:
		ok = cmp < 0
	case LE:
		ok = cmp <= 0
	case GT:
		ok = cmp > 0
	default: // GE; unknown ops are rejected at compile time
		ok = cmp >= 0
	}
	if ok {
		return 1
	}
	return 0
}

// compileAnd evaluates conjuncts left to right over a progressively narrowed
// selection, reproducing the interpreted per-row short circuit: a conjunct is
// only evaluated on rows where every earlier conjunct was true, so errors it
// would raise on short-circuited rows never surface.
func compileAnd(a And, schema Schema) (*CompiledExpr, error) {
	parts := make([]*CompiledExpr, len(a))
	for i, e := range a {
		c, err := Compile(e, schema)
		if err != nil {
			return nil, err
		}
		parts[i] = c
	}
	return &CompiledExpr{Type: TypeInt, eval: func(b *Batch, sel []int32, loc *Local) (Vector, error) {
		n := selCount(b, sel)
		out := loc.ints(n)
		clear(out) // recycled buffers carry stale values
		// active maps the still-true rows: phys[i] is the physical position
		// to evaluate, orig[i] the index in the dense output.
		phys := sel
		var orig []int32 // nil on the first conjunct = identity
		active := n
		for _, c := range parts {
			if active == 0 {
				break
			}
			v, err := c.eval(b, phys, loc)
			if err != nil {
				return Vector{}, err
			}
			if c.Type == TypeString {
				return Vector{}, fmt.Errorf("engine: AND over non-numeric string")
			}
			var nextPhys, nextOrig []int32
			for i := 0; i < active; i++ {
				truthyV := numAt(&v, i) != 0
				if !truthyV {
					continue
				}
				var p int32
				if phys != nil {
					p = phys[i]
				} else {
					p = int32(i)
				}
				o := int32(i)
				if orig != nil {
					o = orig[i]
				}
				nextPhys = append(nextPhys, p)
				nextOrig = append(nextOrig, o)
			}
			v.Release(loc)
			phys, orig = nextPhys, nextOrig
			active = len(nextPhys)
		}
		if orig == nil {
			// No conjunct narrowed the set (empty And, or all rows survived
			// the first pass with identity mapping preserved).
			for i := 0; i < active; i++ {
				out[i] = 1
			}
		} else {
			for _, o := range orig {
				out[o] = 1
			}
		}
		return Vector{Type: TypeInt, Ints: out, pooled: loc != nil}, nil
	}}, nil
}

func compileArith(a Arith, schema Schema) (*CompiledExpr, error) {
	l, err := Compile(a.L, schema)
	if err != nil {
		return nil, err
	}
	r, err := Compile(a.R, schema)
	if err != nil {
		return nil, err
	}
	if a.Op < Add || a.Op > Div {
		return nil, fmt.Errorf("engine: compile: unknown arithmetic op %d", int(a.Op))
	}
	op := a.Op
	lt, rt := l.Type, r.Type
	return &CompiledExpr{Type: TypeFloat, eval: func(b *Batch, sel []int32, loc *Local) (Vector, error) {
		lv, err := l.eval(b, sel, loc)
		if err != nil {
			return Vector{}, err
		}
		rv, err := r.eval(b, sel, loc)
		if err != nil {
			return Vector{}, err
		}
		n := selCount(b, sel)
		if n > 0 {
			if lt == TypeString {
				return Vector{}, fmt.Errorf("engine: arithmetic over string")
			}
			if rt == TypeString {
				return Vector{}, fmt.Errorf("engine: arithmetic over string")
			}
		}
		out := loc.floats(n)
		switch op {
		case Add:
			for i := 0; i < n; i++ {
				out[i] = numAt(&lv, i) + numAt(&rv, i)
			}
		case Sub:
			for i := 0; i < n; i++ {
				out[i] = numAt(&lv, i) - numAt(&rv, i)
			}
		case Mul:
			for i := 0; i < n; i++ {
				out[i] = numAt(&lv, i) * numAt(&rv, i)
			}
		default: // Div
			for i := 0; i < n; i++ {
				fr := numAt(&rv, i)
				if fr == 0 {
					return Vector{}, fmt.Errorf("engine: division by zero")
				}
				out[i] = numAt(&lv, i) / fr
			}
		}
		lv.Release(loc)
		rv.Release(loc)
		return Vector{Type: TypeFloat, Floats: out, pooled: loc != nil}, nil
	}}, nil
}

// CompiledPredicate is a compiled boolean filter: it evaluates the predicate
// over a batch and returns the physical positions of the rows that pass.
type CompiledPredicate struct {
	conjuncts []*CompiledExpr // top-level AND split for progressive narrowing
	fromAnd   bool            // error wording differs between AND and bare predicates
}

// CompilePredicate compiles a filter expression. Top-level AND conjunctions
// are evaluated with progressive selection narrowing, so later conjuncts only
// run over rows the earlier ones kept.
func CompilePredicate(e Expr, schema Schema) (*CompiledPredicate, error) {
	var exprs []Expr
	fromAnd := false
	if a, ok := e.(And); ok {
		exprs = a
		fromAnd = true
	} else {
		exprs = []Expr{e}
	}
	p := &CompiledPredicate{conjuncts: make([]*CompiledExpr, len(exprs)), fromAnd: fromAnd}
	for i, sub := range exprs {
		c, err := Compile(sub, schema)
		if err != nil {
			return nil, err
		}
		p.conjuncts[i] = c
	}
	return p, nil
}

// Filter returns the physical positions of b's logical rows that satisfy the
// predicate, in order. The result is always an explicit selection (never the
// nil "all rows" shorthand). Error semantics match the interpreted truthy()
// loop: non-numeric predicate results and evaluation errors surface only for
// rows that are actually evaluated.
func (p *CompiledPredicate) Filter(b *Batch) ([]int32, error) {
	sel := b.Sel
	n := selCount(b, sel)
	if n == 0 {
		return []int32{}, nil
	}
	first := true
	for _, c := range p.conjuncts {
		if !first && len(sel) == 0 {
			break
		}
		v, err := c.eval(b, sel, nil)
		if err != nil {
			return nil, err
		}
		if c.Type == TypeString {
			if p.fromAnd {
				return nil, fmt.Errorf("engine: AND over non-numeric string")
			}
			return nil, fmt.Errorf("engine: predicate returned non-numeric string")
		}
		cnt := selCount(b, sel)
		var next []int32
		for i := 0; i < cnt; i++ {
			if numAt(&v, i) == 0 {
				continue
			}
			if sel != nil {
				next = append(next, sel[i])
			} else {
				next = append(next, int32(i))
			}
		}
		sel = next
		if sel == nil {
			sel = []int32{} // non-nil: an empty selection, not "all rows"
		}
		first = false
	}
	if sel == nil {
		// No conjuncts at all: every logical row passes.
		sel = make([]int32, n)
		for i := range sel {
			sel[i] = int32(i)
		}
	}
	return sel, nil
}

// filterInto is Filter with arena-recycled selection buffers: the returned
// selection is always a fresh buffer owned by loc (never b.Sel, so the caller
// may mark it pooled and release it independently of the input), and conjunct
// result vectors are recycled as soon as each narrowing pass consumes them.
// Selection order and error semantics match Filter exactly.
func (p *CompiledPredicate) filterInto(b *Batch, loc *Local) ([]int32, error) {
	sel := b.Sel
	owned := false // whether sel is a loc-owned buffer we may recycle
	n := selCount(b, sel)
	if n == 0 {
		return loc.sel(0), nil
	}
	first := true
	for _, c := range p.conjuncts {
		if !first && len(sel) == 0 {
			break
		}
		v, err := c.eval(b, sel, loc)
		if err != nil {
			return nil, err
		}
		if c.Type == TypeString {
			if p.fromAnd {
				return nil, fmt.Errorf("engine: AND over non-numeric string")
			}
			return nil, fmt.Errorf("engine: predicate returned non-numeric string")
		}
		cnt := selCount(b, sel)
		next := loc.sel(cnt)[:0]
		for i := 0; i < cnt; i++ {
			if numAt(&v, i) == 0 {
				continue
			}
			if sel != nil {
				next = append(next, sel[i])
			} else {
				next = append(next, int32(i))
			}
		}
		v.Release(loc)
		if owned {
			loc.putSel(sel)
		}
		sel, owned = next, true
		first = false
	}
	if !owned {
		// No conjunct ran (or none at all): copy the identity / inherited
		// selection into an owned buffer so the caller never frees b.Sel.
		out := loc.sel(n)
		if sel == nil {
			for i := range out {
				out[i] = int32(i)
			}
		} else {
			copy(out, sel)
		}
		return out, nil
	}
	return sel, nil
}
