package engine

import (
	"fmt"
	"strings"
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
				if loc == nil && sel == nil {
					src := &b.Cols[idx]
					// Alias the column storage, but never the ownership flag.
					return Vector{Type: src.Type, Ints: src.Ints, Floats: src.Floats, Strings: src.Strings}, nil
				}
				// Copy into recycled storage (plain with a nil loc): the
				// result must outlive b, whose (possibly pooled) columns the
				// caller may release.
				return loc.gatherVector(&b.Cols[idx], sel, b.nrows), nil
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
	conjuncts []narrowFunc // top-level AND split for progressive narrowing
}

// narrowFunc is one conjunct of a predicate: it appends to dst, in order, the
// positions of sel (rows 0..n-1 of b when sel is nil) on which it holds. dst
// may share sel's array: it writes dst[j] only once it has read sel[j].
type narrowFunc func(b *Batch, sel, dst []int32, loc *Local) ([]int32, error)

// CompilePredicate compiles a filter expression. Top-level AND conjunctions
// are evaluated with progressive selection narrowing, so later conjuncts only
// run over rows the earlier ones kept. A conjunct comparing a column with a
// constant narrows the selection directly (cmpNarrow); any other is evaluated
// to a vector whose non-zero rows pass (truthyNarrow).
func CompilePredicate(e Expr, schema Schema) (*CompiledPredicate, error) {
	exprs, fromAnd := []Expr{e}, false
	if a, ok := e.(And); ok {
		exprs, fromAnd = a, true
	}
	p := &CompiledPredicate{conjuncts: make([]narrowFunc, len(exprs))}
	for i, sub := range exprs {
		c, err := Compile(sub, schema)
		if err != nil {
			return nil, err
		}
		if p.conjuncts[i] = cmpNarrow(sub, schema); p.conjuncts[i] == nil {
			p.conjuncts[i] = truthyNarrow(c, fromAnd)
		}
	}
	return p, nil
}

// truthyNarrow keeps the rows on which c evaluates to a non-zero number (NaN
// included), as the interpreted truthy() does; a string result is an error,
// worded as an AND's when the predicate is one.
func truthyNarrow(c *CompiledExpr, fromAnd bool) narrowFunc {
	return func(b *Batch, sel, dst []int32, loc *Local) ([]int32, error) {
		v, err := c.eval(b, sel, loc)
		if err != nil {
			return nil, err
		}
		if c.Type == TypeString {
			if fromAnd {
				return nil, fmt.Errorf("engine: AND over non-numeric string")
			}
			return nil, fmt.Errorf("engine: predicate returned non-numeric string")
		}
		for i, n := 0, selCount(b, sel); i < n; i++ {
			if numAt(&v, i) != 0 {
				dst = append(dst, int32(at(sel, i)))
			}
		}
		v.Release(loc)
		return dst, nil
	}
}

// cmpNarrow compiles a comparison between a column and a constant (either
// side) to a loop that reads the column at the selected positions and
// compares it with the constant converted once: to float64 for numbers, the
// coercion numAt applies, so ints past 2^53 compare as the interpreted path
// compares them. It builds neither a constant vector nor a 0/1 vector. It returns nil for any
// other shape, and for a number compared with a string, which fails on the
// compiled comparison's own path.
func cmpNarrow(e Expr, schema Schema) narrowFunc {
	c, ok := e.(Cmp)
	if !ok {
		return nil
	}
	col, colLeft := c.L.(Col)
	k, constRight := c.R.(Const)
	swapped := false
	if !colLeft || !constRight {
		col, colLeft = c.R.(Col)
		k, constRight = c.L.(Const)
		if !colLeft || !constRight {
			return nil
		}
		swapped = true
	}
	// accept[cmp+1] reports whether the comparison holds when the column
	// value compares cmp (-1, 0, 1) to the constant; NaN compares 0.
	var accept [3]bool
	for cmp := -1; cmp <= 1; cmp++ {
		accept[cmp+1] = cmpResult(c.Op, cmp) == 1
	}
	if swapped {
		accept[0], accept[2] = accept[2], accept[0]
	}
	idx := int(col)
	var num float64
	switch v := k.V.(type) {
	case int64:
		num = float64(v)
	case float64:
		num = v
	case string:
		if schema[idx].Type != TypeString {
			return nil
		}
		return func(b *Batch, sel, dst []int32, _ *Local) ([]int32, error) {
			vals := b.Cols[idx].Strings
			for i, n := 0, selCount(b, sel); i < n; i++ {
				p := at(sel, i)
				if accept[strings.Compare(vals[p], v)+1] {
					dst = append(dst, int32(p))
				}
			}
			return dst, nil
		}
	default:
		return nil
	}
	switch schema[idx].Type {
	case TypeInt:
		return func(b *Batch, sel, dst []int32, _ *Local) ([]int32, error) {
			return narrowNum(b.Cols[idx].Ints, num, &accept, sel, dst, selCount(b, sel)), nil
		}
	case TypeFloat:
		return func(b *Batch, sel, dst []int32, _ *Local) ([]int32, error) {
			return narrowNum(b.Cols[idx].Floats, num, &accept, sel, dst, selCount(b, sel)), nil
		}
	}
	return nil
}

// narrowNum appends the positions of sel (0..n-1 when nil) whose value,
// coerced to float64, compares to k as accept allows.
func narrowNum[T int64 | float64](vals []T, k float64, accept *[3]bool, sel, dst []int32, n int) []int32 {
	for i := 0; i < n; i++ {
		p := at(sel, i)
		x, c := float64(vals[p]), 1
		if x < k {
			c = 0
		} else if x > k {
			c = 2
		}
		if accept[c] {
			dst = append(dst, int32(p))
		}
	}
	return dst
}

// filterInto returns the physical positions of b's logical rows that satisfy
// the predicate, in order, in one fresh selection buffer from loc (a plain
// allocation when loc is nil): never b.Sel and never the nil "all rows"
// shorthand, so the caller may mark it pooled and release it independently of
// the input. Conjuncts after the first narrow the buffer in place, which is
// safe because a conjunct writes position j of its output only after reading
// position j of its input. Errors match the interpreted truthy() loop: they
// surface only for rows that are actually evaluated.
func (p *CompiledPredicate) filterInto(b *Batch, loc *Local) ([]int32, error) {
	n := selCount(b, b.Sel)
	out := loc.sel(n)
	if n == 0 {
		return out, nil
	}
	if len(p.conjuncts) == 0 {
		for i := range out {
			out[i] = int32(at(b.Sel, i))
		}
		return out, nil
	}
	sel := b.Sel
	for i, c := range p.conjuncts {
		if i > 0 && len(sel) == 0 {
			break
		}
		var err error
		if sel, err = c(b, sel, out[:0], loc); err != nil {
			return nil, err
		}
	}
	return sel, nil
}
