package sql

import (
	"fmt"

	"ftpde/internal/engine"
)

// boundCol is one column of a physical row layout, tagged with the table
// qualifier it came from.
type boundCol struct {
	qualifier string
	name      string
	typ       engine.ColType
}

// layout describes the physical row produced by an operator.
type layout []boundCol

// tableLayout builds the layout of a base-table scan.
func tableLayout(qualifier string, schema engine.Schema) layout {
	l := make(layout, len(schema))
	for i, c := range schema {
		l[i] = boundCol{qualifier: qualifier, name: c.Name, typ: c.Type}
	}
	return l
}

// concat returns l followed by other.
func (l layout) concat(other layout) layout {
	out := make(layout, 0, len(l)+len(other))
	out = append(out, l...)
	out = append(out, other...)
	return out
}

// schema converts the layout to an engine schema.
func (l layout) schema() engine.Schema {
	s := make(engine.Schema, len(l))
	for i, c := range l {
		s[i] = engine.Column{Name: c.name, Type: c.typ}
	}
	return s
}

// resolve finds the unique column matching the reference.
func (l layout) resolve(c *ColumnRef) (int, error) {
	found := -1
	for i, bc := range l {
		if bc.name != c.Column {
			continue
		}
		if c.Qualifier != "" && bc.qualifier != c.Qualifier {
			continue
		}
		if found >= 0 {
			if l[found] == bc {
				continue // one column listed twice (GROUP BY a.v, a.v) is not two candidates
			}
			return 0, fmt.Errorf("sql: ambiguous column %s", c)
		}
		found = i
	}
	if found < 0 {
		return 0, fmt.Errorf("sql: unknown column %s", c)
	}
	return found, nil
}

// has reports whether the reference resolves uniquely in this layout.
func (l layout) has(c *ColumnRef) bool {
	_, err := l.resolve(c)
	return err == nil
}

// binding resolves column references for one operator. Names are matched
// against the unpruned whole-query layout — a reference that is ambiguous in
// the statement stays ambiguous whatever the liveness pass dropped — and pos
// places each of that layout's columns in the operator's input row (-1 for a
// column the input does not carry).
type binding struct {
	full layout
	pos  []int
}

// bind places cols — whole-query column ids in physical row order — over full.
func bind(full layout, cols []int) binding {
	pos := make([]int, len(full))
	for i := range pos {
		pos[i] = -1
	}
	for i, g := range cols {
		pos[g] = i
	}
	return binding{full: full, pos: pos}
}

// resolve returns the position of the referenced column in the input row.
func (b binding) resolve(c *ColumnRef) (int, error) {
	g, err := b.full.resolve(c)
	if err != nil {
		return 0, err
	}
	if b.pos[g] < 0 {
		return 0, fmt.Errorf("sql: column %s is not carried to this operator", c)
	}
	return b.pos[g], nil
}

// columnRefs collects every column reference in an expression.
func columnRefs(e ExprNode) []*ColumnRef {
	switch x := e.(type) {
	case *ColumnRef:
		return []*ColumnRef{x}
	case *BinaryExpr:
		return append(columnRefs(x.Left), columnRefs(x.Right)...)
	default:
		return nil
	}
}

// predicateQualifier returns the single table qualifier a predicate touches
// (resolving unqualified references against the whole-query layout), or ""
// when it spans several tables or only literals.
func predicateQualifier(p Predicate, full layout) string {
	refs := append(columnRefs(p.Left), columnRefs(p.Right)...)
	if len(refs) == 0 {
		return ""
	}
	q := ""
	for _, r := range refs {
		i, err := full.resolve(r)
		if err != nil {
			return ""
		}
		rq := full[i].qualifier
		if q == "" {
			q = rq
		} else if q != rq {
			return ""
		}
	}
	return q
}

// toEngineExpr converts an AST expression into an engine expression over the
// bound input row.
func toEngineExpr(e ExprNode, b binding) (engine.Expr, error) {
	switch x := e.(type) {
	case *ColumnRef:
		i, err := b.resolve(x)
		if err != nil {
			return nil, err
		}
		return engine.Col(i), nil
	case *NumberLit:
		if x.IsInt {
			return engine.Const{V: int64(x.Value)}, nil
		}
		return engine.Const{V: x.Value}, nil
	case *StringLit:
		return engine.Const{V: x.Value}, nil
	case *BinaryExpr:
		left, err := toEngineExpr(x.Left, b)
		if err != nil {
			return nil, err
		}
		right, err := toEngineExpr(x.Right, b)
		if err != nil {
			return nil, err
		}
		ops := map[byte]engine.ArithOp{'+': engine.Add, '-': engine.Sub, '*': engine.Mul, '/': engine.Div}
		return engine.Arith{Op: ops[x.Op], L: left, R: right}, nil
	default:
		return nil, fmt.Errorf("sql: unsupported expression %T", e)
	}
}

// toEnginePredicate converts a predicate into an engine boolean expression.
func toEnginePredicate(p Predicate, b binding) (engine.Expr, error) {
	left, err := toEngineExpr(p.Left, b)
	if err != nil {
		return nil, err
	}
	right, err := toEngineExpr(p.Right, b)
	if err != nil {
		return nil, err
	}
	ops := map[string]engine.CmpOp{
		"=": engine.EQ, "<>": engine.NE, "!=": engine.NE,
		"<": engine.LT, "<=": engine.LE, ">": engine.GT, ">=": engine.GE,
	}
	op, ok := ops[p.Op]
	if !ok {
		return nil, fmt.Errorf("sql: unsupported operator %q", p.Op)
	}
	return engine.Cmp{Op: op, L: left, R: right}, nil
}

// exprType infers an output column type (best effort; strings only survive
// bare column references).
func exprType(e ExprNode, l layout) engine.ColType {
	if c, ok := e.(*ColumnRef); ok {
		if i, err := l.resolve(c); err == nil {
			return l[i].typ
		}
	}
	if n, ok := e.(*NumberLit); ok && n.IsInt {
		return engine.TypeInt
	}
	if _, ok := e.(*StringLit); ok {
		return engine.TypeString
	}
	return engine.TypeFloat
}
