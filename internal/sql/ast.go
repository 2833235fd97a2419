package sql

import "fmt"

// SelectStmt is the parsed form of a query.
type SelectStmt struct {
	// Distinct deduplicates the result (compiled as a group-by over the
	// whole select list).
	Distinct bool
	Select   []SelectItem
	From     []TableRef // first entry plus one per JOIN, in written order
	Joins    []JoinCond // Joins[i] connects From[i+1] to the preceding tables
	Where    []Predicate
	GroupBy  []ColumnRef
	OrderBy  *OrderItem
	Limit    int // -1 when absent
}

// Tables returns the tables the statement reads, in written order.
func (s *SelectStmt) Tables() []string {
	out := make([]string, len(s.From))
	for i, tr := range s.From {
		out[i] = tr.Table
	}
	return out
}

// SelectItem is one output column.
type SelectItem struct {
	// Expr is the scalar expression; nil when Agg is set.
	Expr ExprNode
	// Agg is set for aggregate items.
	Agg *AggExpr
	// Alias is the optional output name.
	Alias string
}

// Name returns the output column name.
func (s SelectItem) Name(i int) string {
	if s.Alias != "" {
		return s.Alias
	}
	if s.Agg != nil {
		return fmt.Sprintf("%s_%d", toLowerStr(s.Agg.Func), i)
	}
	if c, ok := s.Expr.(*ColumnRef); ok {
		return c.Column
	}
	return fmt.Sprintf("col_%d", i)
}

// AggExpr is SUM/COUNT/AVG/MIN/MAX.
type AggExpr struct {
	Func string   // upper-cased
	Arg  ExprNode // nil for COUNT(*)
}

// TableRef is "table [alias]".
type TableRef struct {
	Table string
	Alias string
}

// Qualifier returns the name columns are qualified with.
func (t TableRef) Qualifier() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Table
}

// JoinCond is "ON left = right".
type JoinCond struct {
	Left, Right ColumnRef
}

// Predicate is "expr op expr".
type Predicate struct {
	Op          string // =, <>, !=, <, <=, >, >=
	Left, Right ExprNode
}

// OrderItem is "ORDER BY col [DESC]".
type OrderItem struct {
	Col  ColumnRef
	Desc bool
}

// ExprNode is a scalar expression AST node.
type ExprNode interface {
	exprNode()
	String() string
}

// ColumnRef is "[qualifier.]column".
type ColumnRef struct {
	Qualifier string
	Column    string
}

func (*ColumnRef) exprNode() {}

// String implements ExprNode.
func (c *ColumnRef) String() string {
	if c.Qualifier != "" {
		return c.Qualifier + "." + c.Column
	}
	return c.Column
}

// NumberLit is a numeric literal (stored as float64; integers detected by
// the absence of a dot).
type NumberLit struct {
	Value float64
	IsInt bool
}

func (*NumberLit) exprNode() {}

// String implements ExprNode.
func (n *NumberLit) String() string {
	if n.IsInt {
		return fmt.Sprintf("%d", int64(n.Value))
	}
	return fmt.Sprintf("%g", n.Value)
}

// StringLit is a string literal.
type StringLit struct {
	Value string
}

func (*StringLit) exprNode() {}

// String implements ExprNode.
func (s *StringLit) String() string { return "'" + s.Value + "'" }

// BinaryExpr is arithmetic.
type BinaryExpr struct {
	Op          byte // + - * /
	Left, Right ExprNode
}

func (*BinaryExpr) exprNode() {}

// String implements ExprNode.
func (b *BinaryExpr) String() string {
	return fmt.Sprintf("(%s %c %s)", b.Left, b.Op, b.Right)
}

func toLowerStr(s string) string {
	b := []byte(s)
	for i := range b {
		if b[i] >= 'A' && b[i] <= 'Z' {
			b[i] += 'a' - 'A'
		}
	}
	return string(b)
}
