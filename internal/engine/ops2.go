package engine

import "fmt"

// Limit keeps the first N rows of its (typically sorted) input, gathering
// into partition 0.
type Limit struct {
	base
	n int
}

// NewLimit creates a LIMIT n operator.
func NewLimit(name string, in Operator, n int) *Limit {
	return &Limit{base: base{name: name, inputs: []Operator{in}, schema: in.OutSchema()}, n: n}
}

// Wide implements Operator.
func (l *Limit) Wide() bool { return true }

// Compute implements Operator, gathering into partition 0.
func (l *Limit) Compute(part int, inputs []*PartitionedResult) ([]Row, error) {
	if l.n < 0 {
		return nil, fmt.Errorf("engine: limit %s has negative n", l.name)
	}
	if part != 0 {
		return nil, nil
	}
	var out []Row
	for _, p := range inputs[0].Parts {
		if rest := l.n - len(out); len(p) > rest {
			p = p[:rest]
		}
		out = append(out, p...)
	}
	return out, nil
}

// UnionAll concatenates two inputs partition-wise. Schemas must have the
// same width.
type UnionAll struct {
	base
}

// NewUnionAll creates a UNION ALL operator.
func NewUnionAll(name string, left, right Operator) (*UnionAll, error) {
	if len(left.OutSchema()) != len(right.OutSchema()) {
		return nil, fmt.Errorf("engine: union %s inputs have widths %d and %d",
			name, len(left.OutSchema()), len(right.OutSchema()))
	}
	return &UnionAll{base: base{name: name, inputs: []Operator{left, right}, schema: left.OutSchema()}}, nil
}

// Wide implements Operator.
func (u *UnionAll) Wide() bool { return false }

// Compute implements Operator.
func (u *UnionAll) Compute(part int, inputs []*PartitionedResult) ([]Row, error) {
	var out []Row
	out = append(out, inputs[0].Parts[part]...)
	out = append(out, inputs[1].Parts[part]...)
	return out, nil
}
