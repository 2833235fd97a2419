package engine

import (
	"errors"
	"fmt"
)

// ErrNotColumnar marks data or an operator that has no typed-column form: a
// value that is not the int64/float64/string its column declares, an
// expression that does not compile, an aggregate whose output does not fit
// its schema. The runtime executes typed columns only, so the three places
// such data can enter — table construction, plan admission, checkpoint
// restore — reject it with an error wrapping this one.
var ErrNotColumnar = errors.New("engine: not typed columnar")

// Vector is one typed column of a Batch: exactly one of the payload slices is
// populated, matching Type. Keeping values in typed slices instead of []Value
// avoids the per-cell interface boxing of the row representation.
type Vector struct {
	Type    ColType
	Ints    []int64
	Floats  []float64
	Strings []string

	// pooled marks the backing array as arena-owned; Release returns it to
	// the Local that allocated it. Value copies of a Vector constructed as
	// literals (slice, Col aliasing) never carry the flag.
	pooled bool
}

// Len returns the number of values in the vector.
func (v *Vector) Len() int {
	switch v.Type {
	case TypeInt:
		return len(v.Ints)
	case TypeFloat:
		return len(v.Floats)
	default:
		return len(v.Strings)
	}
}

// value boxes the i-th element (used only at row-oriented package edges).
func (v *Vector) value(i int) Value {
	switch v.Type {
	case TypeInt:
		return v.Ints[i]
	case TypeFloat:
		return v.Floats[i]
	default:
		return v.Strings[i]
	}
}

// appendValue strictly appends a boxed value of the vector's type; int64,
// float64 and string only — anything else (including plain int) is refused.
func (v *Vector) appendValue(val Value) bool {
	switch v.Type {
	case TypeInt:
		x, ok := val.(int64)
		if !ok {
			return false
		}
		v.Ints = append(v.Ints, x)
	case TypeFloat:
		x, ok := val.(float64)
		if !ok {
			return false
		}
		v.Floats = append(v.Floats, x)
	default:
		x, ok := val.(string)
		if !ok {
			return false
		}
		v.Strings = append(v.Strings, x)
	}
	return true
}

// setAt overwrites element i with element p of src, a vector of v's type.
func (v *Vector) setAt(i int, src *Vector, p int) {
	switch v.Type {
	case TypeInt:
		v.Ints[i] = src.Ints[p]
	case TypeFloat:
		v.Floats[i] = src.Floats[p]
	default:
		v.Strings[i] = src.Strings[p]
	}
}

// slice returns the [lo,hi) window sharing the underlying arrays.
func (v *Vector) slice(lo, hi int) Vector {
	out := Vector{Type: v.Type}
	switch v.Type {
	case TypeInt:
		out.Ints = v.Ints[lo:hi]
	case TypeFloat:
		out.Floats = v.Floats[lo:hi]
	default:
		out.Strings = v.Strings[lo:hi]
	}
	return out
}

// Batch is the native unit of execution: a set of typed column vectors plus
// an optional selection vector. Sel holds the physical row positions that are
// logically present (nil means all rows), so filters narrow a batch without
// copying column data.
type Batch struct {
	Schema Schema
	Cols   []Vector
	Sel    []int32
	nrows  int // physical row count of Cols

	// Arena ownership flags: which pieces of this batch Release returns to
	// a Local. They are tracked separately because batches routinely mix
	// shared and owned parts — e.g. a filter output owns its selection
	// vector but shares the input's column storage, and a Scan can hand out
	// the table's long-lived columnar batch, which owns nothing.
	selPooled    bool // Sel backing array is arena-owned
	colsPooled   bool // the []Vector header slice is arena-owned
	structPooled bool // the Batch struct itself came from a Local
}

// NewBatchFromCols builds a columnar batch, validating column lengths.
func NewBatchFromCols(schema Schema, cols []Vector) (*Batch, error) {
	if len(cols) != len(schema) {
		return nil, fmt.Errorf("engine: batch has %d columns, schema %d", len(cols), len(schema))
	}
	n := 0
	for i := range cols {
		if cols[i].Type != schema[i].Type {
			return nil, fmt.Errorf("engine: batch column %d is %s, schema says %s", i, cols[i].Type, schema[i].Type)
		}
		if i == 0 {
			n = cols[i].Len()
		} else if cols[i].Len() != n {
			return nil, fmt.Errorf("engine: batch column %d has %d values, column 0 has %d", i, cols[i].Len(), n)
		}
	}
	return &Batch{Schema: schema, Cols: cols, nrows: n}, nil
}

// RowsToBatch strictly converts rows to a columnar batch: every value must be
// an int64, float64 or string matching the declared column type. Anything
// else (nil, plain int, width mismatch) is an ErrNotColumnar error.
func RowsToBatch(schema Schema, rows []Row) (*Batch, error) {
	cols := make([]Vector, len(schema))
	for i, c := range schema {
		cols[i].Type = c.Type
		switch c.Type {
		case TypeInt:
			cols[i].Ints = make([]int64, 0, len(rows))
		case TypeFloat:
			cols[i].Floats = make([]float64, 0, len(rows))
		default:
			cols[i].Strings = make([]string, 0, len(rows))
		}
	}
	for ri, r := range rows {
		if len(r) != len(schema) {
			return nil, fmt.Errorf("engine: row %d has %d values, schema %d: %w", ri, len(r), len(schema), ErrNotColumnar)
		}
		for ci := range schema {
			if !cols[ci].appendValue(r[ci]) {
				return nil, fmt.Errorf("engine: row %d column %d (%s): got %T, column is %s (%s): %w",
					ri, ci, schema[ci].Name, r[ci], schema[ci].Type, goTypeName(schema[ci].Type), ErrNotColumnar)
			}
		}
	}
	return &Batch{Schema: schema, Cols: cols, nrows: len(rows)}, nil
}

// Len returns the logical (selected) row count (0 for a nil batch, which is
// the canonical empty-partition representation).
func (b *Batch) Len() int {
	if b == nil {
		return 0
	}
	if b.Sel != nil {
		return len(b.Sel)
	}
	return b.nrows
}

// ToRows materializes the logical rows as boxed engine rows: the row bridge at
// package edges (the public Execute result, the block codec's row adapters).
// Nil when empty — a nil batch included — matching the row-oriented operators'
// convention.
func (b *Batch) ToRows() []Row {
	n := b.Len()
	if n == 0 {
		return nil
	}
	// Every row is cut from one backing array, capped at its width so that
	// an append to one row reallocates instead of overwriting the next.
	w := len(b.Cols)
	vals := make([]Value, n*w)
	rows := make([]Row, n)
	for i := range rows {
		p := at(b.Sel, i)
		r := Row(vals[i*w : (i+1)*w : (i+1)*w])
		for ci := range b.Cols {
			r[ci] = b.Cols[ci].value(p)
		}
		rows[i] = r
	}
	return rows
}

// SliceLocal returns the logical window [lo,hi) in arena-recycled shells:
// the returned batch's struct (and, on the dense path, its column-header
// slice) come from l, while the column storage and any selection subrange
// stay shared with — and owned by — the source batch. Releasing a slice therefore never frees storage the
// source or sibling slices still read.
func (b *Batch) SliceLocal(lo, hi int, l *Local) *Batch {
	if b.Sel != nil {
		out := l.newBatch()
		out.Schema = b.Schema
		out.Cols = b.Cols
		out.Sel = b.Sel[lo:hi]
		out.nrows = b.nrows
		return out
	}
	cols := l.cols(len(b.Cols))
	for i := range b.Cols {
		cols[i] = b.Cols[i].slice(lo, hi)
	}
	out := l.newBatch()
	out.Schema = b.Schema
	out.Cols = cols
	out.colsPooled = l != nil
	out.nrows = hi - lo
	return out
}
