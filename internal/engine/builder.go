package engine

import "slices"

// BatchBuilder accumulates rows column-wise into one output batch. It is the
// concatenation primitive for batch-native operators: chained-stage sinks
// merge their stream with it, sort and the join build side concatenate their
// input partitions, and kernel flushes merge partial batches. The finished
// batch is always dense (no selection vector) and plain (no arena ownership),
// so it is safe to commit, checkpoint, or share.
type BatchBuilder struct {
	schema Schema
	cols   []Vector
}

// NewBatchBuilder returns an empty builder producing batches of the schema.
func NewBatchBuilder(schema Schema) *BatchBuilder {
	return &BatchBuilder{schema: schema}
}

// Len returns the number of rows accumulated so far.
func (bb *BatchBuilder) Len() int {
	if len(bb.cols) == 0 {
		return 0
	}
	return bb.cols[0].Len()
}

// Grow reserves room for rows more rows, so a caller that knows its total up
// front appends into exact-size columns instead of growing them from zero.
func (bb *BatchBuilder) Grow(rows int) {
	if rows <= 0 {
		return
	}
	bb.ensureCols()
	for ci := range bb.cols {
		c := &bb.cols[ci]
		switch c.Type {
		case TypeInt:
			c.Ints = slices.Grow(c.Ints, rows)
		case TypeFloat:
			c.Floats = slices.Grow(c.Floats, rows)
		default:
			c.Strings = slices.Grow(c.Strings, rows)
		}
	}
}

// Append accumulates every logical row of b. The input is only read.
func (bb *BatchBuilder) Append(b *Batch) {
	if b == nil || b.Len() == 0 {
		return
	}
	bb.ensureCols()
	for ci := range bb.cols {
		src := &b.Cols[ci]
		dst := &bb.cols[ci]
		switch dst.Type {
		case TypeInt:
			if b.Sel == nil {
				dst.Ints = append(dst.Ints, src.Ints...)
			} else {
				for _, p := range b.Sel {
					dst.Ints = append(dst.Ints, src.Ints[p])
				}
			}
		case TypeFloat:
			if b.Sel == nil {
				dst.Floats = append(dst.Floats, src.Floats...)
			} else {
				for _, p := range b.Sel {
					dst.Floats = append(dst.Floats, src.Floats[p])
				}
			}
		default:
			if b.Sel == nil {
				dst.Strings = append(dst.Strings, src.Strings...)
			} else {
				for _, p := range b.Sel {
					dst.Strings = append(dst.Strings, src.Strings[p])
				}
			}
		}
	}
}

// Finish returns the accumulated batch (nil when empty, matching the
// empty-partition convention). The builder must not be reused afterwards.
func (bb *BatchBuilder) Finish() *Batch {
	n := bb.Len()
	if n == 0 {
		return nil
	}
	return &Batch{Schema: bb.schema, Cols: bb.cols, nrows: n}
}

// ensureCols lazily allocates the output vectors.
func (bb *BatchBuilder) ensureCols() {
	if bb.cols != nil {
		return
	}
	bb.cols = make([]Vector, len(bb.schema))
	for i, c := range bb.schema {
		bb.cols[i].Type = c.Type
	}
}
