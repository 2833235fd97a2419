package engine

// BatchBuilder accumulates rows column-wise into one output batch. It is the
// concatenation primitive for batch-native operators: chained-stage sinks
// merge their stream with it, sort and the join build side concatenate their
// input partitions, and kernel flushes merge partial batches. The finished
// batch is always dense (no selection vector) and, unless its columns were
// drawn from a Local (a chained join's build side), plain (no arena
// ownership), so it is safe to commit, checkpoint, or share.
type BatchBuilder struct {
	schema Schema
	cols   []Vector
}

// NewBatchBuilder returns an empty builder producing batches of the schema.
func NewBatchBuilder(schema Schema) *BatchBuilder {
	return &BatchBuilder{schema: schema}
}

// Grow reserves room for rows more rows, so a caller that knows its total up
// front appends into exact-size columns instead of growing them from zero.
// The columns are drawn from l (plain when nil): the finished batch's column
// storage is then l's arena's to recycle.
func (bb *BatchBuilder) Grow(rows int, l *Local) {
	if rows <= 0 {
		return
	}
	bb.ensureCols()
	for ci := range bb.cols {
		c := &bb.cols[ci]
		c.pooled = l != nil
		switch c.Type {
		case TypeInt:
			c.Ints = append(l.ints(len(c.Ints) + rows)[:0], c.Ints...)
		case TypeFloat:
			c.Floats = append(l.floats(len(c.Floats) + rows)[:0], c.Floats...)
		default:
			c.Strings = append(l.strs(len(c.Strings) + rows)[:0], c.Strings...)
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
			dst.Ints = appendSel(dst.Ints, src.Ints, b.Sel, b.nrows)
		case TypeFloat:
			dst.Floats = appendSel(dst.Floats, src.Floats, b.Sel, b.nrows)
		default:
			dst.Strings = appendSel(dst.Strings, src.Strings, b.Sel, b.nrows)
		}
	}
}

// Finish returns the accumulated batch (nil when empty, matching the
// empty-partition convention). The builder must not be reused afterwards.
func (bb *BatchBuilder) Finish() *Batch {
	if len(bb.cols) == 0 || bb.cols[0].Len() == 0 {
		return nil
	}
	return &Batch{Schema: bb.schema, Cols: bb.cols, nrows: bb.cols[0].Len()}
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
