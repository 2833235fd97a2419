package engine

// BatchBuilder accumulates rows column-wise into one output batch. It is the
// concatenation primitive for batch-native operators: pipeline sinks drain
// their stream into a builder, exchange scatters selected rows from many
// input batches into per-partition builders, and kernel flushes merge partial
// batches. The finished batch is always dense (no selection vector) and plain
// (no arena ownership), so it is safe to commit, checkpoint, or share.
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

// AppendSel accumulates the physical positions sel of a columnar batch,
// ignoring b's own selection vector (callers pass resolved positions). It is
// the gather half of exchange's hash+scatter and of the join probe.
func (bb *BatchBuilder) AppendSel(b *Batch, sel []int32) {
	if len(sel) == 0 {
		return
	}
	bb.ensureCols()
	for ci := range bb.cols {
		src := &b.Cols[ci]
		dst := &bb.cols[ci]
		switch dst.Type {
		case TypeInt:
			for _, p := range sel {
				dst.Ints = append(dst.Ints, src.Ints[p])
			}
		case TypeFloat:
			for _, p := range sel {
				dst.Floats = append(dst.Floats, src.Floats[p])
			}
		default:
			for _, p := range sel {
				dst.Strings = append(dst.Strings, src.Strings[p])
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
