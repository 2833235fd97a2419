package engine

import (
	"fmt"
	"strconv"
)

// BatchKernel is the batch-at-a-time implementation of a narrow operator.
// Process consumes one input batch and returns the output produced so far
// (nil when the kernel buffers, e.g. aggregation); Flush emits whatever state
// remains at end of stream. A kernel instance serves exactly one partition
// stream — stateful kernels are created fresh per attempt. The runtime's
// partition loop feeds them the source's slices one after the other.
type BatchKernel interface {
	Process(b *Batch) (*Batch, error)
	Flush() (*Batch, error)
}

// NewOperatorKernel returns a fresh kernel for op, or false when the operator
// has no batch kernel (wide or multi-input operators compute whole
// partitions; a join probed by a stream takes its build side through
// HashJoin.JoinKernel).
func NewOperatorKernel(op Operator) (BatchKernel, bool) {
	return NewOperatorKernelLocal(op, nil)
}

// NewOperatorKernelLocal is NewOperatorKernel with an arena Local attached:
// the kernel draws its output buffers from loc and consumes (releases) each
// input batch it successfully processes, so a pipelined chain of kernels
// recycles its buffers batch over batch. A nil loc disables recycling — the
// kernel then neither pools outputs nor releases inputs, which is how the
// wide operators' ComputeBatch runs them over shared committed batches.
func NewOperatorKernelLocal(op Operator, loc *Local) (BatchKernel, bool) {
	switch o := op.(type) {
	case *Select:
		return &filterKernel{op: o, loc: loc}, true
	case *Project:
		return &projectKernel{op: o, loc: loc}, true
	case *HashAggregate:
		return newAggKernelLocal(o, loc), true
	case *Limit:
		return &limitKernel{remaining: o.n, loc: loc}, true
	default:
		return nil, false
	}
}

// kernelBatches feeds whole input batches through a kernel and concatenates
// the outputs, for the operators' ComputeBatch (final aggregation merge,
// limit over all parts).
// Inputs are only read; single-batch outputs pass through without copying.
func kernelBatches(k BatchKernel, outSchema Schema, ins ...*Batch) (*Batch, error) {
	var outs []*Batch
	total := 0
	for _, in := range ins {
		if in.Len() == 0 {
			continue
		}
		ob, err := k.Process(in)
		if err != nil {
			return nil, err
		}
		if ob.Len() > 0 {
			outs = append(outs, ob)
			total += ob.Len()
		}
	}
	fb, err := k.Flush()
	if err != nil {
		return nil, err
	}
	if fb.Len() > 0 {
		outs = append(outs, fb)
		total += fb.Len()
	}
	switch len(outs) {
	case 0:
		return nil, nil
	case 1:
		return outs[0], nil
	}
	bb := NewBatchBuilder(outSchema)
	bb.Grow(total)
	for _, ob := range outs {
		bb.Append(ob)
	}
	return bb.Finish(), nil
}

// filterKernel applies a Select predicate: the compiled predicate narrows the
// selection vector without touching column data.
type filterKernel struct {
	op  *Select
	loc *Local
}

func (k *filterKernel) Process(b *Batch) (*Batch, error) {
	if k.op.cerr != nil {
		return nil, k.op.cerr
	}
	sel, err := k.op.cpred.filterInto(b, k.loc)
	if err != nil {
		return nil, err
	}
	if k.loc == nil {
		// No arena: the input may be a shared committed batch, so it is
		// only read — the output aliases its columns under a new shell.
		return &Batch{Schema: b.Schema, Cols: b.Cols, Sel: sel, nrows: b.nrows}, nil
	}
	// Transfer the input's column storage to the output and recycle the
	// input's shell before drawing the output's, so in the steady state
	// the same shell cycles between input and output.
	cols, colsPooled := b.takeCols()
	schema, nrows := b.Schema, b.nrows
	b.releaseShell(k.loc)
	out := k.loc.newBatch()
	out.Schema = schema
	out.Cols = cols
	out.colsPooled = colsPooled
	out.Sel = sel
	out.selPooled = true
	out.nrows = nrows
	return out, nil
}

func (k *filterKernel) Flush() (*Batch, error) { return nil, nil }

// projectKernel evaluates Project expressions: the compiled expressions
// produce the output vectors directly.
type projectKernel struct {
	op  *Project
	loc *Local
}

func (k *projectKernel) Process(b *Batch) (*Batch, error) {
	if k.op.cerr != nil {
		return nil, k.op.cerr
	}
	n := b.Len()
	cols := k.loc.cols(len(k.op.cexprs))
	for i, ce := range k.op.cexprs {
		v, err := ce.eval(b, b.Sel, k.loc)
		if err != nil {
			return nil, err
		}
		cols[i] = v
	}
	// With an arena attached the evaluated vectors are copies, so the
	// input (storage and shell) recycles before the output shell is
	// drawn; without one they may alias b, which stays untouched.
	b.Release(k.loc)
	out := k.loc.newBatch()
	out.Schema = k.op.schema
	out.Cols = cols
	out.colsPooled = k.loc != nil
	out.nrows = n
	return out, nil
}

func (k *projectKernel) Flush() (*Batch, error) { return nil, nil }

// aggKernel is the stateful grouping kernel behind HashAggregate: it
// accumulates group state across batches through typed column access and
// emits the sorted result at Flush. It embeds the oracle's groupTable for the
// group state and the output assembly (groupTable.rows); group signatures
// render values the same way on both paths.
type aggKernel struct {
	groupTable
	loc *Local
	sig []byte // reused per-row signature buffer
}

func newAggKernel(op *HashAggregate) *aggKernel { return newAggKernelLocal(op, nil) }

func newAggKernelLocal(op *HashAggregate, loc *Local) *aggKernel {
	return &aggKernel{groupTable: newGroupTable(op), loc: loc}
}

// appendSigValue renders one group-key value exactly like the interpreted
// fmt.Sprintf("%v|", v) does for the three vector types.
func appendSigValue(dst []byte, v *Vector, p int) []byte {
	switch v.Type {
	case TypeInt:
		dst = strconv.AppendInt(dst, v.Ints[p], 10)
	case TypeFloat:
		dst = strconv.AppendFloat(dst, v.Floats[p], 'g', -1, 64)
	default:
		dst = append(dst, v.Strings[p]...)
	}
	return append(dst, '|')
}

func (k *aggKernel) Process(b *Batch) (*Batch, error) {
	if b.Len() == 0 {
		b.Release(k.loc)
		return nil, nil
	}
	a := k.op
	width := len(b.Cols)
	for _, g := range a.groupCols {
		if g >= width {
			return nil, fmt.Errorf("engine: aggregate %s group column %d out of range", a.name, g)
		}
	}
	for _, spec := range a.aggs {
		if spec.Kind == AggCount {
			continue
		}
		if spec.Col >= width {
			return nil, fmt.Errorf("engine: aggregate %s column %d out of range", a.name, spec.Col)
		}
		if (spec.Kind == AggSum || spec.Kind == AggAvg) && b.Cols[spec.Col].Type == TypeString {
			return nil, fmt.Errorf("engine: aggregate %s over non-numeric string", a.name)
		}
	}
	n := b.Len()
	for i := 0; i < n; i++ {
		p := i
		if b.Sel != nil {
			p = int(b.Sel[i])
		}
		k.sig = k.sig[:0]
		for _, g := range a.groupCols {
			k.sig = appendSigValue(k.sig, &b.Cols[g], p)
		}
		st, ok := k.groups[string(k.sig)]
		if !ok {
			key := make(Row, len(a.groupCols))
			for gi, g := range a.groupCols {
				key[gi] = b.Cols[g].Value(p)
			}
			st = newAggState(key, len(a.aggs))
			sig := string(k.sig)
			k.groups[sig] = st
			k.order = append(k.order, sig)
		}
		for si, spec := range a.aggs {
			if spec.Kind == AggCount {
				st.counts[si]++
				continue
			}
			vec := &b.Cols[spec.Col]
			if vec.Type != TypeString {
				st.sums[si] += numAt(vec, p)
			}
			st.counts[si]++
			if spec.Kind == AggMin || spec.Kind == AggMax {
				st.updateMinMax(si, vec.Value(p))
			}
		}
	}
	// The group state boxes its own copies of the key values, so the input's
	// storage is no longer referenced and can recycle.
	b.Release(k.loc)
	return nil, nil
}

func (k *aggKernel) Flush() (*Batch, error) {
	out, err := k.rows()
	if err != nil || out == nil {
		return nil, err
	}
	ob, err := RowsToBatch(k.op.schema, out)
	if err != nil {
		return nil, fmt.Errorf("engine: aggregate %s output: %w", k.op.name, err)
	}
	return ob, nil
}

// limitKernel passes through the first remaining rows of the stream — a
// zero-copy slice of each batch until the budget runs out.
type limitKernel struct {
	remaining int
	loc       *Local
}

func (k *limitKernel) Process(b *Batch) (*Batch, error) {
	if k.remaining <= 0 {
		b.Release(k.loc)
		return nil, nil
	}
	n := b.Len()
	if n <= k.remaining {
		k.remaining -= n
		return b, nil
	}
	// The slice shares b's column storage, so b itself is not released — it
	// leaks to the GC once at the limit boundary, which is always safe.
	out := b.SliceLocal(0, k.remaining, k.loc)
	k.remaining = 0
	return out, nil
}

func (k *limitKernel) Flush() (*Batch, error) { return nil, nil }
