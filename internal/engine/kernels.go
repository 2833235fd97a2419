package engine

import (
	"fmt"
	"sort"
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

// aggKernel is the typed grouping kernel behind HashAggregate's batch forms,
// every phase of a two-phase aggregation included (the oracle's groupTable is
// Compute's alone). It keeps a signature → group map, the key columns and
// each aggregate's accumulators as typed slices indexed by group, and at Flush
// sorts the groups by signature — the oracle's output order — and gathers
// each output column once. No value is boxed.
type aggKernel struct {
	op    *HashAggregate
	loc   *Local
	sig   []byte           // reused per-row signature buffer
	gids  []int32          // reused: each row's group, for the window at hand
	index map[string]int32 // group signature → group
	sigs  []string         // group → signature
	keys  []Vector         // per group column: group → key value
	accs  []aggAcc         // per aggregate: group → state
}

// aggAcc is one aggregate's state, indexed by group.
type aggAcc struct {
	sums   []float64 // SUM, AVG and its merge
	counts []int64   // COUNT, AVG and their merges
	ext    Vector    // MIN or MAX: the extreme value so far, in the argument's type
}

func newAggKernel(op *HashAggregate) *aggKernel { return newAggKernelLocal(op, nil) }

func newAggKernelLocal(op *HashAggregate, loc *Local) *aggKernel {
	return &aggKernel{op: op, loc: loc, index: make(map[string]int32)}
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

// check rejects a batch the aggregate cannot fold, in the oracle's words
// where the oracle has an error for it.
func (k *aggKernel) check(b *Batch) error {
	a := k.op
	width := len(b.Cols)
	for _, g := range a.groupCols {
		if g >= width {
			return fmt.Errorf("engine: aggregate %s group column %d out of range", a.name, g)
		}
	}
	for _, spec := range a.aggs {
		if spec.Kind == AggCount {
			continue
		}
		if spec.Col >= width || (spec.Kind == aggAvgMerge && spec.Col+1 >= width) {
			return fmt.Errorf("engine: aggregate %s column %d out of range", a.name, spec.Col)
		}
		if spec.Kind == AggMin || spec.Kind == AggMax {
			continue
		}
		if b.Cols[spec.Col].Type == TypeString {
			return fmt.Errorf("engine: aggregate %s over non-numeric string", a.name)
		}
		count := -1 // the column holding partial counts, for a merge
		switch spec.Kind {
		case aggCountMerge:
			count = spec.Col
		case aggAvgMerge:
			count = spec.Col + 1
		}
		if count >= 0 && b.Cols[count].Type != TypeInt {
			return fmt.Errorf("engine: aggregate %s merges a count of type %s", a.name, goTypeName(b.Cols[count].Type))
		}
	}
	return nil
}

func (k *aggKernel) Process(b *Batch) (*Batch, error) {
	if b.Len() == 0 {
		b.Release(k.loc)
		return nil, nil
	}
	if err := k.check(b); err != nil {
		return nil, err
	}
	a := k.op
	if k.accs == nil { // every batch of the stream has the first one's column types
		k.keys = make([]Vector, len(a.groupCols))
		for ki, g := range a.groupCols {
			k.keys[ki].Type = b.Cols[g].Type
		}
		k.accs = make([]aggAcc, len(a.aggs))
		for si, spec := range a.aggs {
			if spec.Kind == AggMin || spec.Kind == AggMax {
				k.accs[si].ext.Type = b.Cols[spec.Col].Type
			}
		}
	}
	// A whole partition (the batch form) goes through in windows, so the
	// per-row group buffer stays one window long.
	for lo, n := 0, b.Len(); lo < n; lo += DefaultBatchSize {
		gids := k.gids[:0]
		for i := lo; i < min(lo+DefaultBatchSize, n); i++ {
			p := at(b.Sel, i)
			k.sig = k.sig[:0]
			for _, g := range a.groupCols {
				k.sig = appendSigValue(k.sig, &b.Cols[g], p)
			}
			gi, ok := k.index[string(k.sig)]
			if !ok {
				gi = k.newGroup(b, p)
			}
			gids = append(gids, gi)
		}
		k.gids = gids
		for si, spec := range a.aggs {
			k.accs[si].fold(spec, b, lo, gids)
		}
	}
	// The state holds its own copies of the keys and values, so the input's
	// storage is no longer referenced and can recycle.
	b.Release(k.loc)
	return nil, nil
}

// newGroup opens the group of row p, whose signature is in k.sig. MIN and MAX
// start at the row's value, which the fold that follows compares to itself.
func (k *aggKernel) newGroup(b *Batch, p int) int32 {
	gi := int32(len(k.sigs))
	sig := string(k.sig)
	k.index[sig] = gi
	k.sigs = append(k.sigs, sig)
	for ki, g := range k.op.groupCols {
		k.keys[ki].appendAt(&b.Cols[g], p)
	}
	for si, spec := range k.op.aggs {
		acc := &k.accs[si]
		acc.sums = append(acc.sums, 0)
		acc.counts = append(acc.counts, 0)
		if spec.Kind == AggMin || spec.Kind == AggMax {
			acc.ext.appendAt(&b.Cols[spec.Col], p)
		}
	}
	return gi
}

// fold adds the batch's rows from logical row lo on, row lo+i to group
// gids[i], in row order: the oracle's order of float additions within a group.
func (acc *aggAcc) fold(spec AggSpec, b *Batch, lo int, gids []int32) {
	sel := b.Sel
	switch spec.Kind {
	case AggCount:
		for _, g := range gids {
			acc.counts[g]++
		}
	case AggSum, AggAvg, aggAvgMerge:
		sumInto(acc.sums, &b.Cols[spec.Col], sel, lo, gids)
		switch spec.Kind {
		case AggAvg:
			for _, g := range gids {
				acc.counts[g]++
			}
		case aggAvgMerge:
			countInto(acc.counts, b.Cols[spec.Col+1].Ints, sel, lo, gids)
		}
	case aggCountMerge:
		countInto(acc.counts, b.Cols[spec.Col].Ints, sel, lo, gids)
	case AggMin, AggMax:
		want := -1
		if spec.Kind == AggMax {
			want = 1
		}
		v := &b.Cols[spec.Col]
		for i, g := range gids {
			p := at(sel, lo+i)
			// One column type on both sides: the comparison cannot fail.
			if c, _ := compareVecVals(v, p, &acc.ext, int(g)); c == want {
				acc.ext.setAt(int(g), v, p)
			}
		}
	}
}

// sumInto adds each value of v in the window to its group's sum.
func sumInto(sums []float64, v *Vector, sel []int32, lo int, gids []int32) {
	if v.Type == TypeInt {
		for i, g := range gids {
			sums[g] += float64(v.Ints[at(sel, lo+i)])
		}
		return
	}
	for i, g := range gids {
		sums[g] += v.Floats[at(sel, lo+i)]
	}
}

// countInto adds each partial count in the window to its group's count.
func countInto(counts, partial []int64, sel []int32, lo int, gids []int32) {
	for i, g := range gids {
		counts[g] += partial[at(sel, lo+i)]
	}
}

// Flush emits one row per group, ordered by signature: the group columns,
// then each aggregate's value, gathered column by column. An output schema
// the values do not fit is an ErrNotColumnar error.
func (k *aggKernel) Flush() (*Batch, error) {
	n := len(k.sigs)
	if n == 0 {
		return nil, nil
	}
	a := k.op
	if len(a.schema) != len(a.groupCols)+len(a.aggs) {
		return nil, fmt.Errorf("engine: aggregate %s yields %d columns, its schema %d: %w",
			a.name, len(a.groupCols)+len(a.aggs), len(a.schema), ErrNotColumnar)
	}
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(i, j int) bool { return k.sigs[order[i]] < k.sigs[order[j]] })
	cols := make([]Vector, 0, len(a.schema))
	for ki := range k.keys {
		cols = append(cols, k.keys[ki].gather(order))
	}
	for si, spec := range a.aggs {
		acc := &k.accs[si]
		var v Vector
		switch spec.Kind {
		case AggSum:
			v = Vector{Type: TypeFloat, Floats: acc.sums}
		case AggCount, aggCountMerge:
			v = Vector{Type: TypeInt, Ints: acc.counts}
		case AggAvg, aggAvgMerge:
			avgs := make([]float64, n)
			for g, c := range acc.counts {
				if c != 0 {
					avgs[g] = acc.sums[g] / float64(c)
				}
			}
			v = Vector{Type: TypeFloat, Floats: avgs}
		case AggMin, AggMax:
			v = acc.ext
		default:
			return nil, fmt.Errorf("engine: unknown aggregate kind %d", int(spec.Kind))
		}
		cols = append(cols, v.gather(order))
	}
	for ci := range cols {
		if cols[ci].Type != a.schema[ci].Type {
			return nil, fmt.Errorf("engine: aggregate %s output column %d (%s) holds %s values, column is %s: %w",
				a.name, ci, a.schema[ci].Name, cols[ci].Type, a.schema[ci].Type, ErrNotColumnar)
		}
	}
	return &Batch{Schema: a.schema, Cols: cols, nrows: n}, nil
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
