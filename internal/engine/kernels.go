package engine

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
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

// NewOperatorKernel returns a fresh kernel for op, or false when the
// operator has no batch kernel (wide or multi-input operators compute whole
// partitions; a join probed by a stream takes its build side through
// HashJoin.JoinKernel). The kernel draws its output buffers from loc and
// consumes (releases) each input batch it successfully processes, so a
// pipelined chain of kernels recycles its buffers batch over batch. A nil loc
// disables recycling — the kernel then neither pools outputs nor releases
// inputs, which is how the operators' ComputeBatch runs them over shared
// committed batches.
func NewOperatorKernel(op Operator, loc *Local) (BatchKernel, bool) {
	switch o := op.(type) {
	case *Select:
		return &filterKernel{op: o, loc: loc}, true
	case *Project:
		return &projectKernel{op: o, loc: loc}, true
	case *HashAggregate:
		return &aggKernel{op: o, loc: loc}, true
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
	bb.Grow(total, nil)
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
// Compute's alone). It finds each row's group through an open-addressing
// table over the typed key values, keeps the key columns and each aggregate's
// accumulators as typed slices indexed by group, and at Flush sorts the
// groups by signature — the oracle's output order — and gathers each output
// column once. No value is boxed, and with an arena Local attached every
// slice of state comes from it and goes back to it at Flush.
//
// Group identity is the oracle's: the signature, fmt's "%v|" per key column.
// Keys the table holds as one (equal ints or strings, floats of equal bits,
// any two NaNs) share a signature. Distinct keys share one only when a string
// in them holds '|' and the key has more than one column, as ("a", "b|") and
// ("a|b", "") do: every other signature splits back into its columns at its
// '|'s, and each column's rendering is injective. So only such a key renders
// its signature, and the signature map decides whether it opens a group or
// joins the group of another key with that signature.
type aggKernel struct {
	op    *HashAggregate
	loc   *Local
	gids  []int32 // reused: each row's group, for the window at hand
	slots []int32 // open addressing: group+1, 0 when free
	shift uint    // a key hash's home slot is its top bits: h >> shift
	n     int     // groups
	keys  []Vector
	accs  []aggAcc // per aggregate: group → state

	// Keys that can alias another's signature: whether the key has them, the
	// reused signature buffer, and signature → group for those rendered.
	aliasing bool
	sig      []byte
	index    map[string]int32
}

// aggAcc is one aggregate's state, indexed by group; a kind keeps only the
// slices it reads.
type aggAcc struct {
	sums   []float64 // SUM, AVG and its merge
	counts []int64   // COUNT, AVG and their merges
	ext    Vector    // MIN or MAX: the extreme value so far, in the argument's type
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
			k.keys[ki] = Vector{Type: b.Cols[g].Type, pooled: k.loc != nil}
			k.aliasing = k.aliasing || (len(a.groupCols) > 1 && k.keys[ki].Type == TypeString)
		}
		k.accs = make([]aggAcc, len(a.aggs))
		for si, spec := range a.aggs {
			if spec.Kind == AggMin || spec.Kind == AggMax {
				k.accs[si].ext = Vector{Type: b.Cols[spec.Col].Type, pooled: k.loc != nil}
			}
		}
		k.gids = k.loc.sel(DefaultBatchSize)[:0]
		k.slots, k.shift = k.loc.sel(1<<arenaMinBits), 64-arenaMinBits
		clear(k.slots)
	}
	// A whole partition (the batch form) goes through in windows, so the
	// per-row group buffer stays one window long.
	for lo, n := 0, b.Len(); lo < n; lo += DefaultBatchSize {
		gids := k.gids[:0]
		for i := lo; i < min(lo+DefaultBatchSize, n); i++ {
			gids = append(gids, k.group(b, at(b.Sel, i)))
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

// keyHash folds element p of one key column into h. Floats hash by bits with
// every NaN alike, strings by FNV-1a (hashString).
func keyHash(h uint64, v *Vector, p int) uint64 {
	var x uint64
	switch v.Type {
	case TypeInt:
		x = uint64(v.Ints[p])
	case TypeFloat:
		if f := v.Floats[p]; f == f {
			x = math.Float64bits(f)
		}
	default:
		x = hashString(v.Strings[p])
	}
	return intHash(int64(h ^ x))
}

// group returns the group of row p of b.
func (k *aggKernel) group(b *Batch, p int) int32 {
	cols := k.op.groupCols
	var h uint64
	for _, g := range cols {
		h = keyHash(h, &b.Cols[g], p)
	}
	mask := len(k.slots) - 1
probe:
	for s := int(h >> k.shift); ; s = (s + 1) & mask {
		gi := k.slots[s] - 1
		if gi < 0 {
			return k.newKey(b, p, s)
		}
		for ki, g := range cols {
			if !sameKey(&k.keys[ki], int(gi), &b.Cols[g], p) {
				continue probe
			}
		}
		return gi
	}
}

// sameKey reports whether element i of a and element p of v, vectors of one
// type, are one key: equal ints or strings, floats of equal bits, or NaNs.
func sameKey(a *Vector, i int, v *Vector, p int) bool {
	switch a.Type {
	case TypeInt:
		return a.Ints[i] == v.Ints[p]
	case TypeFloat:
		x, y := a.Floats[i], v.Floats[p]
		return math.Float64bits(x) == math.Float64bits(y) || (x != x && y != y)
	default:
		return a.Strings[i] == v.Strings[p]
	}
}

// newKey returns the group of row p of b, whose key the table lacks: the
// group its signature names, or a new one, entered at free slot s (the table
// doubles past half full). A key aliasing another group's signature stays
// out of the table, so its rows render the signature every time.
func (k *aggKernel) newKey(b *Batch, p, s int) int32 {
	if k.aliasing && k.holdsBar(b, p) {
		k.sig = k.sig[:0]
		for _, g := range k.op.groupCols {
			k.sig = appendSigValue(k.sig, &b.Cols[g], p)
		}
		if gi, ok := k.index[string(k.sig)]; ok {
			return gi
		}
		if k.index == nil {
			k.index = make(map[string]int32)
		}
		k.index[string(k.sig)] = int32(k.n)
	}
	gi := k.newGroup(b, p)
	k.slots[s] = gi + 1
	if 2*k.n > len(k.slots) {
		old := k.slots
		k.slots, k.shift = k.loc.sel(2*len(old)), k.shift-1
		clear(k.slots)
		k.loc.putSel(old)
		mask := len(k.slots) - 1
		for g := range k.n {
			var h uint64
			for ki := range k.keys {
				h = keyHash(h, &k.keys[ki], g)
			}
			s := int(h >> k.shift)
			for k.slots[s] != 0 {
				s = (s + 1) & mask
			}
			k.slots[s] = int32(g) + 1
		}
	}
	return gi
}

// holdsBar reports whether a string column of row p's key holds '|'.
func (k *aggKernel) holdsBar(b *Batch, p int) bool {
	for _, g := range k.op.groupCols {
		if v := &b.Cols[g]; v.Type == TypeString && strings.IndexByte(v.Strings[p], '|') >= 0 {
			return true
		}
	}
	return false
}

// newGroup opens the group of row p. MIN and MAX start at the row's value,
// which the fold that follows compares to itself.
func (k *aggKernel) newGroup(b *Batch, p int) int32 {
	gi := int32(k.n)
	k.n++
	for ki, g := range k.op.groupCols {
		k.keys[ki].appendAtLocal(&b.Cols[g], p, k.loc)
	}
	for si, spec := range k.op.aggs {
		acc := &k.accs[si]
		switch spec.Kind {
		case AggMin, AggMax:
			acc.ext.appendAtLocal(&b.Cols[spec.Col], p, k.loc)
			continue
		case AggSum, AggAvg, aggAvgMerge:
			acc.sums = append(regrow(k.loc, acc.sums, (*Local).floats, (*Local).putFloats), 0)
		}
		if spec.Kind != AggSum {
			acc.counts = append(regrow(k.loc, acc.counts, (*Local).ints, (*Local).putInts), 0)
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
// then each aggregate's value, gathered column by column into buffers from
// the Local, to which the kernel's state then goes back. An output schema the
// values do not fit is an ErrNotColumnar error.
func (k *aggKernel) Flush() (*Batch, error) {
	n := k.n
	if n == 0 {
		return nil, nil
	}
	a := k.op
	if len(a.schema) != len(a.groupCols)+len(a.aggs) {
		return nil, fmt.Errorf("engine: aggregate %s yields %d columns, its schema %d: %w",
			a.name, len(a.groupCols)+len(a.aggs), len(a.schema), ErrNotColumnar)
	}
	order := k.sortedGroups()
	cols := k.loc.cols(len(a.schema))
	for ki := range k.keys {
		cols[ki] = k.loc.gatherVector(&k.keys[ki], order, n)
	}
	for si, spec := range a.aggs {
		acc := &k.accs[si]
		var v Vector
		switch spec.Kind {
		case AggSum:
			v = k.loc.gatherVector(&Vector{Type: TypeFloat, Floats: acc.sums}, order, n)
		case AggCount, aggCountMerge:
			v = k.loc.gatherVector(&Vector{Type: TypeInt, Ints: acc.counts}, order, n)
		case AggAvg, aggAvgMerge:
			v = Vector{Type: TypeFloat, Floats: k.loc.floats(n), pooled: k.loc != nil}
			for i, g := range order {
				v.Floats[i] = 0
				if c := acc.counts[g]; c != 0 {
					v.Floats[i] = acc.sums[g] / float64(c)
				}
			}
		case AggMin, AggMax:
			v = k.loc.gatherVector(&acc.ext, order, n)
		default:
			return nil, fmt.Errorf("engine: unknown aggregate kind %d", int(spec.Kind))
		}
		cols[len(k.keys)+si] = v
	}
	k.loc.putSel(order)
	k.release()
	for ci := range cols {
		if cols[ci].Type != a.schema[ci].Type {
			return nil, fmt.Errorf("engine: aggregate %s output column %d (%s) holds %s values, column is %s: %w",
				a.name, ci, a.schema[ci].Name, cols[ci].Type, a.schema[ci].Type, ErrNotColumnar)
		}
	}
	out := k.loc.newBatch()
	out.Schema, out.Cols, out.colsPooled, out.nrows = a.schema, cols, k.loc != nil, n
	return out, nil
}

// sortedGroups returns the groups in signature order, in a buffer from the
// Local. The signatures are rendered once, back to back into one slab; no two
// groups share one, so the order is total.
func (k *aggKernel) sortedGroups() []int32 {
	n := k.n
	ends := k.loc.sel(n) // group g's signature is slab[ends[g-1]:ends[g]]
	slab := make([]byte, 0, 8*n*len(k.keys))
	for g := range n {
		for ki := range k.keys {
			slab = appendSigValue(slab, &k.keys[ki], g)
		}
		ends[g] = int32(len(slab))
	}
	sig := func(g int32) []byte {
		lo := int32(0)
		if g > 0 {
			lo = ends[g-1]
		}
		return slab[lo:ends[g]]
	}
	order := k.loc.sel(n)
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(x, y int32) int { return bytes.Compare(sig(x), sig(y)) })
	k.loc.putSel(ends)
	return order
}

// release hands the kernel's state back to its Local once Flush has gathered
// the output from it; the kernel is not used afterwards.
func (k *aggKernel) release() {
	for ki := range k.keys {
		k.keys[ki].Release(k.loc)
	}
	for si := range k.accs {
		acc := &k.accs[si]
		if cap(acc.sums) > 0 {
			k.loc.putFloats(acc.sums)
		}
		if cap(acc.counts) > 0 {
			k.loc.putInts(acc.counts)
		}
		acc.ext.Release(k.loc)
		*acc = aggAcc{}
	}
	k.loc.putSel(k.gids)
	k.loc.putSel(k.slots)
	k.gids, k.slots = nil, nil
}

// limitKernel passes through the first remaining rows of the stream — a
// zero-copy slice of each batch until the budget runs out. It serves only
// Limit.ComputeBatch, over shared committed batches, so it releases nothing.
type limitKernel struct {
	remaining int
}

func (k *limitKernel) Process(b *Batch) (*Batch, error) {
	if k.remaining <= 0 {
		return nil, nil
	}
	n := b.Len()
	if n <= k.remaining {
		k.remaining -= n
		return b, nil
	}
	out := b.SliceLocal(0, k.remaining, nil)
	k.remaining = 0
	return out, nil
}

func (k *limitKernel) Flush() (*Batch, error) { return nil, nil }
