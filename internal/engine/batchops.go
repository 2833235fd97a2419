package engine

import (
	"fmt"
	"sort"
	"sync"
)

// BatchOperator is the batch-native face of an Operator: ComputeBatch
// produces one output partition directly as a columnar batch from the
// inputs' batch results, with no row materialization on the hot path. All
// in-tree operators implement it; the runtime dispatches through it
// exclusively, while the reference Coordinator runs the row-oriented Compute
// contract — the ground truth the byte-identical equivalence tests check the
// batch path against.
//
// Input batches are shared, committed results: ComputeBatch only reads them,
// and the batch it returns may itself be a view (a selection vector or column
// subset) over table or input storage.
type BatchOperator interface {
	Operator
	ComputeBatch(part int, inputs []*BatchResult) (*Batch, error)
}

// CheckColumnar reports why op cannot execute on typed columns — a predicate
// or expression that did not compile at construction, or an operator with no
// batch form — as an error wrapping ErrNotColumnar; nil when it can. The
// runtime checks every operator of a plan before it starts any work.
func CheckColumnar(op Operator) error {
	switch o := op.(type) {
	case *Scan:
		return o.cerr
	case *Select:
		return o.cerr
	case *Project:
		return o.cerr
	}
	if _, ok := op.(BatchOperator); !ok {
		return fmt.Errorf("engine: operator %s (%T) has no batch form: %w", op.Name(), op, ErrNotColumnar)
	}
	return nil
}

// BatchResult is an operator's output in batch form: one batch per node
// partition (nil = empty, mirroring the row convention of nil slices).
//
// A result handed to ComputeBatch is immutable: wide operators memoize their
// partition-independent work on it (sharedOnce), so whoever replaces a
// partition publishes a new BatchResult instead of writing into this one.
type BatchResult struct {
	Schema Schema
	Parts  []*Batch
	Lost   []bool

	// What a wide operator computes over all partitions whichever output
	// partition asks, by key column: an exchange's hash scatter ([]*Batch)
	// and a join's build side (*joinBuild).
	scatters, builds sync.Map
}

// sharedOnce returns m's state for key column col, building it on first use.
// Concurrent partition workers of one stage wait for the first builder and
// then read the same value, so the work is done once per input result: a
// recovery that replaced an input partition holds a new BatchResult and
// rebuilds, one whose inputs survived finds the state still there.
func sharedOnce[T any](m *sync.Map, col int, build func() T) T {
	type state struct {
		once sync.Once
		val  T
	}
	v, ok := m.Load(col)
	if !ok {
		v, _ = m.LoadOrStore(col, &state{})
	}
	st := v.(*state)
	st.once.Do(func() { st.val = build() })
	return st.val
}

// NewBatchResult creates an empty batch result with the given partition
// count.
func NewBatchResult(schema Schema, parts int) *BatchResult {
	return &BatchResult{Schema: schema, Parts: make([]*Batch, parts), Lost: make([]bool, parts)}
}

// ToPartitioned materializes the whole result as row partitions — the
// runtime's row-partitioned public contract, applied once to the root result.
func (r *BatchResult) ToPartitioned() *PartitionedResult {
	out := newResult(r.Schema, len(r.Parts))
	for i, b := range r.Parts {
		out.Parts[i] = b.ToRows()
	}
	if r.Lost != nil {
		copy(out.Lost, r.Lost)
	}
	return out
}

// ComputeBatch implements BatchOperator via the shared filter kernel.
func (s *Select) ComputeBatch(part int, inputs []*BatchResult) (*Batch, error) {
	k := &filterKernel{op: s}
	return kernelBatches(k, s.schema, inputs[0].Parts[part])
}

// ComputeBatch implements BatchOperator via the shared projection kernel.
func (p *Project) ComputeBatch(part int, inputs []*BatchResult) (*Batch, error) {
	k := &projectKernel{op: p}
	return kernelBatches(k, p.schema, inputs[0].Parts[part])
}

// ComputeBatch implements BatchOperator: the batch-native aggregation. The
// global form is the final-aggregation merge — every input partition's
// partial batch folds into one typed accumulator table in partition 0, with
// no row boxing between partial and final aggregation.
func (a *HashAggregate) ComputeBatch(part int, inputs []*BatchResult) (*Batch, error) {
	if a.global {
		if part != 0 {
			return nil, nil
		}
		return kernelBatches(newAggKernel(a), a.schema, inputs[0].Parts...)
	}
	return kernelBatches(newAggKernel(a), a.schema, inputs[0].Parts[part])
}

// ComputeBatch implements BatchOperator via the shared limit kernel.
func (l *Limit) ComputeBatch(part int, inputs []*BatchResult) (*Batch, error) {
	if l.n < 0 {
		return nil, fmt.Errorf("engine: limit %s has negative n", l.name)
	}
	if part != 0 {
		return nil, nil
	}
	return kernelBatches(&limitKernel{remaining: l.n}, l.schema, inputs[0].Parts...)
}

// ComputeBatch implements BatchOperator: a column-wise concatenation.
func (u *UnionAll) ComputeBatch(part int, inputs []*BatchResult) (*Batch, error) {
	left, right := inputs[0].Parts[part], inputs[1].Parts[part]
	// A single populated side passes through without copying (the batch is a
	// shared committed result either way).
	if right.Len() == 0 {
		return left, nil
	}
	if left.Len() == 0 {
		return right, nil
	}
	bb := NewBatchBuilder(u.schema)
	bb.Grow(left.Len() + right.Len())
	bb.Append(left)
	bb.Append(right)
	return bb.Finish(), nil
}

// concatParts returns every row of parts as one dense batch in (partition,
// row) order: nil when there are none, the partition itself when it is the
// only populated one and already dense, otherwise one exact-size copy.
func concatParts(schema Schema, parts []*Batch) *Batch {
	total, populated := 0, 0
	var only *Batch
	for _, b := range parts {
		if n := b.Len(); n > 0 {
			total += n
			populated++
			only = b
		}
	}
	if populated == 1 && only.Sel == nil {
		return only
	}
	bb := NewBatchBuilder(schema)
	bb.Grow(total)
	for _, b := range parts {
		bb.Append(b)
	}
	return bb.Finish()
}

// ComputeBatch implements BatchOperator: the vectorized repartitioning. The
// scatter is shared by all output partitions: the first one asked hashes
// every input row once and writes all n outputs (scatterByHash); the others
// pick theirs up.
func (e *Exchange) ComputeBatch(part int, inputs []*BatchResult) (*Batch, error) {
	in := inputs[0]
	for _, b := range in.Parts {
		if b.Len() > 0 && e.keyCol >= len(b.Cols) {
			return nil, fmt.Errorf("engine: exchange %s key column %d out of range", e.name, e.keyCol)
		}
	}
	outs := sharedOnce(&in.scatters, e.keyCol, func() []*Batch {
		return scatterByHash(e.schema, in.Parts, e.keyCol)
	})
	return outs[part], nil
}

// scatterByHash hash-partitions the rows of parts on column keyCol into
// len(parts) dense batches in one pass: hash each row once and count per
// destination, allocate every output column at its exact size, then write
// column by column. Each output keeps (input partition, row) order, which is
// the row path's order, and rows land where hashValue puts them.
func scatterByHash(schema Schema, parts []*Batch, keyCol int) []*Batch {
	n := len(parts)
	total := 0
	for _, b := range parts {
		total += b.Len()
	}
	outs := make([]*Batch, n)
	dest := make([]int32, 0, total)
	counts := make([]int, n)
	for _, b := range parts {
		for i, m := 0, b.Len(); i < m; i++ {
			p := i
			if b.Sel != nil {
				p = int(b.Sel[i])
			}
			d := int32(hashVectorAt(&b.Cols[keyCol], p) % uint64(n))
			dest = append(dest, d)
			counts[d]++
		}
	}
	for d, c := range counts {
		if c > 0 {
			outs[d] = &Batch{Schema: schema, Cols: make([]Vector, len(schema)), nrows: c}
		}
	}
	for ci, c := range schema {
		switch c.Type {
		case TypeInt:
			scatterColumn(outs, parts, ci, dest, func(v *Vector) *[]int64 { return &v.Ints })
		case TypeFloat:
			scatterColumn(outs, parts, ci, dest, func(v *Vector) *[]float64 { return &v.Floats })
		default:
			scatterColumn(outs, parts, ci, dest, func(v *Vector) *[]string { return &v.Strings })
		}
	}
	return outs
}

// scatterColumn allocates column ci of every output at its row count and
// writes each logical row of parts to the output dest names for it.
func scatterColumn[T any](outs, parts []*Batch, ci int, dest []int32, vals func(*Vector) *[]T) {
	dst := make([][]T, len(outs))
	for d, ob := range outs {
		if ob != nil {
			dst[d] = make([]T, ob.nrows)
			ob.Cols[ci].Type = ob.Schema[ci].Type
			*vals(&ob.Cols[ci]) = dst[d]
		}
	}
	pos := make([]int, len(outs))
	k := 0
	for _, b := range parts {
		if b.Len() == 0 {
			continue
		}
		src := *vals(&b.Cols[ci])
		for i, m := 0, b.Len(); i < m; i++ {
			p := i
			if b.Sel != nil {
				p = int(b.Sel[i])
			}
			d := dest[k]
			k++
			dst[d][pos[d]] = src[p]
			pos[d]++
		}
	}
}

// joinBuild is the build side of a broadcast hash join, shared read-only by
// every probe partition: the dense concatenation of the build input and a
// chained hash index over its key column.
type joinBuild struct {
	dense  *Batch   // every build row, in (partition, row) order; nil when empty
	hashes []uint64 // key hash of each dense row
	head   []int32  // bucket → first dense row, -1 when empty
	next   []int32  // dense row → next row of its bucket in insertion order, -1 at the end
	mask   uint64   // len(head) - 1, a power of two minus one
	badKey bool     // keyCol is out of range for some build row; nothing is indexed
}

func newJoinBuild(schema Schema, parts []*Batch, keyCol int) *joinBuild {
	for _, b := range parts {
		if b.Len() > 0 && keyCol >= len(b.Cols) {
			return &joinBuild{badKey: true}
		}
	}
	dense := concatParts(schema, parts)
	if dense == nil {
		return &joinBuild{}
	}
	nb := dense.Len()
	size := 1
	for size < nb {
		size <<= 1
	}
	jb := &joinBuild{
		dense:  dense,
		hashes: make([]uint64, nb),
		head:   make([]int32, size),
		next:   make([]int32, nb),
		mask:   uint64(size - 1),
	}
	for i := range jb.head {
		jb.head[i] = -1
	}
	// Pushing rows at the bucket head in reverse leaves every chain in
	// ascending row order — the row path's in-bucket insertion order.
	for i := nb - 1; i >= 0; i-- {
		h := hashVectorAt(&dense.Cols[keyCol], i)
		jb.hashes[i] = h
		jb.next[i] = jb.head[h&jb.mask]
		jb.head[h&jb.mask] = int32(i)
	}
	return jb
}

// ComputeBatch implements BatchOperator: the vectorized broadcast hash join
// as a stage source (its probe input is materialized or shared), one probe
// over the whole partition with plain allocations.
func (j *HashJoin) ComputeBatch(part int, inputs []*BatchResult) (*Batch, error) {
	return j.probe(inputs[0], inputs[1].Parts[part], nil)
}

// JoinKernel returns the join chained onto its probe input's stage: a kernel
// that probes each batch of the probe stream against build and releases it
// into loc, drawing its output from loc.
func (j *HashJoin) JoinKernel(build *BatchResult, loc *Local) BatchKernel {
	return &joinKernel{op: j, build: build, loc: loc}
}

type joinKernel struct {
	op    *HashJoin
	build *BatchResult
	loc   *Local
}

func (k *joinKernel) Process(b *Batch) (*Batch, error) {
	out, err := k.op.probe(k.build, b, k.loc)
	if err == nil {
		// The output is gathered, so the probe batch is no longer read. (On
		// error out is nil and b leaks to the GC, which is always safe.)
		b.Release(k.loc)
	}
	return out, err
}

func (k *joinKernel) Flush() (*Batch, error) { return nil, nil }

// probe is the vectorized broadcast hash join of one probe batch, whole
// partition or stream slice. The build side — one dense columnar batch plus a
// hash index over its key, in the row path's exact insertion order — is built
// once per build result and shared by every caller (newJoinBuild); probe
// scans the probe rows emitting a matching (probe position, build position)
// selection pair, and a single column-wise gather materializes the output
// vectors — the project columns of probe ++ build and no others, rows in probe
// order with in-bucket build order, byte-identical to the row loop. Rows
// sharing a bucket but not a hash are skipped; equal hashes are resolved with
// the same typed comparison (and error wording) as compareValues. The
// selections and the output come from loc (plain allocations when nil); the
// probe batch is only read.
func (j *HashJoin) probe(build *BatchResult, probeB *Batch, loc *Local) (*Batch, error) {
	np := probeB.Len()
	if np == 0 {
		return nil, nil
	}
	if j.probeKey >= len(probeB.Cols) {
		return nil, fmt.Errorf("engine: join %s probe key out of range", j.name)
	}
	jb := sharedOnce(&build.builds, j.buildKey, func() *joinBuild {
		return newJoinBuild(j.inputs[0].OutSchema(), build.Parts, j.buildKey)
	})
	if jb.badKey {
		return nil, fmt.Errorf("engine: join %s build key out of range", j.name)
	}
	dense := jb.dense
	if dense == nil {
		return nil, nil
	}

	buildKeyVec := &dense.Cols[j.buildKey]
	probeKeyVec := &probeB.Cols[j.probeKey]
	probeSel := loc.sel(np)[:0]
	buildSel := loc.sel(np)[:0]
	for i := 0; i < np; i++ {
		p := i
		if probeB.Sel != nil {
			p = int(probeB.Sel[i])
		}
		h := hashVectorAt(probeKeyVec, p)
		for bi := jb.head[h&jb.mask]; bi >= 0; bi = jb.next[bi] {
			if jb.hashes[bi] != h {
				continue // bucket neighbour
			}
			cmp, err := compareVecVals(probeKeyVec, p, buildKeyVec, int(bi))
			if err != nil {
				return nil, err
			}
			if cmp != 0 {
				continue // hash collision
			}
			probeSel = append(probeSel, int32(p))
			buildSel = append(buildSel, bi)
		}
	}
	var out *Batch
	if n := len(probeSel); n > 0 {
		cols := loc.cols(len(j.project))
		for i, c := range j.project {
			if c < j.probeWidth {
				cols[i] = loc.gatherVector(&probeB.Cols[c], probeSel, n)
			} else {
				cols[i] = loc.gatherVector(&dense.Cols[c-j.probeWidth], buildSel, n)
			}
		}
		out = loc.newBatch()
		out.Schema = j.schema
		out.Cols = cols
		out.colsPooled = loc != nil
		out.nrows = n
	}
	loc.putSel(probeSel)
	loc.putSel(buildSel)
	return out, nil
}

// ComputeBatch implements BatchOperator: a global sort as one stable index
// sort over the dense concatenation of all input partitions, followed by a
// column-wise gather in sorted order. Comparison semantics (numeric coercion
// through float64, NaN ordering, stability) match the row path exactly.
func (s *Sort) ComputeBatch(part int, inputs []*BatchResult) (*Batch, error) {
	if part != 0 {
		return nil, nil
	}
	dense := concatParts(s.inputs[0].OutSchema(), inputs[0].Parts)
	if dense == nil {
		return nil, nil
	}
	n := dense.Len()
	col := &dense.Cols[s.col]
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	var sortErr error
	sort.SliceStable(idx, func(i, j int) bool {
		c, err := compareVecVals(col, int(idx[i]), col, int(idx[j]))
		if err != nil {
			sortErr = err
			return false
		}
		if s.desc {
			return c > 0
		}
		return c < 0
	})
	if sortErr != nil {
		return nil, sortErr
	}
	cols := make([]Vector, len(dense.Cols))
	for ci := range dense.Cols {
		cols[ci] = dense.Cols[ci].gather(idx)
	}
	return &Batch{Schema: s.schema, Cols: cols, nrows: n}, nil
}

// ComputeBatch implements BatchOperator. The signature's unused inputs keep
// Scan on the shared dispatch path; base tables have no producer inputs.
//
// (The implementation lives in ops.go next to the row face.)

// compareVecVals mirrors compareValues over typed vector elements: numeric
// types compare through float64 (including int64 values, whose coercion can
// lose precision above 2^53 — identical on both paths), strings compare
// lexicographically, and mixed numeric/string comparisons fail with the row
// path's exact error wording.
func compareVecVals(a *Vector, i int, b *Vector, j int) (int, error) {
	if a.Type != TypeString {
		if b.Type == TypeString {
			return 0, fmt.Errorf("engine: cannot compare %s with %s", goTypeName(a.Type), goTypeName(b.Type))
		}
		fa, fb := numAt(a, i), numAt(b, j)
		switch {
		case fa < fb:
			return -1, nil
		case fa > fb:
			return 1, nil
		default:
			return 0, nil
		}
	}
	if b.Type != TypeString {
		return 0, fmt.Errorf("engine: cannot compare string with %s", goTypeName(b.Type))
	}
	sa, sb := a.Strings[i], b.Strings[j]
	switch {
	case sa < sb:
		return -1, nil
	case sa > sb:
		return 1, nil
	default:
		return 0, nil
	}
}
