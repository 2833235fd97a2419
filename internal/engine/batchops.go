package engine

import (
	"fmt"
	"sort"
)

// BatchOperator is the batch-native face of an Operator: ComputeBatch
// produces one output partition directly as a columnar batch from the
// inputs' batch results, with no row materialization on the hot path. All
// in-tree operators implement it; the runtime dispatches through it
// exclusively, while the reference Coordinator runs the row-oriented Compute
// contract — the ground truth the byte-identical equivalence tests check the
// batch path against.
//
// Input batches are shared, committed results: ComputeBatch only reads them.
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
type BatchResult struct {
	Schema Schema
	Parts  []*Batch
	Lost   []bool
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
	bb.Append(left)
	bb.Append(right)
	return bb.Finish(), nil
}

// ComputeBatch implements BatchOperator: the vectorized repartitioning.
// Each input batch is hashed column-wise on the key (via hashValue's typed
// helpers, so rows land exactly where the row path puts them), the positions
// belonging to this output partition are collected into a selection vector,
// and one column-wise gather appends them to the output builder.
func (e *Exchange) ComputeBatch(part int, inputs []*BatchResult) (*Batch, error) {
	in := inputs[0]
	n := uint64(len(in.Parts))
	bb := NewBatchBuilder(e.schema)
	var sel []int32 // scatter scratch, reused across input partitions
	for _, b := range in.Parts {
		if b.Len() == 0 {
			continue
		}
		if e.keyCol >= len(b.Cols) {
			return nil, fmt.Errorf("engine: exchange %s key column %d out of range", e.name, e.keyCol)
		}
		key := &b.Cols[e.keyCol]
		m := b.Len()
		sel = sel[:0]
		for i := 0; i < m; i++ {
			p := i
			if b.Sel != nil {
				p = int(b.Sel[i])
			}
			if int(hashVectorAt(key, p)%n) == part {
				sel = append(sel, int32(p))
			}
		}
		bb.AppendSel(b, sel)
	}
	return bb.Finish(), nil
}

// ComputeBatch implements BatchOperator: the vectorized broadcast hash join.
// The build side is concatenated into one dense columnar batch per output
// partition and indexed once (hash → dense row positions, in the row path's
// exact insertion order); the probe then scans its partition emitting a
// matching (probe position, build position) selection-vector pair, and a
// single column-wise gather materializes the output vectors — probe columns
// followed by build columns, rows in probe order with in-bucket build order,
// byte-identical to the row loop. Hash collisions are resolved with the same
// typed comparison (and error wording) as compareValues.
func (j *HashJoin) ComputeBatch(part int, inputs []*BatchResult) (*Batch, error) {
	build, probe := inputs[0], inputs[1]
	probeB := probe.Parts[part]

	// Dense build-side concatenation, insertion order = (partition, row).
	buildSchema := j.inputs[0].OutSchema()
	var dense *Batch
	{
		bb := NewBatchBuilder(buildSchema)
		for _, b := range build.Parts {
			if b.Len() == 0 {
				continue
			}
			if j.buildKey >= len(b.Cols) {
				return nil, fmt.Errorf("engine: join %s build key out of range", j.name)
			}
			bb.Append(b)
		}
		dense = bb.Finish()
	}

	var ht map[uint64][]int32
	var buildKeyVec *Vector
	if dense != nil {
		buildKeyVec = &dense.Cols[j.buildKey]
		nb := dense.Len()
		ht = make(map[uint64][]int32, nb)
		for i := 0; i < nb; i++ {
			h := hashVectorAt(buildKeyVec, i)
			ht[h] = append(ht[h], int32(i))
		}
	}

	if probeB.Len() == 0 {
		return nil, nil
	}
	if j.probeKey >= len(probeB.Cols) {
		return nil, fmt.Errorf("engine: join %s probe key out of range", j.name)
	}
	probeKeyVec := &probeB.Cols[j.probeKey]
	var probeSel, buildSel []int32
	np := probeB.Len()
	for i := 0; i < np; i++ {
		p := i
		if probeB.Sel != nil {
			p = int(probeB.Sel[i])
		}
		if ht == nil {
			continue
		}
		for _, bi := range ht[hashVectorAt(probeKeyVec, p)] {
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
	if len(probeSel) == 0 {
		return nil, nil
	}

	cols := make([]Vector, len(probeB.Cols)+len(dense.Cols))
	for ci := range probeB.Cols {
		cols[ci] = probeB.Cols[ci].gather(probeSel)
	}
	for ci := range dense.Cols {
		cols[len(probeB.Cols)+ci] = dense.Cols[ci].gather(buildSel)
	}
	return &Batch{Schema: j.schema, Cols: cols, nrows: len(probeSel)}, nil
}

// ComputeBatch implements BatchOperator: a global sort as one stable index
// sort over the dense concatenation of all input partitions, followed by a
// column-wise gather in sorted order. Comparison semantics (numeric coercion
// through float64, NaN ordering, stability) match the row path exactly.
func (s *Sort) ComputeBatch(part int, inputs []*BatchResult) (*Batch, error) {
	if part != 0 {
		return nil, nil
	}
	bb := NewBatchBuilder(s.inputs[0].OutSchema())
	for _, b := range inputs[0].Parts {
		bb.Append(b)
	}
	dense := bb.Finish()
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
