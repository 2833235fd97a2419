package engine

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
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

	pooledBuilds atomic.Bool  // some build drew from a Local; ReleaseShared clears it
	prev         *BatchResult // the result WithPart replaced, for ReleaseShared
}

// onceState is one entry of a BatchResult's shared-work maps.
type onceState[T any] struct {
	once sync.Once
	val  T
}

// sharedOnce returns m's state for key column col, building it on first use.
// Concurrent partition workers of one stage wait for the first builder and
// then read the same value, so the work is done once per input result: a
// recovery that replaced an input partition holds a new BatchResult and
// rebuilds, one whose inputs survived finds the state still there.
func sharedOnce[T any](m *sync.Map, col int, build func() T) T {
	v, ok := m.Load(col)
	if !ok {
		v, _ = m.LoadOrStore(col, &onceState[T]{})
	}
	st := v.(*onceState[T])
	st.once.Do(func() { st.val = build() })
	return st.val
}

// WithPart publishes a new result: r with partition part replaced by b,
// marked lost when lost is set. A published result is never written: workers
// read it without a lock, wide operators hang their shared work off it
// (sharedOnce), and a partition replaced by recovery is handed the new result
// and rebuilds. The new result links r for ReleaseShared.
func (r *BatchResult) WithPart(part int, b *Batch, lost bool) *BatchResult {
	res := NewBatchResult(r.Schema, len(r.Parts))
	copy(res.Parts, r.Parts)
	copy(res.Lost, r.Lost)
	res.Parts[part], res.Lost[part] = b, lost
	res.prev = r
	return res
}

// ReleaseShared gives the join builds a chained join drew from a Local back
// to l: those hung on r and on every result r replaced through WithPart. Each
// is released once and forgotten, so a second call releases nothing. The
// caller must know that no probe reads them any more.
func (r *BatchResult) ReleaseShared(l *Local) {
	for ; r != nil; r = r.prev {
		// A map never written stays untouched: Range would allocate its root.
		if !r.pooledBuilds.Swap(false) {
			continue
		}
		r.builds.Range(func(k, v any) bool {
			r.builds.Delete(k)
			v.(*onceState[*joinBuild]).val.release(l)
			return true
		})
	}
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
		return kernelBatches(&aggKernel{op: a}, a.schema, inputs[0].Parts...)
	}
	return kernelBatches(&aggKernel{op: a}, a.schema, inputs[0].Parts[part])
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
	bb.Grow(left.Len()+right.Len(), nil)
	bb.Append(left)
	bb.Append(right)
	return bb.Finish(), nil
}

// concatParts returns every row of parts as one dense batch in (partition,
// row) order: nil when there are none, the partition itself when it is the
// only populated one and already dense, otherwise one exact-size copy drawn
// from l (plain allocations when l is nil).
func concatParts(schema Schema, parts []*Batch, l *Local) *Batch {
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
	bb.Grow(total, l)
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
// chained hash index over its key column. An int key is indexed by intHash
// and probed by int keys with no stored hashes; every other pairing of key
// types walks chains of hashVectorAt, the row path's hash.
// A chained join draws the copy and the int index from the first probing
// partition's Local, and ReleaseShared gives them back; a pass-through
// partition (concatParts) owns nothing pooled, and the generic index is plain.
type joinBuild struct {
	dense  *Batch // every build row, in (partition, row) order; nil when empty
	keyCol int
	ints   chainIndex // over an int key by intHash; empty otherwise
	badKey bool       // keyCol is out of range for some build row; nothing is indexed
	pooled bool       // ints (and dense, when a copy) came from a Local

	genOnce sync.Once
	gen     chainIndex // over hashVectorAt, built on first use
	hashes  []uint64   // hashVectorAt of each dense row, for gen
}

// chainIndex chains the rows of a dense key column by bucket: head[bucket] is
// the first row, next[row] the row after it, -1 at the end; every chain is in
// ascending row order, the row path's in-bucket insertion order.
type chainIndex struct {
	head, next []int32
	shift      uint // a hash's bucket is its top bits: h >> shift
}

func newChainIndex(n int, hash func(i int) uint64, l *Local) chainIndex {
	size, shift := 1, uint(64)
	for size < n {
		size, shift = size<<1, shift-1
	}
	x := chainIndex{head: l.sel(size), next: l.sel(n), shift: shift}
	for i := range x.head {
		x.head[i] = -1
	}
	// Pushing rows at the bucket head in reverse leaves every chain in
	// ascending row order.
	for i := n - 1; i >= 0; i-- {
		b := hash(i) >> shift
		x.next[i] = x.head[b]
		x.head[b] = int32(i)
	}
	return x
}

// intHash is Fibonacci hashing: one multiply, whose top bits (the bucket)
// depend on every bit of x. It only places rows in the join index and groups
// in the aggregate's; where a row lives is hashVectorAt's to decide.
func intHash(x int64) uint64 { return uint64(x) * 0x9e3779b97f4a7c15 }

func newJoinBuild(schema Schema, parts []*Batch, keyCol int, l *Local) *joinBuild {
	for _, b := range parts {
		if b.Len() > 0 && keyCol >= len(b.Cols) {
			return &joinBuild{badKey: true}
		}
	}
	jb := &joinBuild{dense: concatParts(schema, parts, l), keyCol: keyCol, pooled: l != nil}
	if jb.dense != nil && jb.dense.Cols[keyCol].Type == TypeInt {
		keys := jb.dense.Cols[keyCol].Ints
		jb.ints = newChainIndex(len(keys), func(i int) uint64 { return intHash(keys[i]) }, l)
	}
	return jb
}

// release gives what the build drew from a Local back to l, once.
func (jb *joinBuild) release(l *Local) {
	if !jb.pooled {
		return
	}
	jb.dense.Release(l)
	if jb.ints.head != nil {
		l.putSel(jb.ints.head)
		l.putSel(jb.ints.next)
	}
}

// generic returns the index of the build key under hashVectorAt and each
// row's hash, building them on first use: for a non-int key, or an int key
// probed by a non-int one.
func (jb *joinBuild) generic() (*chainIndex, []uint64) {
	jb.genOnce.Do(func() {
		key := &jb.dense.Cols[jb.keyCol]
		jb.hashes = make([]uint64, jb.dense.Len())
		for i := range jb.hashes {
			jb.hashes[i] = hashVectorAt(key, i)
		}
		jb.gen = newChainIndex(len(jb.hashes), func(i int) uint64 { return jb.hashes[i] }, nil)
	})
	return &jb.gen, jb.hashes
}

// ComputeBatch implements BatchOperator: the vectorized broadcast hash join
// as a stage source (its probe input is materialized or shared), one probe
// over the whole partition with plain allocations.
func (j *HashJoin) ComputeBatch(part int, inputs []*BatchResult) (*Batch, error) {
	return j.probe(inputs[0], inputs[1].Parts[part], nil)
}

// JoinKernel returns the join chained onto its probe input's stage: a kernel
// that probes each batch of the probe stream against build and releases it
// into loc, drawing its output (and build's build side, if it probes first:
// see ReleaseShared) from loc.
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
// order with in-bucket build order, byte-identical to the row loop. Int keys
// on both sides match when equal. Every other pairing walks the row path's
// hash chains: rows sharing a bucket but not a hash are skipped, and equal
// hashes are resolved with the same typed comparison (and error wording) as
// compareValues. The selections, the output and a build side this call makes
// come from loc (plain allocations when nil); the probe batch is only read.
func (j *HashJoin) probe(build *BatchResult, probeB *Batch, loc *Local) (*Batch, error) {
	np := probeB.Len()
	if np == 0 {
		return nil, nil
	}
	if j.probeKey >= len(probeB.Cols) {
		return nil, fmt.Errorf("engine: join %s probe key out of range", j.name)
	}
	jb := sharedOnce(&build.builds, j.buildKey, func() *joinBuild {
		if loc != nil {
			build.pooledBuilds.Store(true)
		}
		return newJoinBuild(j.inputs[0].OutSchema(), build.Parts, j.buildKey, loc)
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
	if buildKeyVec.Type == TypeInt && probeKeyVec.Type == TypeInt {
		keys, idx := buildKeyVec.Ints, &jb.ints
		for i := 0; i < np; i++ {
			p := at(probeB.Sel, i)
			k := probeKeyVec.Ints[p]
			for bi := idx.head[intHash(k)>>idx.shift]; bi >= 0; bi = idx.next[bi] {
				if keys[bi] == k {
					probeSel = append(probeSel, int32(p))
					buildSel = append(buildSel, bi)
				}
			}
		}
	} else {
		idx, hashes := jb.generic()
		for i := 0; i < np; i++ {
			p := at(probeB.Sel, i)
			h := hashVectorAt(probeKeyVec, p)
			for bi := idx.head[h>>idx.shift]; bi >= 0; bi = idx.next[bi] {
				if hashes[bi] != h {
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
	dense := concatParts(s.inputs[0].OutSchema(), inputs[0].Parts, nil)
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
		cols[ci] = (*Local)(nil).gatherVector(&dense.Cols[ci], idx, n)
	}
	return &Batch{Schema: s.schema, Cols: cols, nrows: n}, nil
}

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
