package engine

import (
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"ftpde/internal/obs/metrics"
)

// Arena recycles the backing arrays of batches and vectors across batches,
// stages and queries. It is a set of size-classed freelists reached through
// per-goroutine Locals: the worker of a chained stage partition checks a Local
// out of the arena's sync.Pool, allocates and releases buffers through it
// without any locking or interface boxing, and checks it back in when the
// partition is done.
// Only *Local pointers cross the sync.Pool, so the steady state performs no
// allocation at all — neither for the buffers nor for the pool traffic.
//
// Ownership discipline (checked by the differential tests' balance check on
// Outstanding and exercised by the pipelined equivalence tests): a pooled
// buffer has exactly one owner at a time; handing a batch to a kernel
// transfers ownership; whoever consumes a batch releases it (Batch.Release)
// after its last read; anything still holding pooled buffers when an error or
// cancellation tears a pipeline down simply leaks them to the garbage
// collector, which is always safe.
type Arena struct {
	pool sync.Pool // of *Local
	gets atomic.Uint64
	hits atomic.Uint64
	puts atomic.Uint64
}

// NewArena creates an empty arena.
func NewArena() *Arena { return &Arena{} }

// Local checks a per-goroutine freelist out of the arena. A nil arena
// returns a nil Local, which every allocation method treats as "allocate
// plainly, recycle nothing" — the operators' ComputeBatch runs that way.
func (a *Arena) Local() *Local {
	if a == nil {
		return nil
	}
	if v := a.pool.Get(); v != nil {
		return v.(*Local)
	}
	return &Local{arena: a}
}

// HitRatio reports the fraction of buffer requests served from a freelist
// (0 when nothing has been requested yet, or for a nil arena).
func (a *Arena) HitRatio() float64 {
	if a == nil {
		return 0
	}
	gets := a.gets.Load()
	if gets == 0 {
		return 0
	}
	return float64(a.hits.Load()) / float64(gets)
}

// Outstanding reports buffers handed out minus buffers released, over the
// Locals closed so far: 0 after a clean query on a private arena, positive
// when buffers leaked to the GC.
func (a *Arena) Outstanding() int64 {
	return int64(a.gets.Load() - a.puts.Load())
}

// RegisterArenaMetrics exposes the arena's recycling effectiveness as the
// ftpde_arena_hit_ratio func-gauge. Registering the same registry twice is a
// no-op (the first registration wins), so every Runtime sharing one metrics
// set can call it unconditionally. A nil arena reads as 0.
func RegisterArenaMetrics(reg *metrics.Registry, a *Arena) {
	_ = reg.RegisterFunc(metrics.Desc{
		Name: "ftpde_arena_hit_ratio",
		Help: "Fraction of batch buffer requests served from recycled arena freelists.",
		Kind: metrics.KindGauge,
	}, func() []metrics.Sample {
		return []metrics.Sample{{Value: a.HitRatio()}}
	})
}

// Size classes are powers of two from 64 to 65536 elements; requests above
// the top class fall back to plain allocation and released buffers are filed
// under the largest class that fits their capacity, so odd-sized buffers
// still recycle.
const (
	arenaMinBits = 6
	arenaMaxBits = 16
	arenaClasses = arenaMaxBits - arenaMinBits + 1
)

// arenaClassFor returns the smallest class whose size holds n elements, or
// -1 when n exceeds the largest class.
func arenaClassFor(n int) int {
	if n <= 1<<arenaMinBits {
		return 0
	}
	if n > 1<<arenaMaxBits {
		return -1
	}
	return bits.Len(uint(n-1)) - arenaMinBits
}

// arenaClassOf returns the largest class a buffer of capacity c can serve,
// or -1 when c is below the smallest class (not worth keeping).
func arenaClassOf(c int) int {
	if c < 1<<arenaMinBits {
		return -1
	}
	cls := bits.Len(uint(c)) - 1 - arenaMinBits
	if cls >= arenaClasses {
		cls = arenaClasses - 1
	}
	return cls
}

// Local is one goroutine's private view of an arena: size-classed stacks of
// released buffers plus freelists for batch shells. Locals are not safe for
// concurrent use — each partition worker owns exactly one.
type Local struct {
	arena *Arena

	intBufs    freelist[int64]
	floatBufs  freelist[float64]
	stringBufs freelist[string]
	selBufs    freelist[int32]
	blockBufs  freelist[byte]
	enc        blockScratch

	batchFree []*Batch
	colsFree  [][]Vector

	gets, hits, puts uint64
}

// Close returns the Local (and everything it has accumulated) to the arena,
// making its buffers available to other goroutines. Buffers handed out by
// this Local remain valid — the Local is a cache, not an owner.
func (l *Local) Close() {
	if l == nil {
		return
	}
	l.arena.gets.Add(l.gets)
	l.arena.hits.Add(l.hits)
	l.arena.puts.Add(l.puts)
	l.gets, l.hits, l.puts = 0, 0, 0
	l.arena.pool.Put(l)
}

// freelist is a Local's stacks of released buffers of one element type, one
// stack per size class.
type freelist[T any] [arenaClasses][][]T

// getBuf returns a buffer of length n, popped from l's freelist that list
// picks when its class for n/2^unit holds one. A nil l allocates plainly.
func getBuf[T any](l *Local, list func(*Local) *freelist[T], n int, unit uint) []T {
	if l == nil {
		return make([]T, n)
	}
	l.gets++
	cls := arenaClassFor((n + 1<<unit - 1) >> unit)
	if cls < 0 {
		return make([]T, n)
	}
	f := list(l)
	if s := f[cls]; len(s) > 0 {
		f[cls] = s[:len(s)-1]
		l.hits++
		return s[len(s)-1][:n]
	}
	return make([]T, n, 1<<(arenaMinBits+cls+int(unit)))
}

// putBuf files b on l's freelist that list picks, under the largest class its
// capacity serves; a buffer below the smallest class goes to the GC. A nil l
// keeps nothing.
func putBuf[T any](l *Local, list func(*Local) *freelist[T], b []T, unit uint) {
	if l == nil {
		return
	}
	l.puts++
	if cls := arenaClassOf(cap(b) >> unit); cls >= 0 {
		f := list(l)
		f[cls] = append(f[cls], b[:0])
	}
}

// The typed faces of the freelist. getBuf and putBuf take an accessor rather
// than the freelist itself because a nil Local has no fields to point at.
func intBufs(l *Local) *freelist[int64]     { return &l.intBufs }
func floatBufs(l *Local) *freelist[float64] { return &l.floatBufs }
func stringBufs(l *Local) *freelist[string] { return &l.stringBufs }
func selBufs(l *Local) *freelist[int32]     { return &l.selBufs }
func blockBufs(l *Local) *freelist[byte]    { return &l.blockBufs }
func (l *Local) ints(n int) []int64         { return getBuf(l, intBufs, n, 0) }
func (l *Local) floats(n int) []float64     { return getBuf(l, floatBufs, n, 0) }
func (l *Local) strs(n int) []string        { return getBuf(l, stringBufs, n, 0) }
func (l *Local) sel(n int) []int32          { return getBuf(l, selBufs, n, 0) }
func (l *Local) putInts(b []int64)          { putBuf(l, intBufs, b, 0) }
func (l *Local) putFloats(b []float64)      { putBuf(l, floatBufs, b, 0) }
func (l *Local) putSel(b []int32)           { putBuf(l, selBufs, b, 0) }

// block draws the buffer of an encoded block (Local.EncodeBlock), and
// ReleaseBlock gives it back. Their classes count eight bytes as one element,
// so the top class holds 512 kB and a large partition's block recycles.
func (l *Local) block(n int) []byte    { return getBuf(l, blockBufs, n, 3) }
func (l *Local) ReleaseBlock(b []byte) { putBuf(l, blockBufs, b, 3) }

// putStrs also drops the strings, so a released buffer pins no data.
func (l *Local) putStrs(b []string) {
	if l != nil {
		clear(b)
	}
	putBuf(l, stringBufs, b, 0)
}

// maxFreeShells bounds a Local's freelists of batch structs and column-header
// slices. A partition holds the shell of every output batch until its final
// concatenation and then releases them all at once, so a Local would
// otherwise grow to the longest stream it ever served. A chain's working set
// is a few shells per operator; past the bound a released shell goes to the GC.
const maxFreeShells = 64

// newBatch returns an empty batch shell owned by the arena.
func (l *Local) newBatch() *Batch {
	if l == nil {
		return &Batch{}
	}
	l.gets++
	if n := len(l.batchFree); n > 0 {
		b := l.batchFree[n-1]
		l.batchFree = l.batchFree[:n-1]
		l.hits++
		b.structPooled = true
		return b
	}
	return &Batch{structPooled: true}
}

func (l *Local) putBatch(b *Batch) {
	if l == nil {
		return
	}
	l.puts++
	// The batch is released — ownership has transferred to the freelist, and
	// zeroing it here is what guarantees no stale reference survives reuse.
	*b = Batch{}
	if len(l.batchFree) < maxFreeShells {
		l.batchFree = append(l.batchFree, b)
	}
}

// cols returns a column-header slice of length n owned by the arena.
func (l *Local) cols(n int) []Vector {
	if l == nil {
		return make([]Vector, n)
	}
	l.gets++
	for i := len(l.colsFree) - 1; i >= 0; i-- {
		if s := l.colsFree[i]; cap(s) >= n {
			last := len(l.colsFree) - 1
			l.colsFree[i] = l.colsFree[last]
			l.colsFree = l.colsFree[:last]
			l.hits++
			return s[:n]
		}
	}
	return make([]Vector, n)
}

func (l *Local) putCols(s []Vector) {
	if l == nil {
		return
	}
	l.puts++
	if len(l.colsFree) >= maxFreeShells {
		return
	}
	for i := range s {
		s[i] = Vector{}
	}
	l.colsFree = append(l.colsFree, s[:0])
}

// gatherVector copies the selected elements of src (all nrows of it when sel
// is nil) into a dense vector backed by recycled storage. Works with a nil
// Local (plain allocation, unpooled result).
func (l *Local) gatherVector(src *Vector, sel []int32, nrows int) Vector {
	n := nrows
	if sel != nil {
		n = len(sel)
	}
	out := Vector{Type: src.Type, pooled: l != nil}
	switch src.Type {
	case TypeInt:
		out.Ints = appendSel(l.ints(n)[:0], src.Ints, sel, nrows)
	case TypeFloat:
		out.Floats = appendSel(l.floats(n)[:0], src.Floats, sel, nrows)
	default:
		out.Strings = appendSel(l.strs(n)[:0], src.Strings, sel, nrows)
	}
	return out
}

// appendSel appends to dst the elements of src at the positions sel lists, or
// src's first nrows elements when sel is nil.
func appendSel[T any](dst, src []T, sel []int32, nrows int) []T {
	if sel == nil {
		return append(dst, src[:nrows]...)
	}
	for _, p := range sel {
		dst = append(dst, src[p])
	}
	return dst
}

// regrow returns s with room for one more element: s itself while it has
// some, else a buffer of twice its capacity from get holding s's elements,
// with s given back through put. Growing a buffer drawn from l this way keeps
// it drawn from l; with a nil l it is append's growth.
func regrow[T any](l *Local, s []T, get func(*Local, int) []T, put func(*Local, []T)) []T {
	if len(s) < cap(s) {
		return s
	}
	if l == nil {
		return slices.Grow(s, 1)
	}
	t := get(l, max(2*cap(s), 1<<arenaMinBits))[:len(s)]
	copy(t, s)
	if cap(s) > 0 {
		put(l, s)
	}
	return t
}

// appendAtLocal appends element p of src, a vector of v's type, growing v's
// storage through l (regrow). v's storage must come from l or be empty.
func (v *Vector) appendAtLocal(src *Vector, p int, l *Local) {
	switch v.Type {
	case TypeInt:
		v.Ints = append(regrow(l, v.Ints, (*Local).ints, (*Local).putInts), src.Ints[p])
	case TypeFloat:
		v.Floats = append(regrow(l, v.Floats, (*Local).floats, (*Local).putFloats), src.Floats[p])
	default:
		v.Strings = append(regrow(l, v.Strings, (*Local).strs, (*Local).putStrs), src.Strings[p])
	}
}

// Release returns the vector's backing array to the arena if the arena owns
// it. Safe (and a no-op) on unpooled vectors and nil Locals, so consumers can
// release unconditionally.
func (v *Vector) Release(l *Local) {
	if l == nil || !v.pooled {
		return
	}
	v.pooled = false
	switch v.Type {
	case TypeInt:
		l.putInts(v.Ints)
		v.Ints = nil
	case TypeFloat:
		l.putFloats(v.Floats)
		v.Floats = nil
	default:
		l.putStrs(v.Strings)
		v.Strings = nil
	}
}

// Release returns every arena-owned piece of the batch — column storage,
// selection vector, column-header slice, and the shell itself. The batch must
// not be used afterwards. Plain batches (table partitions, committed stage
// results) pass through untouched.
func (b *Batch) Release(l *Local) {
	if b == nil || l == nil {
		return
	}
	for i := range b.Cols {
		b.Cols[i].Release(l)
	}
	b.releaseShell(l)
}

// releaseShell returns the batch's selection vector, column-header slice and
// struct without touching column storage — used when the columns have been
// transferred to an output batch. Callers clear colsPooled first when the
// header slice transferred too.
func (b *Batch) releaseShell(l *Local) {
	if b == nil || l == nil {
		return
	}
	if b.selPooled {
		l.putSel(b.Sel)
		b.Sel = nil
		b.selPooled = false
	}
	if b.colsPooled {
		l.putCols(b.Cols)
		b.Cols = nil
		b.colsPooled = false
	}
	if b.structPooled {
		b.structPooled = false
		l.putBatch(b)
	}
}

// takeCols transfers ownership of the batch's column-header slice (and its
// pooled flag) to the caller, leaving the batch without columns so a
// subsequent releaseShell recycles only the selection and the struct.
func (b *Batch) takeCols() (cols []Vector, pooled bool) {
	cols, pooled = b.Cols, b.colsPooled
	b.Cols, b.colsPooled = nil, false
	return cols, pooled
}
