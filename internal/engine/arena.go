package engine

import (
	"math/bits"
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

	intBufs    [arenaClasses][][]int64
	floatBufs  [arenaClasses][][]float64
	stringBufs [arenaClasses][][]string
	selBufs    [arenaClasses][][]int32

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

// ints returns an int64 buffer of length n (recycled when possible).
func (l *Local) ints(n int) []int64 {
	if l == nil {
		return make([]int64, n)
	}
	l.gets++
	if cls := arenaClassFor(n); cls >= 0 {
		if s := l.intBufs[cls]; len(s) > 0 {
			b := s[len(s)-1]
			l.intBufs[cls] = s[:len(s)-1]
			l.hits++
			return b[:n]
		}
		return make([]int64, n, 1<<(arenaMinBits+cls))
	}
	return make([]int64, n)
}

func (l *Local) putInts(b []int64) {
	if l == nil {
		return
	}
	l.puts++
	if cls := arenaClassOf(cap(b)); cls >= 0 {
		l.intBufs[cls] = append(l.intBufs[cls], b[:0])
	}
}

// floats returns a float64 buffer of length n (recycled when possible).
func (l *Local) floats(n int) []float64 {
	if l == nil {
		return make([]float64, n)
	}
	l.gets++
	if cls := arenaClassFor(n); cls >= 0 {
		if s := l.floatBufs[cls]; len(s) > 0 {
			b := s[len(s)-1]
			l.floatBufs[cls] = s[:len(s)-1]
			l.hits++
			return b[:n]
		}
		return make([]float64, n, 1<<(arenaMinBits+cls))
	}
	return make([]float64, n)
}

func (l *Local) putFloats(b []float64) {
	if l == nil {
		return
	}
	l.puts++
	if cls := arenaClassOf(cap(b)); cls >= 0 {
		l.floatBufs[cls] = append(l.floatBufs[cls], b[:0])
	}
}

// strs returns a string buffer of length n (recycled when possible).
func (l *Local) strs(n int) []string {
	if l == nil {
		return make([]string, n)
	}
	l.gets++
	if cls := arenaClassFor(n); cls >= 0 {
		if s := l.stringBufs[cls]; len(s) > 0 {
			b := s[len(s)-1]
			l.stringBufs[cls] = s[:len(s)-1]
			l.hits++
			return b[:n]
		}
		return make([]string, n, 1<<(arenaMinBits+cls))
	}
	return make([]string, n)
}

func (l *Local) putStrs(b []string) {
	if l == nil {
		return
	}
	l.puts++
	// Drop the string references so released buffers don't pin their data.
	for i := range b {
		b[i] = ""
	}
	if cls := arenaClassOf(cap(b)); cls >= 0 {
		l.stringBufs[cls] = append(l.stringBufs[cls], b[:0])
	}
}

// sel returns a selection buffer of length n (recycled when possible).
func (l *Local) sel(n int) []int32 {
	if l == nil {
		return make([]int32, n)
	}
	l.gets++
	if cls := arenaClassFor(n); cls >= 0 {
		if s := l.selBufs[cls]; len(s) > 0 {
			b := s[len(s)-1]
			l.selBufs[cls] = s[:len(s)-1]
			l.hits++
			return b[:n]
		}
		return make([]int32, n, 1<<(arenaMinBits+cls))
	}
	return make([]int32, n)
}

func (l *Local) putSel(b []int32) {
	if l == nil {
		return
	}
	l.puts++
	if cls := arenaClassOf(cap(b)); cls >= 0 {
		l.selBufs[cls] = append(l.selBufs[cls], b[:0])
	}
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
		buf := l.ints(n)
		if sel == nil {
			copy(buf, src.Ints)
		} else {
			for i, p := range sel {
				buf[i] = src.Ints[p]
			}
		}
		out.Ints = buf
	case TypeFloat:
		buf := l.floats(n)
		if sel == nil {
			copy(buf, src.Floats)
		} else {
			for i, p := range sel {
				buf[i] = src.Floats[p]
			}
		}
		out.Floats = buf
	default:
		buf := l.strs(n)
		if sel == nil {
			copy(buf, src.Strings)
		} else {
			for i, p := range sel {
				buf[i] = src.Strings[p]
			}
		}
		out.Strings = buf
	}
	return out
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
