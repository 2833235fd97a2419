package engine

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
)

// wideInput builds a committed result whose partitions are views — a
// selection vector over a wider table batch — the shape a filtered scan hands
// over, so the wide operators' shared paths read through Sel.
func wideInput(t *testing.T, rows, parts int) (*BatchResult, *PartitionedResult) {
	t.Helper()
	schema := Schema{{Name: "k", Type: TypeInt}, {Name: "s", Type: TypeString}, {Name: "v", Type: TypeFloat}}
	data := make([]Row, rows)
	for i := range data {
		data[i] = Row{int64(i % 13), []string{"a", "b", "c"}[i%3], float64(i)}
	}
	tb, err := NewTable("t", schema, data, parts, -1)
	if err != nil {
		t.Fatal(err)
	}
	scan := NewScan("scan", tb, Cmp{Op: NE, L: Col(0), R: Const{V: int64(5)}}, nil)
	br, pr := NewBatchResult(schema, parts), newResult(schema, parts)
	for p := 0; p < parts; p++ {
		if br.Parts[p], err = scan.ComputeBatch(p, nil); err != nil {
			t.Fatal(err)
		}
		if br.Parts[p].Sel == nil {
			t.Fatal("filtered scan did not return a view")
		}
		if pr.Parts[p], err = scan.Compute(p, nil); err != nil {
			t.Fatal(err)
		}
	}
	return br, pr
}

func TestWideOperatorsMatchRowPathOverViews(t *testing.T) {
	const parts = 4
	in, rowIn := wideInput(t, 500, parts)
	src := NewScan("src", &Table{Schema: in.Schema}, nil, nil) // schema carrier
	for _, op := range []BatchOperator{
		NewExchange("x-int", src, 0),
		NewExchange("x-string", src, 1),
		NewHashJoin("join", src, src, 0, 0),
		NewSort("sort", src, 2, true),
	} {
		ins, rowIns := []*BatchResult{in}, []*PartitionedResult{rowIn}
		if len(op.Inputs()) == 2 {
			ins, rowIns = append(ins, in), append(rowIns, rowIn)
		}
		for p := 0; p < parts; p++ {
			want, err := op.Compute(p, rowIns)
			if err != nil {
				t.Fatal(err)
			}
			b, err := op.ComputeBatch(p, ins)
			if err != nil {
				t.Fatal(err)
			}
			if got := b.ToRows(); !reflect.DeepEqual(got, want) {
				t.Errorf("%s partition %d: batch path produced %d rows, row path %d, or in another order", op.Name(), p, len(got), len(want))
			}
		}
	}
}

func sharedStates(r *BatchResult) (n int) {
	count := func(_, _ any) bool { n++; return true }
	r.scatters.Range(count)
	r.builds.Range(count)
	return n
}

func TestSharedWorkIsDoneOncePerInputResult(t *testing.T) {
	const parts = 4
	in, _ := wideInput(t, 200, parts)
	src := NewScan("src", &Table{Schema: in.Schema}, nil, nil)
	join := NewHashJoin("join", src, src, 0, 0)
	ex := NewExchange("exchange", src, 0)

	// An empty probe partition returns before the build side is touched.
	empty := NewBatchResult(in.Schema, parts)
	if b, err := join.ComputeBatch(0, []*BatchResult{in, empty}); err != nil || b != nil {
		t.Fatalf("empty probe partition: got %v, %v", b, err)
	}
	if sharedStates(in) != 0 {
		t.Fatal("the build side was indexed for an empty probe partition")
	}

	var first *Batch
	for round := 0; round < 2; round++ {
		for p := 0; p < parts; p++ {
			if _, err := join.ComputeBatch(p, []*BatchResult{in, in}); err != nil {
				t.Fatal(err)
			}
			b, err := ex.ComputeBatch(p, []*BatchResult{in})
			if err != nil {
				t.Fatal(err)
			}
			if p == 0 && round == 0 {
				first = b
			} else if p == 0 && b != first {
				t.Error("the exchange scattered its input again for a partition it had already produced")
			}
		}
	}
	if n := sharedStates(in); n != 2 {
		t.Errorf("%d shared states on the input, want one join build side and one scatter", n)
	}

	// The same partitions under a new result — what a recovery that replaced
	// one is handed — are scattered again.
	again := NewBatchResult(in.Schema, parts)
	copy(again.Parts, in.Parts)
	b, err := ex.ComputeBatch(0, []*BatchResult{again})
	if err != nil {
		t.Fatal(err)
	}
	if b == first {
		t.Error("a new input result reused the old result's scatter")
	}
	if !reflect.DeepEqual(b.ToRows(), first.ToRows()) {
		t.Error("re-scattered partition differs")
	}
}

func TestSharedOnceBuildsOnceUnderContention(t *testing.T) {
	r := NewBatchResult(nil, 1)
	var builds atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v := sharedOnce(&r.scatters, 3, func() int {
				builds.Add(1)
				return 42
			})
			if v != 42 {
				t.Errorf("shared state = %v, want 42", v)
			}
		}()
	}
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Errorf("built %d times, want once", n)
	}
}

func TestBatchBuilderGrowReservesTheTotal(t *testing.T) {
	schema := Schema{{Name: "k", Type: TypeInt}, {Name: "s", Type: TypeString}, {Name: "v", Type: TypeFloat}}
	part, err := RowsToBatch(schema, []Row{{int64(1), "x", 1.5}, {int64(2), "y", 2.5}, {int64(3), "z", 3.5}})
	if err != nil {
		t.Fatal(err)
	}
	bb := NewBatchBuilder(schema)
	bb.Grow(4*part.Len(), nil)
	bb.Append(part)
	reserved := &bb.cols[0].Ints[0]
	for i := 0; i < 3; i++ {
		bb.Append(part)
	}
	out := bb.Finish()
	if out.Len() != 4*part.Len() {
		t.Fatalf("built %d rows, want %d", out.Len(), 4*part.Len())
	}
	if &out.Cols[0].Ints[0] != reserved {
		t.Error("a column moved while appending within the reserved total")
	}
}

// A Local that is only ever released into (a stage sink) must not grow without
// bound, and a header slice too small for a request must not hide the ones
// below it.
func TestArenaShellFreelists(t *testing.T) {
	l := NewArena().Local()
	for i := 0; i < 10*maxFreeShells; i++ {
		l.putCols(make([]Vector, 4))
		l.putBatch(&Batch{})
	}
	if len(l.colsFree) > maxFreeShells || len(l.batchFree) > maxFreeShells {
		t.Errorf("freelists hold %d header slices and %d structs, bound %d", len(l.colsFree), len(l.batchFree), maxFreeShells)
	}

	l = NewArena().Local()
	l.putCols(make([]Vector, 16))
	l.putCols(make([]Vector, 2))
	if got := l.cols(16); cap(got) != 16 || l.hits != 1 {
		t.Errorf("a 16-column request under a 2-column slice missed the freelist (cap %d, hits %d)", cap(got), l.hits)
	}
}

// Every element type's buffers go through the one size-classed freelist: a
// released buffer of capacity 2^k serves the next request its class covers, a
// buffer below the smallest class and a request above the largest bypass it,
// and a released string buffer pins no strings.
func TestArenaBufferFreelists(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(*testing.T)
	}{
		{"int64", func(t *testing.T) { checkFreelist(t, (*Local).ints, (*Local).putInts, 7, false) }},
		{"float64", func(t *testing.T) { checkFreelist(t, (*Local).floats, (*Local).putFloats, 1.5, false) }},
		{"string", func(t *testing.T) { checkFreelist(t, (*Local).strs, (*Local).putStrs, "x", true) }},
		{"int32", func(t *testing.T) { checkFreelist(t, (*Local).sel, (*Local).putSel, 7, false) }},
	} {
		t.Run(tc.name, tc.run)
	}
}

func checkFreelist[T comparable](t *testing.T, get func(*Local, int) []T, put func(*Local, []T), fill T, clears bool) {
	var zero T
	for k := arenaMinBits; k <= arenaMaxBits; k++ {
		// The smallest and the largest request of class k.
		for _, n := range []int{1<<(k-1) + 1, 1 << k} {
			l := NewArena().Local()
			b := make([]T, 1<<k)
			for i := range b {
				b[i] = fill
			}
			put(l, b)
			if clears {
				for i, x := range b {
					if x != zero {
						t.Fatalf("cap %d: released buffer still holds %v at %d", 1<<k, x, i)
					}
				}
			}
			got := get(l, n)
			if len(got) != n || &got[0] != &b[0] || l.hits != 1 || l.gets != 1 || l.puts != 1 {
				t.Errorf("cap %d, request %d: len %d, same buffer %v, gets/hits/puts %d/%d/%d; want a hit on the released buffer",
					1<<k, n, len(got), &got[0] == &b[0], l.gets, l.hits, l.puts)
			}
		}
	}

	l := NewArena().Local()
	put(l, make([]T, 1<<arenaMinBits-1))
	if got := get(l, 1); l.hits != 0 || cap(got) != 1<<arenaMinBits {
		t.Errorf("a buffer of %d elements was kept (hits %d, cap %d)", 1<<arenaMinBits-1, l.hits, cap(got))
	}

	l = NewArena().Local()
	put(l, make([]T, 1<<arenaMaxBits))
	if got := get(l, 1<<arenaMaxBits+1); l.hits != 0 || cap(got) != 1<<arenaMaxBits+1 {
		t.Errorf("a request of %d elements was served from a class (hits %d, cap %d)", 1<<arenaMaxBits+1, l.hits, cap(got))
	}
}

// Outstanding counts every buffer handed out against every buffer released,
// including shells the freelists drop past their bound, and only over Locals
// already closed: a released batch balances
// exactly, an unreleased one stays outstanding.
func TestArenaOutstanding(t *testing.T) {
	a := NewArena()
	build := func(l *Local) *Batch {
		b := l.newBatch()
		b.Cols, b.colsPooled = l.cols(2), true
		b.Cols[0] = l.gatherVector(&Vector{Type: TypeInt, Ints: []int64{1, 2, 3}}, nil, 3)
		b.Cols[1] = l.gatherVector(&Vector{Type: TypeString, Strings: []string{"a", "b", "c"}}, nil, 3)
		b.Sel, b.selPooled = l.sel(2), true
		return b
	}

	l := a.Local()
	kept := build(l)
	build(l).Release(l)
	if got := a.Outstanding(); got != 0 {
		t.Fatalf("Outstanding = %d before any Local closed, want 0", got)
	}
	l.Close()
	if got := a.Outstanding(); got != 5 {
		t.Fatalf("Outstanding = %d with one unreleased 5-buffer batch, want 5", got)
	}

	l = a.Local()
	kept.Release(l)
	shells := make([]*Batch, 2*maxFreeShells)
	for i := range shells {
		shells[i] = l.newBatch()
	}
	for _, b := range shells {
		l.putBatch(b) // past the bound a shell goes to the GC, still counted
	}
	l.Close()
	if got := a.Outstanding(); got != 0 {
		t.Errorf("Outstanding = %d after every buffer was released, want 0", got)
	}
}

// A scan's selection comes from the Local it is handed, and a released scan
// batch gives it back: the next computation of the partition reuses the
// buffer. The batch ComputeBatch returns (the one a single-operator stage
// commits) owns nothing, so releasing it into a Local that then hands out and
// overwrites selections leaves its rows as they were.
func TestScanSelectionRecyclesThroughLocal(t *testing.T) {
	schema := Schema{{Name: "k", Type: TypeInt}, {Name: "v", Type: TypeFloat}}
	data := make([]Row, 300)
	for i := range data {
		data[i] = Row{int64(i), float64(i % 10)}
	}
	tb := mustTable(t, "t", schema, data, 1, -1)
	scan := NewScan("scan", tb, Cmp{Op: GE, L: Col(1), R: Const{V: 3.0}}, []int{1, 0})
	want, err := scan.Compute(0, nil)
	if err != nil {
		t.Fatal(err)
	}

	arena := NewArena()
	loc := arena.Local()
	first, err := scan.ComputeBatchLocal(0, loc)
	if err != nil {
		t.Fatal(err)
	}
	if got := first.ToRows(); !reflect.DeepEqual(got, want) {
		t.Fatalf("pooled scan rows %v, want %v", got, want)
	}
	buf := &first.Sel[0]
	first.Release(loc)
	again, err := scan.ComputeBatchLocal(0, loc)
	if err != nil {
		t.Fatal(err)
	}
	if &again.Sel[0] != buf {
		t.Error("the second computation allocated its selection instead of reusing the released one")
	}
	if got := again.ToRows(); !reflect.DeepEqual(got, want) {
		t.Fatalf("scan rows over a recycled selection %v, want %v", got, want)
	}
	again.Release(loc)

	committed, err := scan.ComputeBatch(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	committed.Release(loc)
	var drawn [][]int32
	for range 4 {
		sel := loc.sel(committed.Len())
		clear(sel)
		drawn = append(drawn, sel)
	}
	if got := committed.ToRows(); !reflect.DeepEqual(got, want) {
		t.Errorf("a committed scan batch changed after being released into a Local: %v, want %v", got, want)
	}
	for _, sel := range drawn {
		loc.putSel(sel)
	}
	loc.Close()
	if o := arena.Outstanding(); o != 0 {
		t.Errorf("%d arena buffers outstanding", o)
	}
}
