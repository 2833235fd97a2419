package engine

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// joinKeys are the key values the join equivalence tests draw from, per
// column type: the int64 extremes, the first integers float64 cannot tell
// apart (2^53 and 2^53+1), NaN, both zeros, and strings sharing prefixes.
var joinKeys = map[ColType][]Value{
	TypeInt: {int64(math.MinInt64), int64(math.MaxInt64), int64(1 << 53), int64(1<<53 + 1),
		int64(-1), int64(0), int64(1), int64(2), int64(7)},
	TypeFloat: {math.NaN(), math.Float64frombits(0x7ff8000000000001), math.Copysign(0, -1), 0.0,
		1.0, 1.5, 7.0, float64(1 << 53), math.Inf(1)},
	TypeString: {"", "a", "ab", "a|b", "7", "z"},
}

// joinSide draws n rows of (key of type kt, int payload, string payload),
// keys from joinKeys, repeating when dup is set so that one key owns a long
// chain of build rows.
func joinSide(r *rand.Rand, kt ColType, n int, dup bool) (Schema, []Row) {
	schema := Schema{{Name: "k", Type: kt}, {Name: "i", Type: TypeInt}, {Name: "s", Type: TypeString}}
	keys := joinKeys[kt]
	rows := make([]Row, n)
	for i := range rows {
		k := keys[r.Intn(len(keys))]
		if dup && r.Intn(2) == 0 {
			k = keys[len(keys)-1]
		}
		rows[i] = Row{k, int64(i), string(rune('a' + i%26))}
	}
	return schema, rows
}

// joinParts cuts rows into parts batches, some empty (nil), some behind a
// selection vector over decoy rows that must not join.
func joinParts(t *testing.T, r *rand.Rand, schema Schema, rows []Row, parts int, withSel bool) []*Batch {
	t.Helper()
	out := make([]*Batch, parts)
	for p := range out {
		lo, hi := p*len(rows)/parts, (p+1)*len(rows)/parts
		if lo == hi {
			continue
		}
		take := rows[lo:hi]
		if !withSel || r.Intn(2) == 0 {
			b, err := RowsToBatch(schema, take)
			if err != nil {
				t.Fatal(err)
			}
			out[p] = b
			continue
		}
		var phys []Row
		var sel []int32
		for _, row := range take {
			decoy := append(Row{}, row...)
			decoy[1] = int64(-1) // a decoy that joined would show its payload
			phys = append(phys, decoy)
			sel = append(sel, int32(len(phys)))
			phys = append(phys, row)
		}
		b, err := RowsToBatch(schema, phys)
		if err != nil {
			t.Fatal(err)
		}
		b.Sel = sel
		out[p] = b
	}
	return out
}

// batchResultOf wraps parts as a committed result.
func batchResultOf(schema Schema, parts []*Batch) *BatchResult {
	res := NewBatchResult(schema, len(parts))
	copy(res.Parts, parts)
	return res
}

// joinAllWays runs j over (build, probe) three ways — the row loop
// (HashJoin.Compute), the whole-partition batch probe (ComputeBatch) and the
// streamed kernel over an arena, fed the probe partition in slices — and
// fails unless all three emit the same rows in the same order. It returns the
// rows of every probe partition.
func joinAllWays(t *testing.T, j *HashJoin, build, probe *BatchResult) []Row {
	t.Helper()
	rowsIn := []*PartitionedResult{build.ToPartitioned(), probe.ToPartitioned()}
	arena := NewArena()
	var all []Row
	for part := range probe.Parts {
		want, err := j.Compute(part, rowsIn)
		if err != nil {
			t.Fatalf("part %d: row join: %v", part, err)
		}
		whole, err := j.ComputeBatch(part, []*BatchResult{build, probe})
		if err != nil {
			t.Fatalf("part %d: batch join: %v", part, err)
		}
		if got := whole.ToRows(); !sameRowBits(got, want) {
			t.Fatalf("part %d: ComputeBatch\n got %v\nwant %v", part, got, want)
		}

		loc := arena.Local()
		k := j.JoinKernel(build, loc)
		var streamed []Row
		in := probe.Parts[part]
		for lo, n := 0, in.Len(); lo < n; lo += 3 {
			out, err := k.Process(in.SliceLocal(lo, min(lo+3, n), loc))
			if err != nil {
				t.Fatalf("part %d: join kernel: %v", part, err)
			}
			streamed = append(streamed, out.ToRows()...)
			out.Release(loc)
		}
		if out, err := k.Flush(); err != nil || out != nil {
			t.Fatalf("part %d: Flush = (%v, %v)", part, out, err)
		}
		loc.Close()
		if !sameRowBits(streamed, want) {
			t.Fatalf("part %d: JoinKernel\n got %v\nwant %v", part, streamed, want)
		}
		all = append(all, want...)
	}
	if o := arena.Outstanding(); o != 0 {
		t.Fatalf("join kernel left %d arena buffers outstanding", o)
	}
	return all
}

// The batch probe — whole partition and streamed — emits exactly the row
// loop's rows in the row loop's order for every key type: in-bucket build
// order over long duplicate chains, keys at the int64 extremes and past 2^53,
// NaN and signed zeros, selection vectors on either side, empty sides.
func TestJoinBatchMatchesRowLoop(t *testing.T) {
	for _, kt := range []ColType{TypeInt, TypeFloat, TypeString} {
		matched := 0
		for seed := int64(0); seed < 60; seed++ {
			r := rand.New(rand.NewSource(seed))
			nb, np := r.Intn(40), r.Intn(60)
			if seed%10 == 0 {
				nb = 0
			}
			bs, brows := joinSide(r, kt, nb, true)
			ps, prows := joinSide(r, kt, np, false)
			bt := mustTable(t, "b", bs, nil, 1, -1)
			pt := mustTable(t, "p", ps, nil, 1, -1)
			project := []int{0, 1, 3, 4, 5}
			if seed%3 == 0 {
				project = nil
			}
			j := NewHashJoinProject("j", NewScan("b", bt, nil, nil), NewScan("p", pt, nil, nil), 0, 0, project)
			build := batchResultOf(bs, joinParts(t, r, bs, brows, 1+r.Intn(3), true))
			probe := batchResultOf(ps, joinParts(t, r, ps, prows, 3, true))
			matched += len(joinAllWays(t, j, build, probe))
		}
		if matched == 0 {
			t.Errorf("%s keys: no seed joined a row", kt)
		}
	}
}

// A join of an int key with a float key matches on neither path: the row
// loop's hashes of 1 and 1.0 differ (hashInt64 against the hash of "%g"), and
// the batch probe keeps that result for both sides of the pairing. (Pinned:
// the planner never emits such a join, but a kernel change must not move it.)
func TestJoinMixedIntFloatKeysPinned(t *testing.T) {
	ints := []Row{{int64(1), int64(0), "a"}, {int64(7), int64(1), "b"}, {int64(1 << 53), int64(2), "c"}, {int64(0), int64(3), "d"}}
	floats := []Row{{1.0, int64(10), "x"}, {7.0, int64(11), "y"}, {float64(1 << 53), int64(12), "z"}, {0.0, int64(13), "w"}, {1.5, int64(14), "v"}}
	is := Schema{{Name: "k", Type: TypeInt}, {Name: "i", Type: TypeInt}, {Name: "s", Type: TypeString}}
	fs := Schema{{Name: "k", Type: TypeFloat}, {Name: "i", Type: TypeInt}, {Name: "s", Type: TypeString}}
	r := rand.New(rand.NewSource(1))
	for _, c := range []struct {
		name       string
		bs, ps     Schema
		brow, prow []Row
	}{
		{"int-build/float-probe", is, fs, ints, floats},
		{"float-build/int-probe", fs, is, floats, ints},
	} {
		bt := mustTable(t, "b", c.bs, nil, 1, -1)
		pt := mustTable(t, "p", c.ps, nil, 1, -1)
		j := NewHashJoin("j", NewScan("b", bt, nil, nil), NewScan("p", pt, nil, nil), 0, 0)
		build := batchResultOf(c.bs, joinParts(t, r, c.bs, c.brow, 2, false))
		probe := batchResultOf(c.ps, joinParts(t, r, c.ps, c.prow, 2, true))
		if got := joinAllWays(t, j, build, probe); len(got) != 0 {
			t.Errorf("%s: joined %v, want no rows", c.name, got)
		}
	}
}

// A chained join draws its build side (the dense copy and the int index) from
// the Local of the first probe, and ReleaseShared gives it back, once: a
// second call releases nothing, and a build over a new result of the same
// shape is served wholly from the freelists. A build over one dense partition
// indexes that committed partition in place; its release must leave the
// partition's storage alone, so later builds drawing from the freelists
// cannot write into it.
func TestJoinBuildRecyclesThroughLocal(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	bs, brows := joinSide(r, TypeInt, 128, true)
	_, otherRows := joinSide(r, TypeInt, 128, true)
	ps, prows := joinSide(r, TypeInt, 20, false)
	j := NewHashJoin("j", NewScan("b", mustTable(t, "b", bs, nil, 1, -1), nil, nil), NewScan("p", mustTable(t, "p", ps, nil, 1, -1), nil, nil), 0, 0)
	probe := batchResultOf(ps, joinParts(t, r, ps, prows, 1, false))
	loc := NewArena().Local()
	held := func() int64 { return int64(loc.gets) - int64(loc.puts) }
	// probeOnce streams the probe partition through a fresh kernel over build
	// and checks the rows against the row loop's.
	probeOnce := func(build *BatchResult) {
		t.Helper()
		want, err := j.Compute(0, []*PartitionedResult{build.ToPartitioned(), probe.ToPartitioned()})
		if err != nil {
			t.Fatal(err)
		}
		in := probe.Parts[0]
		out, err := j.JoinKernel(build, loc).Process(in.SliceLocal(0, in.Len(), loc))
		if err != nil {
			t.Fatal(err)
		}
		if got := out.ToRows(); len(want) == 0 || !sameRowBits(got, want) {
			t.Fatalf("join kernel: %d rows, want %d", len(got), len(want))
		}
		out.Release(loc)
	}
	release := func(build *BatchResult) {
		t.Helper()
		build.ReleaseShared(loc)
		if h := held(); h != 0 {
			t.Fatalf("%d buffers held after the release", h)
		}
		build.ReleaseShared(loc)
		if h := held(); h != 0 {
			t.Fatalf("a second release moved the balance to %d", h)
		}
	}
	copied := func(rows []Row) *BatchResult { return batchResultOf(bs, joinParts(t, r, bs, rows, 3, true)) }

	first := copied(brows)
	probeOnce(first)
	if held() == 0 {
		t.Fatal("the build drew nothing from the Local")
	}
	drawn := arrays(t, first)
	release(first)
	hits := loc.hits
	second := copied(brows)
	probeOnce(second)
	if got := arrays(t, second); loc.hits == hits || !reflect.DeepEqual(got, drawn) {
		t.Fatalf("the second build's %d arrays are not the %d the first gave back (%d hits)", len(got), len(drawn), loc.hits-hits)
	}
	release(second)

	dense, err := RowsToBatch(bs, brows)
	if err != nil {
		t.Fatal(err)
	}
	passed := batchResultOf(bs, []*Batch{nil, dense, nil})
	probeOnce(passed)
	release(passed)
	other := copied(otherRows)
	probeOnce(other)
	release(other)
	if got := dense.ToRows(); !sameRowBits(got, brows) {
		t.Fatal("the committed partition a build passed through changed after its release")
	}
}

// arrays returns the backing arrays of the int-keyed build hung on res: its
// index's and, when it copied, its dense columns'.
func arrays(t *testing.T, res *BatchResult) map[any]bool {
	t.Helper()
	v, ok := res.builds.Load(0)
	if !ok {
		t.Fatal("no build on the result")
	}
	jb := v.(*onceState[*joinBuild]).val
	m := map[any]bool{&jb.ints.head[0]: true, &jb.ints.next[0]: true}
	for _, c := range jb.dense.Cols {
		switch c.Type {
		case TypeInt:
			m[&c.Ints[0]] = true
		case TypeFloat:
			m[&c.Floats[0]] = true
		default:
			m[&c.Strings[0]] = true
		}
	}
	return m
}
