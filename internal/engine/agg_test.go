package engine

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// aggInput is the schema the aggregation tests draw rows from: keys of every
// type, and beside each float a count, the layout a merge of an AVG reads.
var aggInput = Schema{
	{Name: "k", Type: TypeInt},
	{Name: "f", Type: TypeFloat},
	{Name: "n", Type: TypeInt}, // a partial count: ≥ 0
	{Name: "s", Type: TypeString},
	{Name: "x", Type: TypeFloat},
	{Name: "m", Type: TypeInt}, // a partial count: ≥ 0
	{Name: "z", Type: TypeFloat},
	{Name: "t", Type: TypeString}, // beside s, signatures collide: ("a", "b|") and ("a|b", "")
}

// aggOddFloats are the float keys whose signature and bits disagree: two NaN
// payloads (one group, "NaN|"), and −0 and +0 (two groups, "-0|" and "0|").
var aggOddFloats = []float64{
	math.NaN(), math.Float64frombits(0x7ff8000000000001), math.Copysign(0, -1), 0, 1.5,
}

// aggRow draws one row of aggInput. Keys repeat, and floats other than z are
// multiples of 1/4 below 2^10, so every sum of them is exact whatever the order.
func aggRow(r *rand.Rand) Row {
	return Row{
		int64(r.Intn(5)), float64(r.Intn(16)) / 4, int64(r.Intn(4)),
		[]string{"", "a", "b|", "a|b"}[r.Intn(4)], float64(r.Intn(4000)) / 4, int64(r.Intn(3)),
		aggOddFloats[r.Intn(len(aggOddFloats))], []string{"", "a", "b|", "a|b"}[r.Intn(4)],
	}
}

// aggBatches cuts rows into batches: some empty, some dense, some behind a
// selection vector over extra rows that must not count.
func aggBatches(t *testing.T, r *rand.Rand, rows []Row) []*Batch {
	t.Helper()
	var out []*Batch
	for len(rows) > 0 || r.Intn(3) == 0 {
		n := min(len(rows), r.Intn(40))
		take := rows[:n]
		rows = rows[n:]
		if r.Intn(2) == 0 {
			b, err := RowsToBatch(aggInput, take)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, b)
			continue
		}
		// The taken rows at odd positions, decoys at even ones.
		var phys []Row
		var sel []int32
		for _, row := range take {
			phys = append(phys, aggRow(r))
			sel = append(sel, int32(len(phys)))
			phys = append(phys, row)
		}
		b, err := RowsToBatch(aggInput, phys)
		if err != nil {
			t.Fatal(err)
		}
		b.Sel = sel
		if sel == nil {
			b.Sel = []int32{}
		}
		out = append(out, b)
	}
	return out
}

// aggOutSchema is the schema an aggregation of specs grouped on groups yields
// over aggInput.
func aggOutSchema(groups []int, specs []AggSpec) Schema {
	var out Schema
	for _, g := range groups {
		out = append(out, aggInput[g])
	}
	for i, s := range specs {
		out = append(out, Column{Name: fmt.Sprintf("a%d", i), Type: aggOutType(s, aggInput)})
	}
	return out
}

// The typed kernel and the oracle's boxed group table are two implementations
// of one aggregation: over the same batches they must emit the same rows in
// the same order, bit for bit, for every kind (the merge kinds included), keys
// of every type (strings whose signatures collide, NaN payloads, signed
// zeros), zero to three group columns, selection vectors and empty input.
// The kernel runs twice per case: with plain allocations, and with its state
// drawn from an arena every case shares (so a buffer it is handed may still
// hold an earlier case's values), which it must leave balanced.
func TestAggKernelMatchesGroupTable(t *testing.T) {
	src := NewScan("src", mustTable(t, "src", aggInput, nil, 1, -1), nil, nil)
	keyCols := []int{0, 1, 3, 4, 5, 6, 7}
	arena := NewArena()
	for seed := int64(0); seed < 300; seed++ {
		r := rand.New(rand.NewSource(seed))
		var groups []int
		for i, n := 0, r.Intn(4); i < n; i++ {
			groups = append(groups, keyCols[r.Intn(len(keyCols))])
		}
		var specs []AggSpec
		for i, n := 0, 1+r.Intn(4); i < n; i++ {
			switch kind := AggKind(r.Intn(7)); kind {
			case AggSum, AggAvg:
				specs = append(specs, AggSpec{Kind: kind, Col: []int{0, 1, 4}[r.Intn(3)]})
			case AggMin, AggMax:
				specs = append(specs, AggSpec{Kind: kind, Col: r.Intn(len(aggInput))})
			case AggCount:
				specs = append(specs, AggSpec{Kind: kind})
			case AggAvg + 1:
				specs = append(specs, AggSpec{Kind: aggCountMerge, Col: []int{2, 5}[r.Intn(2)]})
			default:
				specs = append(specs, AggSpec{Kind: aggAvgMerge, Col: []int{1, 4}[r.Intn(2)]})
			}
		}
		rows := make([]Row, r.Intn(120))
		for i := range rows {
			rows[i] = aggRow(r)
		}
		batches := aggBatches(t, r, rows)
		op := NewHashAggregate("agg", src, groups, specs, false, aggOutSchema(groups, specs))

		run := func(loc *Local) []Row {
			k := &aggKernel{op: op, loc: loc}
			for _, b := range batches {
				if out, err := k.Process(b); err != nil || out != nil {
					t.Fatalf("seed %d: Process = (%v, %v), want it to buffer", seed, out, err)
				}
			}
			fb, err := k.Flush()
			if err != nil {
				t.Fatalf("seed %d: Flush: %v", seed, err)
			}
			rows := fb.ToRows()
			fb.Release(loc)
			return rows
		}
		plain := run(nil)
		loc := arena.Local()
		pooled := run(loc)
		loc.Close()
		if o := arena.Outstanding(); o != 0 {
			t.Fatalf("seed %d: the kernel left %d arena buffers outstanding", seed, o)
		}
		g := newGroupTable(op)
		for _, b := range batches {
			for _, row := range b.ToRows() {
				if err := g.addRow(row); err != nil {
					t.Fatalf("seed %d: oracle: %v", seed, err)
				}
			}
		}
		want, err := g.rows()
		if err != nil {
			t.Fatalf("seed %d: oracle: %v", seed, err)
		}
		for _, got := range [][]Row{plain, pooled} {
			if !sameRowBits(got, want) {
				t.Errorf("seed %d: groups %v, aggregates %v over %d rows:\n kernel %v\n oracle %v", seed, groups, specs, len(rows), got, want)
			}
		}
	}
}

// A partial phase per partition, then a merge of the partials, yields what
// one aggregation over all the rows yields: aggSplits is a decomposition.
func TestTwoPhaseAggregateMatchesOnePhase(t *testing.T) {
	const parts = 3
	for seed := int64(0); seed < 100; seed++ {
		r := rand.New(rand.NewSource(seed))
		rows := make([]Row, r.Intn(150))
		for i := range rows {
			rows[i] = aggRow(r)
		}
		tb := mustTable(t, "t", aggInput, rows, parts, -1)
		var groups []int
		for i, n := 0, r.Intn(3); i < n; i++ {
			groups = append(groups, []int{0, 3}[r.Intn(2)])
		}
		specs := []AggSpec{{Kind: AggSum, Col: 4}, {Kind: AggCount}, {Kind: AggMin, Col: 3}, {Kind: AggMax, Col: 1}, {Kind: AggAvg, Col: 0}}
		out := aggOutSchema(groups, specs)
		global := len(groups) == 0
		var rows1, partials Operator = NewScan("one-scan", tb, nil, nil), NewPartialAggregate("partial", NewScan("scan", tb, nil, nil), groups, specs)
		if !global {
			rows1 = NewExchange("one-exchange", rows1, groups[0])
			partials = NewExchange("exchange", partials, 0)
		}
		one := NewHashAggregate("one", rows1, groups, specs, global, out)
		two := NewMergeAggregate("merge", partials, len(groups), specs, global, out)
		for _, root := range []Operator{one, two} {
			if err := CheckColumnar(root); err != nil {
				t.Fatal(err)
			}
		}
		a, _ := execute(t, &Coordinator{Nodes: parts}, one)
		b, _ := execute(t, &Coordinator{Nodes: parts}, two)
		if got, want := canonicalSet(b.AllRows()), canonicalSet(a.AllRows()); !reflect.DeepEqual(got, want) {
			t.Errorf("seed %d, groups %v: two phases give %v, one gives %v", seed, groups, got, want)
		}
	}
}

// canonicalSet renders rows as a multiset, blind to their order.
func canonicalSet(rows []Row) map[string]int {
	out := map[string]int{}
	for _, r := range rows {
		out[fmt.Sprintf("%#v", r)]++
	}
	return out
}

// A merge of counts that are not int64 is an error on both faces of the
// aggregate, not a wrong number.
func TestMergeRejectsNonCountColumn(t *testing.T) {
	tb := mustTable(t, "t", aggInput, []Row{aggRow(rand.New(rand.NewSource(1)))}, 1, -1)
	for _, spec := range []AggSpec{{Kind: aggCountMerge, Col: 1}, {Kind: aggAvgMerge, Col: 0}} {
		op := NewHashAggregate("agg", NewScan("scan", tb, nil, nil), nil, []AggSpec{spec}, true, aggOutSchema(nil, []AggSpec{spec}))
		if _, err := op.Compute(0, []*PartitionedResult{{Parts: tb.RowParts()}}); err == nil {
			t.Errorf("%v: oracle merged a non-count column", spec)
		}
		if _, err := op.ComputeBatch(0, []*BatchResult{{Parts: tb.ColParts}}); err == nil || errors.Is(err, ErrNotColumnar) {
			t.Errorf("%v: kernel error = %v, want a type error", spec, err)
		}
	}
}
