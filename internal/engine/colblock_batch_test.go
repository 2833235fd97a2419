package engine

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// blockGen draws batches that reach every choice the codec makes.
type blockGen struct{ r *rand.Rand }

func (g blockGen) ints(n int) []int64 {
	out := make([]int64, n)
	kind := g.r.Intn(5)
	base := g.r.Int63n(1 << 40)
	for i := range out {
		switch kind {
		case 0: // near-sequential: delta wins
			out[i] = base + int64(i)*3
		case 1: // small values: one byte either way, a tie, so plain
			out[i] = int64(g.r.Intn(60))
		case 2: // neighbours of the extremes: deltas wrap
			out[i] = []int64{math.MinInt64, math.MinInt64 + 1, math.MaxInt64, math.MaxInt64 - 1, 0, -1}[g.r.Intn(6)]
		case 3: // a constant: the first value decides
			out[i] = base
		default:
			out[i] = int64(g.r.Uint64())
		}
	}
	return out
}

func (g blockGen) floats(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		switch g.r.Intn(6) {
		case 0: // NaNs of any payload and sign
			out[i] = math.Float64frombits(0x7FF0000000000001 | g.r.Uint64())
		case 1:
			out[i] = []float64{math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, 5e-324, math.MaxFloat64}[g.r.Intn(6)]
		default:
			out[i] = g.r.NormFloat64() * 1e6
		}
	}
	return out
}

func (g blockGen) strings(n int) []string {
	out := make([]string, n)
	kind := g.r.Intn(4)
	for i := range out {
		switch kind {
		case 0: // low cardinality: dictionary wins
			out[i] = []string{"PENDING", "SHIPPED", "RETURNED", ""}[g.r.Intn(4)]
		case 1: // unique: plain wins
			out[i] = fmt.Sprintf("customer#%09d|%d", g.r.Intn(1e9), i)
		case 2: // one one-byte value: at 3 rows plain and dictionary tie at 6 bytes
			out[i] = "a"
		default: // non-UTF-8 bytes and long values (two-byte length prefixes)
			out[i] = string(bytes.Repeat([]byte{byte(g.r.Intn(256))}, g.r.Intn(200)))
		}
	}
	return out
}

// batch draws a batch of up to maxRows physical rows, then maybe narrows it
// to a selection (sorted, shuffled or empty) and maybe to a column subset.
func (g blockGen) batch(maxRows int) *Batch {
	n := g.r.Intn(maxRows + 1)
	if g.r.Intn(8) == 0 {
		n = []int{0, 1, 3}[g.r.Intn(3)]
	}
	schema := make(Schema, 1+g.r.Intn(4))
	cols := make([]Vector, len(schema))
	for c := range cols {
		t := ColType(g.r.Intn(3))
		schema[c] = Column{Name: fmt.Sprintf("c%d", c), Type: t}
		cols[c].Type = t
		switch t {
		case TypeInt:
			cols[c].Ints = g.ints(n)
		case TypeFloat:
			cols[c].Floats = g.floats(n)
		default:
			cols[c].Strings = g.strings(n)
		}
	}
	b, err := NewBatchFromCols(schema, cols)
	if err != nil {
		panic(err)
	}
	if g.r.Intn(2) == 0 {
		b.Sel = []int32{}
		for p := 0; p < n; p++ {
			if g.r.Intn(3) != 0 {
				b.Sel = append(b.Sel, int32(p))
			}
		}
		if g.r.Intn(4) == 0 {
			g.r.Shuffle(len(b.Sel), func(i, j int) { b.Sel[i], b.Sel[j] = b.Sel[j], b.Sel[i] })
		}
	}
	if g.r.Intn(3) == 0 {
		keep := g.r.Perm(len(schema))[:1+g.r.Intn(len(schema))]
		sub := make(Schema, len(keep))
		for i, c := range keep {
			sub[i] = schema[c]
		}
		b = projectBatch(b, keep, sub)
	}
	return b
}

// TestBlockCodecIsTheOnePath: over seeded batches — dense, under a selection
// vector, projected to a column subset, empty, with NaN payloads, wrapping
// deltas and encodings that tie with plain — the batch encoder writes the
// bytes the row adapter and the row-walking reference write into a buffer
// sized to the byte in advance, and every decoder returns the batch's logical
// rows.
func TestBlockCodecIsTheOnePath(t *testing.T) {
	check := func(t *testing.T, b *Batch) {
		t.Helper()
		rows := b.ToRows()
		data, err := EncodeBlock(b)
		if err != nil {
			t.Fatal(err)
		}
		if adapter, err := EncodeBlockBytes(rows); err != nil || !bytes.Equal(data, adapter) {
			t.Fatalf("batch encoder and row adapter differ (err=%v):\n  batch %x\nadapter %x", err, data, adapter)
		}
		if ref, ok := refEncodeColumnBlock(rows); !ok || !bytes.Equal(data, ref) {
			t.Fatalf("batch encoder and reference differ (ok=%v):\n    batch %x\nreference %x", ok, data, ref)
		}
		if len(data) != cap(data) {
			t.Fatalf("the block is %d bytes in a buffer of %d: the size plan missed", len(data), cap(data))
		}
		var schema Schema
		if b != nil {
			schema = b.Schema
		}
		got, err := DecodeBlock(data, schema)
		if err != nil || !sameRowBits(got.ToRows(), rows) {
			t.Fatalf("DecodeBlock under %v: err=%v\n got %v\nwant %v", schema, err, got.ToRows(), rows)
		}
		if got != nil && (got.Sel != nil || len(got.Cols) != len(schema)) {
			t.Fatalf("decoded batch is not dense over the schema: sel=%v, %d columns", got.Sel, len(got.Cols))
		}
		for name, decode := range map[string]func([]byte) ([]Row, error){"DecodeBlockFile": DecodeBlockFile, "reference": refDecodeBlockFile} {
			if got, err := decode(data); err != nil || !sameRowBits(got, rows) {
				t.Fatalf("%s: err=%v\n got %v\nwant %v", name, err, got, rows)
			}
		}
	}
	t.Run("nil", func(t *testing.T) { check(t, nil) })
	t.Run("ties are plain", func(t *testing.T) {
		b, err := NewBatchFromCols(Schema{{Type: TypeInt}, {Type: TypeString}}, []Vector{
			{Type: TypeInt, Ints: []int64{7, 7, 7}},              // plain 3 bytes, delta 3
			{Type: TypeString, Strings: []string{"a", "a", "a"}}, // plain 6 bytes, dictionary 6
		})
		if err != nil {
			t.Fatal(err)
		}
		for c := range b.Cols {
			if p := planColumn(&b.Cols[c], nil, 3); p.enc != colEncPlain {
				t.Errorf("column %d: encoding %d at %d bytes, want plain on a tie", c, p.enc, p.size)
			}
		}
		check(t, b)
	})
	for seed := int64(0); seed < 300; seed++ {
		g := blockGen{rand.New(rand.NewSource(seed))}
		b := g.batch(200)
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { check(t, b) })
	}
}

// TestDecodeBlockChecksTheSchema: a block decodes only under the column types
// it was written with — another width or another type in one column is an
// error (the runtime's checkpoint miss) — except the empty block, which is the
// empty partition of any stage.
func TestDecodeBlockChecksTheSchema(t *testing.T) {
	written := Schema{{Name: "k", Type: TypeInt}, {Name: "v", Type: TypeFloat}, {Name: "s", Type: TypeString}}
	data, err := EncodeBlockBytes([]Row{{int64(1), 2.5, "x"}, {int64(2), 3.5, "y"}})
	if err != nil {
		t.Fatal(err)
	}
	if b, err := DecodeBlock(data, written); err != nil || b.Len() != 2 {
		t.Fatalf("DecodeBlock under the written schema: %v", err)
	}
	for name, schema := range map[string]Schema{
		"narrower":   written[:2],
		"wider":      append(append(Schema{}, written...), Column{Type: TypeInt}),
		"one column": {written[0], {Name: "v", Type: TypeInt}, written[2]},
		"no column":  {},
	} {
		if b, err := DecodeBlock(data, schema); err == nil {
			t.Errorf("%s: decoded %d rows under %v", name, b.Len(), schema)
		}
	}
	empty, err := EncodeBlock(nil)
	if err != nil {
		t.Fatal(err)
	}
	if b, err := DecodeBlock(empty, written); err != nil || b.Len() != 0 {
		t.Errorf("the empty block under a schema: %d rows, err %v", b.Len(), err)
	}
}

// TestBlockCodecAllocatesPerColumn pins what keeps a checkpoint's allocation
// off the row count: encoding costs a plan, a buffer and a dictionary, and
// decoding one vector per column — a string column's values are substrings of
// one copy of its bytes — so neither grows from 1,000 rows to 10,000. A boxed
// row anywhere on the path is at least one object per row.
func TestBlockCodecAllocatesPerColumn(t *testing.T) {
	build := func(n int) *Batch {
		cols := []Vector{
			{Type: TypeInt, Ints: make([]int64, n)},
			{Type: TypeFloat, Floats: make([]float64, n)},
			{Type: TypeString, Strings: make([]string, n)}, // dictionary
			{Type: TypeString, Strings: make([]string, n)}, // plain
		}
		for i := 0; i < n; i++ {
			cols[0].Ints[i] = int64(i) * 7919 % 1000
			cols[1].Floats[i] = float64(i) / 3
			cols[2].Strings[i] = []string{"ASIA", "EUROPE", "AMERICA"}[i%3]
			cols[3].Strings[i] = fmt.Sprintf("clerk#%07d", i)
		}
		schema := Schema{{Name: "k", Type: TypeInt}, {Name: "v", Type: TypeFloat}, {Name: "region", Type: TypeString}, {Name: "clerk", Type: TypeString}}
		b, err := NewBatchFromCols(schema, cols)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	measure := func(n int) (enc, dec float64) {
		// The encoder is measured without the unique-string column: sizing it
		// fills a dictionary that grows with its cardinality before plain wins.
		full := build(n)
		b := projectBatch(full, []int{0, 1, 2}, full.Schema[:3])
		enc = testing.AllocsPerRun(10, func() {
			if _, err := EncodeBlock(b); err != nil {
				t.Fatal(err)
			}
		})
		data, err := EncodeBlock(full)
		if err != nil {
			t.Fatal(err)
		}
		dec = testing.AllocsPerRun(10, func() {
			if _, err := DecodeBlock(data, full.Schema); err != nil {
				t.Fatal(err)
			}
		})
		return enc, dec
	}
	enc1k, dec1k := measure(1_000)
	enc10k, dec10k := measure(10_000)
	t.Logf("objects per call: encode %v (1k rows) %v (10k rows), decode %v (1k) %v (10k)", enc1k, enc10k, dec1k, dec10k)
	if enc10k > enc1k || dec10k > dec1k {
		t.Errorf("allocation grows with the row count: encode %v -> %v objects, decode %v -> %v", enc1k, enc10k, dec1k, dec10k)
	}
	if limit := float64(4 * 3); enc10k > limit {
		t.Errorf("encoding 3 columns allocates %v objects, want at most %v", enc10k, limit)
	}
	if limit := float64(4 * 4); dec10k > limit {
		t.Errorf("decoding 4 columns allocates %v objects, want at most %v", dec10k, limit)
	}
}

// TestDiskStorePathIsInjective: operator names that differ only in bytes
// unsafe for a file name are stored under different names, in this process and
// in one that reopens the directory, a name of safe bytes is written as it is,
// and Len still counts operators.
func TestDiskStorePathIsInjective(t *testing.T) {
	dir := t.TempDir()
	d, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"a/b", "a_b", "a%2Fb", "a.part0.b", "a b", "é"}
	for i, op := range names {
		if err := d.Put(op, 0, []Row{{op, int64(i)}}, 2); err != nil {
			t.Fatal(err)
		}
		if err := d.Put(op, 1, []Row{{op, int64(-i)}}, 2); err != nil {
			t.Fatal(err)
		}
	}
	reopened, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []*DiskStore{d, reopened} {
		for i, op := range names {
			got, ok := s.Get(op, 0)
			if want := []Row{{op, int64(i)}}; !ok || !sameRowBits(got, want) {
				t.Errorf("Get(%q, 0) = %v ok=%v, want %v", op, got, ok, want)
			}
		}
		if got := storedOps(s); got != len(names) {
			t.Errorf("storedOps = %d over %d operators of two partitions each", got, len(names))
		}
	}
	if err := d.Put("join-1_x", 3, nil, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, fmt.Sprintf("join-1_x.%d.ftcg", 2*len(names)))); err != nil {
		t.Errorf("a safe name's group file: %v", err)
	}
}

// projectBatch returns a view of b exposing only the given columns, sharing
// their storage and b's selection vector.
func projectBatch(b *Batch, cols []int, schema Schema) *Batch {
	out := make([]Vector, len(cols))
	for i, c := range cols {
		out[i] = b.Cols[c]
	}
	return &Batch{Schema: schema, Cols: out, Sel: b.Sel, nrows: b.nrows}
}
