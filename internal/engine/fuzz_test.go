package engine

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// exprGen deterministically derives a schema, rows, and an expression tree
// from fuzz bytes, so the fuzzer explores the joint space of expression
// shapes and data.
type exprGen struct {
	data []byte
	pos  int
}

func (g *exprGen) byte() byte {
	if g.pos >= len(g.data) {
		return 0
	}
	b := g.data[g.pos]
	g.pos++
	return b
}

func (g *exprGen) schema() Schema {
	ncols := 1 + int(g.byte())%3
	s := make(Schema, ncols)
	for i := range s {
		s[i] = Column{Name: string(rune('a' + i)), Type: ColType(g.byte() % 3)}
	}
	return s
}

func (g *exprGen) value(t ColType) Value {
	switch t {
	case TypeInt:
		return int64(g.byte()) - 16 // small ints, including 0 and negatives
	case TypeFloat:
		// Divide so zero divisors and NaN-free small floats both occur.
		return float64(int64(g.byte())-8) / 4
	default:
		return []string{"", "a", "bb", "Z|"}[g.byte()%4]
	}
}

func (g *exprGen) rows(s Schema) []Row {
	n := int(g.byte()) % 5
	rows := make([]Row, 0, n)
	for i := 0; i < n; i++ {
		r := make(Row, len(s))
		for c := range s {
			r[c] = g.value(s[c].Type)
		}
		rows = append(rows, r)
	}
	return rows
}

func (g *exprGen) expr(s Schema, depth int) Expr {
	kind := g.byte()
	if depth <= 0 {
		kind %= 2 // leaves only
	}
	switch kind % 6 {
	case 0:
		return Col(int(g.byte()) % (len(s) + 1)) // may be out of range
	case 1:
		return Const{V: g.value(ColType(g.byte() % 3))}
	case 2, 3:
		return Cmp{Op: CmpOp(g.byte() % 6), L: g.expr(s, depth-1), R: g.expr(s, depth-1)}
	case 4:
		n := int(g.byte()) % 3
		conj := make(And, 0, n)
		for i := 0; i < n; i++ {
			conj = append(conj, g.expr(s, depth-1))
		}
		return conj
	default:
		return Arith{Op: ArithOp(g.byte() % 4), L: g.expr(s, depth-1), R: g.expr(s, depth-1)}
	}
}

func sameValue(a, b Value) bool {
	if af, ok := a.(float64); ok {
		bf, ok := b.(float64)
		return ok && (af == bf || (math.IsNaN(af) && math.IsNaN(bf)))
	}
	return a == b
}

// FuzzCompiledExpr differentially fuzzes the compiled batch evaluator against
// the interpreted per-row evaluator: on every generated (schema, rows,
// expression) triple where the expression compiles, both must agree on error
// presence and, when error-free, on every produced value.
func FuzzCompiledExpr(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 3, 0, 1, 2, 3, 4})
	f.Add([]byte{2, 1, 0, 4, 10, 20, 30, 40, 2, 5, 0, 1, 1, 7})
	f.Add([]byte("compare-and-arith\x05\x03\x00\xff\x80"))
	f.Add([]byte{1, 2, 2, 200, 201, 202, 4, 2, 2, 3, 0, 0, 5, 1, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		g := &exprGen{data: data}
		schema := g.schema()
		rows := g.rows(schema)
		e := g.expr(schema, 3)

		// Interpreted reference: per-row values, first error wins.
		var want []Value
		var wantErr error
		for _, r := range rows {
			v, err := e.Eval(r)
			if err != nil {
				wantErr = err
				break
			}
			want = append(want, v)
		}

		ce, err := Compile(e, schema)
		if err != nil {
			// Expressions the compiler rejects run interpreted; nothing to
			// compare, the reference evaluation above already exercised them.
			return
		}
		b, err := RowsToBatch(schema, rows)
		if err != nil {
			t.Fatalf("generated rows are not strictly typed: %v", err)
		}
		vec, cerr := ce.eval(b, nil, nil)
		if wantErr != nil {
			if cerr == nil {
				t.Fatalf("interpreted failed (%v) but compiled succeeded\nexpr=%#v rows=%v", wantErr, e, rows)
			}
			return
		}
		if cerr != nil {
			t.Fatalf("compiled failed (%v) but interpreted succeeded\nexpr=%#v rows=%v", cerr, e, rows)
		}
		for i := range rows {
			if got := vec.Value(i); !sameValue(got, want[i]) {
				t.Fatalf("row %d: compiled=%v interpreted=%v\nexpr=%#v rows=%v", i, got, want[i], e, rows)
			}
		}
	})
}

// sameRowBits is row equality with floats compared by bit pattern, so NaN
// payloads and the sign of zero count.
func sameRowBits(a, b []Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for c, av := range a[i] {
			af, aok := av.(float64)
			bf, bok := b[i][c].(float64)
			if aok != bok || (aok && math.Float64bits(af) != math.Float64bits(bf)) || (!aok && av != b[i][c]) {
				return false
			}
		}
	}
	return true
}

// FuzzDecodeBlockFile feeds arbitrary bytes to the checkpoint decoder,
// differentially: the batch decoder (under no schema, and again under the
// schema the block itself declares), its row adapter and the row-walking
// reference decoder all error or all yield the same rows. The outcome is never
// a panic or a header-sized allocation, decoded rows are a fixed point of
// encode→decode, and a block in the retired FTGB gob format is always an
// error — no input reaches a gob decoder.
func FuzzDecodeBlockFile(f *testing.F) {
	seeds := [][]Row{
		{{int64(-1), 2.5, "x"}, {int64(1 << 40), math.Inf(-1), ""}}, // plain columns
		{{int64(100)}, {int64(101)}, {int64(102)}, {int64(103)}},    // delta ints
		{{"aa"}, {"aa"}, {"bb"}, {"aa"}, {"bb"}, {"aa"}},            // dictionary strings
		nil,
	}
	blocks := [][]byte{ftgbBlock(f, []Row{{int64(1)}, {2.5}})}
	for _, rows := range seeds {
		data, err := EncodeBlockBytes(rows)
		if err != nil {
			f.Fatal(err)
		}
		blocks = append(blocks, data)
	}
	for _, data := range blocks {
		f.Add(data)
		f.Add(data[:len(data)/2])
		f.Add(data[:len(data)-1])
	}
	f.Add(headerCrasher)
	// Zero columns by 48 rows over trailing bytes: rows the encoder would
	// refuse, so the decoder must too.
	f.Add([]byte("FTCB\x02\x00" + strings.Repeat("0", 49)))
	// Whole blocks with bytes after them — a concatenated or partly
	// overwritten file — must be errors, the empty block's included.
	mustErr := [][]byte{
		append(append([]byte{}, blocks[1]...), "garbage"...),
		[]byte("FTCB\x02\x00\x00garbage"),
		append(append([]byte{}, blocks[2]...), blocks[2]...),
	}
	for _, data := range mustErr {
		if rows, err := DecodeBlockFile(data); err == nil {
			f.Fatalf("a block followed by other bytes decoded to %v", rows)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rows, err := DecodeBlockFile(data)
		ref, refErr := refDecodeBlockFile(data)
		b, bErr := DecodeBlock(data, nil)
		if (err == nil) != (refErr == nil) || (err == nil) != (bErr == nil) {
			t.Fatalf("decoders disagree: row adapter %v, reference %v, batch %v", err, refErr, bErr)
		}
		if err != nil {
			return
		}
		if bytes.HasPrefix(data, []byte("FTGB")) {
			t.Fatalf("a retired FTGB block decoded to %v", rows)
		}
		if !sameRowBits(rows, ref) || !sameRowBits(rows, b.ToRows()) {
			t.Fatalf("decoders disagree on the rows:\n  adapter %v\nreference %v\n    batch %v", rows, ref, b.ToRows())
		}
		if b != nil {
			again, err := DecodeBlock(data, b.Schema)
			if err != nil || !sameRowBits(rows, again.ToRows()) {
				t.Fatalf("decoding under the block's own schema %v: err=%v rows=%v, want %v", b.Schema, err, again.ToRows(), rows)
			}
		}
		enc, err := EncodeBlockBytes(rows)
		if err != nil {
			t.Fatalf("decoded rows do not encode: %v", err)
		}
		if refEnc, ok := refEncodeColumnBlock(rows); !ok || !bytes.Equal(enc, refEnc) {
			t.Fatalf("encoders disagree (reference ok=%v):\n    batch %x\nreference %x", ok, enc, refEnc)
		}
		again, err := DecodeBlockFile(enc)
		if err != nil || !sameRowBits(rows, again) {
			t.Fatalf("round trip is not a fixed point (err=%v):\n first %v\nsecond %v", err, rows, again)
		}
	})
}

// FuzzGroupIndex holds the group file's index reader to its contract on
// arbitrary bytes: it never panics, every entry it returns lies wholly in the
// file's block area, and a store opened over the file serves each partition's
// first entry's bytes and nothing else. With fix set the index checksum is
// recomputed first, so mutated counts, offsets and lengths get past it.
func FuzzGroupIndex(f *testing.F) {
	_, name, file, blocks := testGroup(f, "join")
	indexLen := 8 + len(blocks)*groupEntrySize + 4
	for _, cut := range []int{0, 7, 8, indexLen - 1, indexLen, indexLen + len(blocks[0]), len(file) - 1, len(file)} {
		f.Add(file[:cut], false)
	}
	for _, bit := range []int{0, 33, 64, 64 + 8*8, 64 + 16*8 + 3, 8*indexLen - 1} {
		flipped := append([]byte(nil), file...)
		flipped[bit/8] ^= 1 << (bit % 8)
		f.Add(flipped, false)
		f.Add(flipped, true)
	}
	f.Fuzz(func(t *testing.T, data []byte, fix bool) {
		if fix {
			data = append([]byte(nil), data...)
			fixIndexCRC(data)
		}
		locs := readGroupIndex(bytes.NewReader(data), int64(len(data)))
		if len(locs) > len(data)/groupEntrySize {
			t.Fatalf("%d entries out of %d bytes", len(locs), len(data))
		}
		first := map[int]blockLoc{}
		for _, loc := range locs {
			if loc.part < 0 || loc.n < 0 || loc.off < 8+int64(len(locs))*groupEntrySize+4 || loc.off+loc.n > int64(len(data)) {
				t.Fatalf("entry %+v lies outside the blocks of a %d-byte file", loc, len(data))
			}
			if _, dup := first[loc.part]; !dup {
				first[loc.part] = loc
			}
		}
		if len(locs) == 0 {
			return
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
		d, err := NewDiskStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		for part, loc := range first {
			if got, ok := d.GetEncoded("join", part); !ok || !bytes.Equal(got, data[loc.off:loc.off+loc.n]) {
				t.Fatalf("partition %d: served %d bytes (ok=%v), want the %d at %d", part, len(got), ok, loc.n, loc.off)
			}
		}
		if got := len(d.index["join"]); got != len(first) {
			t.Fatalf("the store indexes %d partitions, the file names %d", got, len(first))
		}
	})
}
