package engine

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"
)

func TestColumnBlockRoundTrip(t *testing.T) {
	rows := []Row{
		{int64(-1), 2.5, "x"},
		{int64(1 << 40), math.Inf(-1), ""},
		{int64(0), -0.0, "héllo|world"},
	}
	buf, ok := EncodeColumnBlock(rows)
	if !ok {
		t.Fatal("strictly typed rows refused column-block encoding")
	}
	if len(buf) != cap(buf) {
		t.Fatalf("encoded %d bytes into a buffer of %d: the size plan missed", len(buf), cap(buf))
	}
	got, err := DecodeBlockFile(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rows) {
		t.Fatalf("round trip mismatch:\n got %v\nwant %v", got, rows)
	}
}

func TestColumnBlockNaNBits(t *testing.T) {
	rows := []Row{{math.NaN()}}
	buf, ok := EncodeColumnBlock(rows)
	if !ok {
		t.Fatal("float rows refused encoding")
	}
	got, err := DecodeBlockFile(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(got[0][0].(float64)) {
		t.Fatalf("NaN not preserved: %v", got[0][0])
	}
}

func TestColumnBlockEmpty(t *testing.T) {
	buf, ok := EncodeColumnBlock(nil)
	if !ok {
		t.Fatal("empty rows refused encoding")
	}
	got, err := DecodeBlockFile(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("want no rows, got %v", got)
	}
}

func TestColumnBlockRejectsUntypedRows(t *testing.T) {
	cases := [][]Row{
		{{int64(1)}, {2.5}},           // mixed concrete types in a column
		{{int(7)}},                    // plain int has no vector type
		{{int64(1), "a"}, {int64(2)}}, // ragged widths
		{{nil}},                       // nil value
	}
	for i, rows := range cases {
		if _, ok := EncodeColumnBlock(rows); ok {
			t.Errorf("case %d: untyped rows accepted by column-block encoding", i)
		}
	}
}

// ftgbBlock is a block in the retired gob fallback format: the "FTGB" magic
// followed by a gob stream of the rows.
func ftgbBlock(t testing.TB, rows []Row) []byte {
	t.Helper()
	b := bytes.NewBufferString("FTGB")
	if err := gob.NewEncoder(b).Encode(rows); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func TestDiskStoreRejectsUntypedRows(t *testing.T) {
	// A column mixing int64 and float64 across rows cannot be a typed
	// vector: it has no block form, so the checkpoint fails like any other
	// write error and nothing is stored.
	d, err := NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rows := []Row{{int64(1)}, {2.5}}
	if _, err := EncodeBlockBytes(rows); !errors.Is(err, ErrNotColumnar) {
		t.Fatalf("EncodeBlockBytes(mixed column) = %v, want ErrNotColumnar", err)
	}
	if err := d.Put("mixed", 0, rows, 1); !errors.Is(err, ErrNotColumnar) {
		t.Fatalf("Put(mixed column) = %v, want ErrNotColumnar", err)
	}
	if !errors.Is(d.Err(), ErrNotColumnar) {
		t.Fatalf("store did not latch the failed checkpoint: %v", d.Err())
	}
	if got, ok := d.Get("mixed", 0); ok {
		t.Fatalf("a failed Put left a readable partition: %v", got)
	}
	if storedOps(d) != 0 {
		t.Fatalf("a failed Put left %d operators in the store", storedOps(d))
	}
}

// TestRetiredFormatsAreCheckpointMisses pins the read side to the one format
// the store writes: a version-1 column block, a headerless whole-file gob
// stream and an "FTGB" gob block are decode errors, which Get reports as a
// miss; so is a whole block with bytes after it (a concatenated or partly
// overwritten block) and any file under a name earlier builds wrote —
// "<op>.part<N>.ftcb", "<op>.part<N>.gob" — whatever it holds.
func TestRetiredFormatsAreCheckpointMisses(t *testing.T) {
	rows := []Row{{int64(3), "legacy"}}
	var plainGob bytes.Buffer
	if err := gob.NewEncoder(&plainGob).Encode(rows); err != nil {
		t.Fatal(err)
	}
	v1 := []byte(colBlockMagic)
	v1 = append(v1, 1)                 // version
	v1 = binary.AppendUvarint(v1, 1)   // ncols
	v1 = binary.AppendUvarint(v1, 1)   // nrows
	v1 = append(v1, byte(TypeInt), 14) // type, then the value with no encoding byte
	current, err := EncodeBlockBytes(rows)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	d, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{
		"gob": plainGob.Bytes(), "v1": v1, "ftgb": ftgbBlock(t, rows),
		"trailing": append(append([]byte{}, current...), "garbage"...),
	} {
		if got, err := DecodeBlockFile(data); err == nil {
			t.Errorf("%s: retired format decoded to %v", name, got)
		}
		if got, err := DecodeBlock(data, Schema{{Type: TypeInt}, {Type: TypeString}}); err == nil {
			t.Errorf("%s: retired format decoded to a batch of %d rows", name, got.Len())
		}
		if err := d.PutGroup(name, 1, []PartBlock{{0, data}}); err != nil {
			t.Fatal(err)
		}
	}
	// The retired file names: a block this build would decode, under a name
	// earlier builds wrote, is neither served nor counted, by this store or
	// by one that opens the directory afterwards.
	for _, name := range []string{"oldname.part0.gob", "oldname.part0.ftcb"} {
		if err := os.WriteFile(filepath.Join(dir, name), current, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	reopened, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []*DiskStore{d, reopened} {
		for _, name := range []string{"gob", "v1", "ftgb", "trailing", "oldname"} {
			if got, ok := s.Get(name, 0); ok {
				t.Errorf("%s: Get served a retired format or name: %v", name, got)
			}
		}
		if got := storedOps(s); got != 4 {
			t.Errorf("storedOps = %d, want the 4 operators with a partition in a group file", got)
		}
	}
}

// headerCrasher is a 15-byte file whose header claims 1 column x 2^33 rows.
var headerCrasher = append([]byte(colBlockMagic), colBlockVersion, 1, 0x80, 0x80, 0x80, 0x80, 0x20, byte(TypeInt), colEncPlain, 0, 0)

// TestDecodeRejectsOversizedHeaderBeforeAllocating: a header claiming more
// values than the file has bytes is an error (a checkpoint miss), not a
// 200 GB allocation.
func TestDecodeRejectsOversizedHeaderBeforeAllocating(t *testing.T) {
	if len(headerCrasher) != 15 {
		t.Fatalf("crasher is %d bytes, want 15", len(headerCrasher))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	best := time.Hour // fastest of a few tries: one may be descheduled
	for i := 0; i < 5; i++ {
		start := time.Now()
		rows, err := DecodeBlockFile(headerCrasher)
		if d := time.Since(start); d < best {
			best = d
		}
		if err == nil {
			t.Fatalf("oversized header decoded to %d rows", len(rows))
		}
	}
	runtime.ReadMemStats(&after)
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
		t.Errorf("rejecting the header allocated %d bytes", alloc)
	}
	if best > time.Millisecond {
		t.Errorf("rejecting the header took %v", best)
	}
}

func TestDiskStoreGCsOrphanedTempFiles(t *testing.T) {
	dir := t.TempDir()
	d1, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := d1.Put("op", 0, []Row{{int64(1)}}, 1); err != nil {
		t.Fatal(err)
	}

	// Plant an orphan as a crash mid-Put would leave it: a "put-*" temp file
	// that never got renamed into place.
	orphan := filepath.Join(dir, "put-123456")
	if err := os.WriteFile(orphan, []byte("torn write"), 0o644); err != nil {
		t.Fatal(err)
	}

	// A fresh store over the directory removes the orphan but keeps data.
	d2, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Errorf("orphaned temp file not garbage-collected (stat err: %v)", err)
	}
	if rows, ok := d2.Get("op", 0); !ok || len(rows) != 1 {
		t.Error("orphan GC damaged committed partitions")
	}
}

// TestColumnBlockCompressionRoundTrip drives every per-column encoding the
// v2 format can choose — plain and delta ints (including wrap-around at the
// int64 extremes), plain floats with NaN/±Inf/-0, plain and dictionary
// strings — and checks the property the checkpoint-bytes metric depends on:
// the size plan predicts the encoder byte-for-byte (the buffer is allocated
// at the planned size and never grows), and decode(encode(x)) == x.
func TestColumnBlockCompressionRoundTrip(t *testing.T) {
	cases := map[string][]Row{
		"sorted-ints-delta": func() []Row {
			rows := make([]Row, 500)
			for i := range rows {
				rows[i] = Row{int64(1_000_000 + i*3)}
			}
			return rows
		}(),
		"random-ints-plain": func() []Row {
			rows := make([]Row, 200)
			v := int64(982451653)
			for i := range rows {
				v = v*6364136223846793005 + 1442695040888963407
				rows[i] = Row{v}
			}
			return rows
		}(),
		"int64-extremes": {
			{int64(math.MaxInt64)}, {int64(math.MinInt64)},
			{int64(math.MaxInt64)}, {int64(0)}, {int64(math.MinInt64)},
		},
		"floats-special": {
			{math.NaN()}, {math.Inf(1)}, {math.Inf(-1)},
			{math.Copysign(0, -1)}, {1e308}, {5e-324},
		},
		"low-card-strings-dict": func() []Row {
			rows := make([]Row, 300)
			status := []string{"PENDING", "SHIPPED", "RETURNED"}
			for i := range rows {
				rows[i] = Row{status[i%len(status)]}
			}
			return rows
		}(),
		"unique-strings-plain": func() []Row {
			rows := make([]Row, 50)
			for i := range rows {
				rows[i] = Row{string(rune('a'+i%26)) + "-unique-suffix-0123456789"}
			}
			return rows
		}(),
		"mixed-width": func() []Row {
			rows := make([]Row, 256)
			region := []string{"ASIA", "EUROPE"}
			for i := range rows {
				rows[i] = Row{int64(i), float64(i) * 1.5, region[i%2]}
			}
			return rows
		}(),
	}
	for name, rows := range cases {
		buf, ok := EncodeColumnBlock(rows)
		if !ok {
			t.Fatalf("%s: strictly typed rows refused encoding", name)
		}
		if len(buf) != cap(buf) {
			t.Errorf("%s: encoded %d bytes into a buffer of %d", name, len(buf), cap(buf))
		}
		got, err := DecodeBlockFile(buf)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := rows
		if !sameRowBits(got, want) {
			t.Errorf("%s: round trip mismatch", name)
		}
	}
}

// TestColumnBlockCompressionShrinks asserts the encoder actually picks the
// compressed form where it should: near-sequential ints beat plain varints,
// low-cardinality strings beat repeated literals.
func TestColumnBlockCompressionShrinks(t *testing.T) {
	ints := make([]Row, 1000)
	for i := range ints {
		ints[i] = Row{int64(5_000_000_000 + i)}
	}
	ib, err := rowsBatch(ints)
	if err != nil {
		t.Fatal(err)
	}
	plain, _ := refIntColSizes(ints, 0)
	ip := planColumn(&ib.Cols[0], nil, len(ints))
	delta := ip.size
	if ip.enc != colEncDelta || delta >= plain {
		t.Fatalf("sequential ints: encoding %d at %d bytes, want delta under plain's %d", ip.enc, delta, plain)
	}
	strs := make([]Row, 1000)
	for i := range strs {
		strs[i] = Row{[]string{"AUTOMOBILE", "FURNITURE"}[i%2]}
	}
	sb, err := rowsBatch(strs)
	if err != nil {
		t.Fatal(err)
	}
	splain, _ := refStringColSizes(strs, 0)
	sp := planColumn(&sb.Cols[0], nil, len(strs))
	dict := sp.size
	if sp.enc != colEncDict || dict >= splain {
		t.Fatalf("low-cardinality strings: encoding %d at %d bytes, want dict under plain's %d", sp.enc, dict, splain)
	}
	// And the whole-block size reflects the choice.
	both := make([]Row, 1000)
	for i := range both {
		both[i] = Row{ints[i][0], strs[i][0]}
	}
	buf, ok := EncodeColumnBlock(both)
	if !ok {
		t.Fatal("typed rows refused encoding")
	}
	size := int64(len(buf))
	header := int64(len(colBlockMagic)) + 1 + uvarintLen(2) + uvarintLen(1000) + 2*2
	if size != header+delta+dict {
		t.Fatalf("block size %d does not reflect compressed choices (want %d)", size, header+delta+dict)
	}
}

// TestEncodeBlockBytesMatchesStoreFiles pins the invariant the async
// checkpoint writer's EncodedStore fast path relies on: the pre-encoded
// bytes are identical to what a direct Put writes.
func TestEncodeBlockBytesMatchesStoreFiles(t *testing.T) {
	for name, rows := range map[string][]Row{
		"columnar": {{int64(1), "x"}, {int64(2), "y"}},
		"empty":    nil,
	} {
		data, err := EncodeBlockBytes(rows)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		dir := t.TempDir()
		d1, err := NewDiskStore(filepath.Join(dir, "put"))
		if err != nil {
			t.Fatal(err)
		}
		if err := d1.Put("op", 0, rows, 1); err != nil {
			t.Fatal(err)
		}
		d2, err := NewDiskStore(filepath.Join(dir, "enc"))
		if err != nil {
			t.Fatal(err)
		}
		if err := d2.PutGroup("op", 1, []PartBlock{{0, data}}); err != nil {
			t.Fatal(err)
		}
		f1, err := os.ReadFile(filepath.Join(dir, "put", "op.0.ftcg"))
		if err != nil {
			t.Fatal(err)
		}
		f2, err := os.ReadFile(filepath.Join(dir, "enc", "op.0.ftcg"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(f1, f2) || !bytes.HasSuffix(f1, data) {
			t.Errorf("%s: PutGroup file differs from Put file (%d vs %d bytes), or does not end in the block", name, len(f2), len(f1))
		}
		if stored, ok := d1.GetEncoded("op", 0); !ok || !bytes.Equal(stored, data) {
			t.Errorf("%s: GetEncoded returned %d bytes (ok=%v), want the block's %d", name, len(stored), ok, len(data))
		}
		got, ok := d2.Get("op", 0)
		if !ok || !reflect.DeepEqual(got, rows) {
			t.Errorf("%s: PutGroup read-back mismatch: ok=%v got=%v", name, ok, got)
		}
	}
}

// planColumn is one column's plan on a scratch of its own.
func planColumn(v *Vector, sel []int32, n int) colPlan {
	return new(blockScratch).planColumn(v, sel, n)
}
