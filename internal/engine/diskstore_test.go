package engine

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
)

// storedOps returns the number of distinct operators d holds at least one
// partition of.
func storedOps(d *DiskStore) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.index)
}

func TestDiskStoreRoundTrip(t *testing.T) {
	d, err := NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rows := []Row{{int64(1), 2.5, "x"}, {int64(2), 3.5, "y"}}
	if err := d.Put("⨝ weird/name", 1, rows, 4); err != nil {
		t.Fatal(err)
	}
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	got, ok := d.Get("⨝ weird/name", 1)
	if !ok {
		t.Fatal("partition not found")
	}
	if len(got) != 2 || got[0][0].(int64) != 1 || got[1][2].(string) != "y" {
		t.Fatalf("round trip corrupted rows: %v", got)
	}
	if _, ok := d.Get("⨝ weird/name", 2); ok {
		t.Error("missing partition reported present")
	}
	if _, ok := d.Get("other", 1); ok {
		t.Error("missing operator reported present")
	}
	if storedOps(d) != 1 {
		t.Errorf("storedOps = %d, want 1", storedOps(d))
	}
}

func TestDiskStoreEmptyPartition(t *testing.T) {
	d, err := NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Put("op", 0, nil, 2); err != nil {
		t.Fatal(err)
	}
	got, ok := d.Get("op", 0)
	if !ok {
		t.Fatal("empty partition not stored")
	}
	if len(got) != 0 {
		t.Errorf("want empty rows, got %v", got)
	}
}

func TestDiskStoreSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	d1, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := d1.Put("join", 0, []Row{{int64(42)}}, 2); err != nil {
		t.Fatal(err)
	}

	// "Restart": a fresh store over the same directory sees the data.
	d2, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	rows, ok := d2.Get("join", 0)
	if !ok || rows[0][0].(int64) != 42 {
		t.Fatal("disk store lost data across restarts")
	}
}

func TestCoordinatorWithDiskStore(t *testing.T) {
	dir := t.TempDir()
	store, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}

	root, co := pipeline(t, 4, true)
	co.Store = store
	co.Injector = NewScriptedFailures().Add("agg", 0, 0)
	sum, cnt, rep := runPipeline(t, root, co)

	rootClean, coClean := pipeline(t, 4, true)
	wantSum, wantCnt, _ := runPipeline(t, rootClean, coClean)
	if sum != wantSum || cnt != wantCnt {
		t.Errorf("disk-store run result (%g,%d) != clean (%g,%d)", sum, cnt, wantSum, wantCnt)
	}
	if rep.MaterializedPartitions == 0 {
		t.Error("nothing persisted to disk store")
	}
	if storedOps(store) == 0 {
		t.Error("disk store empty after materializing run")
	}
	if err := store.Err(); err != nil {
		t.Fatal(err)
	}

	// Re-run the query with a fresh coordinator over the same store: the
	// materialized join is restored from disk, not recomputed.
	root2, co2 := pipeline(t, 4, true)
	store2, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	co2.Store = store2
	sum2, cnt2, rep2 := runPipeline(t, root2, co2)
	if sum2 != wantSum || cnt2 != wantCnt {
		t.Error("resumed run produced a different result")
	}
	if rep2.MaterializedPartitions != 0 {
		t.Errorf("resumed run re-materialized %d partitions, want 0 (served from disk)", rep2.MaterializedPartitions)
	}
}

// testGroup writes one 4-partition group of op into a fresh directory and
// returns the directory, the group file's name and bytes, and the blocks.
func testGroup(t testing.TB, op string) (dir, name string, file []byte, blocks [][]byte) {
	t.Helper()
	dir = t.TempDir()
	d, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	group := make([]PartBlock, 4)
	for part := range group {
		rows := make([]Row, 3+2*part)
		for i := range rows {
			rows[i] = Row{int64(part), fmt.Sprintf("row-%d-of-partition-%d", i, part)}
		}
		data, err := EncodeBlockBytes(rows)
		if err != nil {
			t.Fatal(err)
		}
		group[part] = PartBlock{Part: part, Data: data}
		blocks = append(blocks, data)
	}
	if err := d.PutGroup(op, len(group), group); err != nil {
		t.Fatal(err)
	}
	name = op + ".0" + groupSuffix
	if file, err = os.ReadFile(filepath.Join(dir, name)); err != nil {
		t.Fatal(err)
	}
	return dir, name, file, blocks
}

// servedOrMissed opens a store over a directory holding file under name and
// checks every partition of op against blocks: byte-identical, or a miss. It
// returns how many were served.
func servedOrMissed(t testing.TB, what, name string, file []byte, op string, blocks [][]byte) int {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, name), file, 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	served := 0
	for part := 0; part < len(blocks)+2; part++ {
		got, ok := d.GetEncoded(op, part)
		if !ok {
			continue
		}
		served++
		if part >= len(blocks) || !bytes.Equal(got, blocks[part]) {
			t.Fatalf("%s: partition %d served %d bytes that are not what was written", what, part, len(got))
		}
	}
	return served
}

// TestDiskStoreGroupCrashPoints: whatever part of a group file a crash (or a
// flipped bit in its index) leaves under the final name, a store that opens
// the directory serves each partition exactly as written or not at all.
func TestDiskStoreGroupCrashPoints(t *testing.T) {
	_, name, file, blocks := testGroup(t, "join")
	indexLen := 8 + len(blocks)*groupEntrySize + 4
	for cut := 0; cut <= len(file); cut++ {
		// A prefix serves the partitions whose blocks it holds whole, once it
		// holds the whole index.
		want := 0
		for end := indexLen; want < len(blocks) && end+len(blocks[want]) <= cut; want++ {
			end += len(blocks[want])
		}
		if got := servedOrMissed(t, fmt.Sprintf("prefix of %d bytes", cut), name, file[:cut], "join", blocks); got != want {
			t.Fatalf("prefix of %d of %d bytes served %d partitions, want %d", cut, len(file), got, want)
		}
	}
	for bit := 0; bit < 8*indexLen; bit++ {
		flipped := append([]byte(nil), file...)
		flipped[bit/8] ^= 1 << (bit % 8)
		if got := servedOrMissed(t, fmt.Sprintf("bit %d flipped", bit), name, flipped, "join", blocks); got != 0 {
			t.Fatalf("bit %d of the index flipped and %d partitions were still served", bit, got)
		}
	}
	// A bit flipped inside one block is that block's business: the others are
	// read from their own byte ranges.
	flipped := append([]byte(nil), file...)
	flipped[indexLen+len(blocks[0])+1] ^= 0x40
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, name), flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for part, want := range blocks {
		got, ok := d.GetEncoded("join", part)
		if !ok || bytes.Equal(got, want) != (part != 1) {
			t.Errorf("partition %d after a flip inside partition 1's block: ok=%v identical=%v", part, ok, bytes.Equal(got, want))
		}
	}
}

// fixIndexCRC recomputes the checksum of the index at the head of file, if
// the file is long enough to hold the index its count declares.
func fixIndexCRC(file []byte) {
	if len(file) < 8 {
		return
	}
	end := 8 + int64(binary.LittleEndian.Uint32(file[4:]))*groupEntrySize
	if end+4 <= int64(len(file)) {
		binary.LittleEndian.PutUint32(file[end:], crc32.ChecksumIEEE(file[:end]))
	}
}

// TestGroupIndexBoundsWhatItAllocates: an index whose checksum holds but
// whose numbers lie — more entries than the file has bytes, a block longer
// than the file, a block inside the index — is refused or loses those
// entries, without an allocation sized by the lie.
func TestGroupIndexBoundsWhatItAllocates(t *testing.T) {
	_, _, file, blocks := testGroup(t, "join")
	indexLen := int64(8 + len(blocks)*groupEntrySize + 4)
	entry := func(i, field int) []byte { return file[8+i*groupEntrySize+8*field:] }
	for name, tc := range map[string]struct {
		lie  func(file []byte)
		want int
	}{
		"nothing":              {func([]byte) {}, 4},
		"2^32-1 entries":       {func(f []byte) { binary.LittleEndian.PutUint32(f[4:], math.MaxUint32) }, 0},
		"one entry too many":   {func(f []byte) { binary.LittleEndian.PutUint32(f[4:], uint32(len(f)-12)/groupEntrySize+1) }, 0},
		"a length of 2^62":     {func([]byte) { binary.LittleEndian.PutUint64(entry(1, 2), 1<<62) }, 3},
		"a length of 2^64-1":   {func([]byte) { binary.LittleEndian.PutUint64(entry(1, 2), math.MaxUint64) }, 3},
		"an offset past EOF":   {func([]byte) { binary.LittleEndian.PutUint64(entry(2, 1), uint64(len(file))+1) }, 3},
		"an offset of 2^63":    {func([]byte) { binary.LittleEndian.PutUint64(entry(2, 1), 1<<63) }, 3},
		"a block in the index": {func([]byte) { binary.LittleEndian.PutUint64(entry(0, 1), 8) }, 3},
		"a partition of 2^40":  {func([]byte) { binary.LittleEndian.PutUint64(entry(3, 0), 1<<40) }, 3},
	} {
		saved := append([]byte(nil), file...)
		tc.lie(file)
		fixIndexCRC(file)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		locs := readGroupIndex(bytes.NewReader(file), int64(len(file)))
		runtime.ReadMemStats(&after)
		if len(locs) != tc.want {
			t.Errorf("%s: %d entries survive, want %d", name, len(locs), tc.want)
		}
		for _, loc := range locs {
			if loc.off < indexLen || loc.n < 0 || loc.off+loc.n > int64(len(file)) {
				t.Errorf("%s: entry %+v lies outside the blocks of a %d-byte file", name, loc, len(file))
			}
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<16 {
			t.Errorf("%s: reading the index of a %d-byte file allocated %d bytes", name, len(file), alloc)
		}
		copy(file, saved)
	}
}

// TestDiskStoreNewestWriteWins: the last write of a partition is the one
// served, by the store that wrote it and by one that reopens the directory; a
// later group is a new file and leaves the earlier ones' bytes alone; a file
// is removed once nothing is served from it, not before.
func TestDiskStoreNewestWriteWins(t *testing.T) {
	dir, first, firstBytes, _ := testGroup(t, "join")
	d, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	block := func(tag string) []byte {
		data, err := EncodeBlockBytes([]Row{{tag}})
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	if err := d.Put("join", 2, []Row{{"single"}}, 4); err != nil {
		t.Fatal(err)
	}
	if err := d.PutGroup("join", 4, []PartBlock{{1, block("pair-1")}, {2, block("pair-2")}}); err != nil {
		t.Fatal(err)
	}
	// Another operator's group under the same partition numbers changes
	// nothing for this one.
	if err := d.PutGroup("agg", 4, []PartBlock{{0, block("agg-0")}, {3, block("agg-3")}}); err != nil {
		t.Fatal(err)
	}
	if now, err := os.ReadFile(filepath.Join(dir, first)); err != nil || !bytes.Equal(now, firstBytes) {
		t.Fatalf("the first group's file was rewritten or removed while partitions 0 and 3 are served from it (err=%v)", err)
	}
	// The single write of partition 2 is wholly superseded: its file is gone.
	if got, want := groupFiles(t, dir), []string{"agg.3.ftcg", "join.0.ftcg", "join.2.ftcg"}; !reflect.DeepEqual(got, want) {
		t.Errorf("group files %v, want %v", got, want)
	}
	// A stale file a crash left behind — written before the pair, never
	// removed — loses to the pair when the directory is reopened, and goes.
	stale, err := os.ReadFile(filepath.Join(dir, "join.2.ftcg"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "join.1.ftcg"), stale, 0o644); err != nil {
		t.Fatal(err)
	}
	reopened, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "join.1.ftcg")); !os.IsNotExist(err) {
		t.Errorf("a wholly superseded group file survived the reopen (stat err: %v)", err)
	}
	for _, s := range []*DiskStore{d, reopened} {
		for part, want := range []string{"", "pair-1", "pair-2", ""} {
			got, ok := s.Get("join", part)
			if !ok || (want != "" && got[0][0].(string) != want) || (want == "" && got[0][0].(int64) != int64(part)) {
				t.Errorf("Get(join, %d) = %v ok=%v, want %q or the first group's rows", part, got, ok, want)
			}
		}
		if got, ok := s.Get("agg", 3); !ok || got[0][0].(string) != "agg-3" {
			t.Errorf("Get(agg, 3) = %v ok=%v", got, ok)
		}
		if _, ok := s.Get("agg", 1); ok || storedOps(s) != 2 {
			t.Errorf("agg/1 served (%v) or storedOps = %d, want a miss and 2", ok, storedOps(s))
		}
	}
	// The reopened store numbers its next group after every name it saw.
	if err := reopened.Put("join", 0, []Row{{"after"}}, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "join.4.ftcg")); err != nil {
		t.Errorf("the reopened store's first write: %v", err)
	}
}

// TestDiskStoreLatchesALostDirectory: a checkpoint directory removed under a
// live store fails the write and latches, and a directory that cannot be
// opened is an error of the directory sync, not a rename reported durable.
func TestDiskStoreLatchesALostDirectory(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ckpt")
	d, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Put("join", 0, []Row{{int64(1)}}, 1); err != nil {
		t.Fatal(err)
	}
	if err := syncDir(dir); err != nil {
		t.Fatalf("syncDir of a live directory: %v", err)
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := syncDir(dir); !os.IsNotExist(err) {
		t.Errorf("syncDir of a removed directory = %v, want its open error", err)
	}
	if err := d.Put("join", 1, []Row{{int64(2)}}, 1); err == nil {
		t.Error("Put into a removed directory succeeded")
	}
	if d.Err() == nil {
		t.Error("the failed Put did not latch")
	}
	if _, ok := d.Get("join", 0); ok {
		t.Error("Get served a partition whose file is gone")
	}
}
