package engine

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
)

// Store is the fault-tolerant storage medium for materialized intermediates.
// Implementations must survive node failures: MatStore models that by living
// on the coordinator, DiskStore by writing to files (the analogue of the
// paper's external iSCSI target, which also survives restarts of the whole
// engine).
type Store interface {
	// Put persists one partition of an operator's output. A non-nil error
	// means the partition did not durably land; callers must surface it —
	// recovery that silently trusts a failed checkpoint reads torn state.
	Put(op string, part int, rows []Row, parts int) error
	// Get returns a stored partition.
	Get(op string, part int) ([]Row, bool)
}

// PartBlock is one partition of a group: its number and its EncodeBlock bytes.
type PartBlock struct {
	Part int
	Data []byte
}

// EncodedStore is a store that speaks the block-file format: it takes and
// returns a partition as the bytes of EncodeBlock. It is the only contract
// the runtime uses — the checkpoint writer encodes committed batches and hands
// over the partitions of a stage as one group, a restore decodes straight
// into the stage's typed vectors — so no row is boxed on either side.
// PutGroup persists the group's partitions of op (of parts in all) in one
// durable step: on a nil error every one of them is stored, each readable on
// its own; on an error none may be trusted. Either way the store keeps no
// group[i].Data after it returns (the writer reuses them), only a copy or a
// file. GetEncoded's bytes are whatever is stored; the caller's DecodeBlock
// decides whether they are a checkpoint.
type EncodedStore interface {
	PutGroup(op string, parts int, group []PartBlock) error
	GetEncoded(op string, part int) ([]byte, bool)
}

var (
	_ Store        = (*MatStore)(nil)
	_ Store        = (*DiskStore)(nil)
	_ EncodedStore = (*MatStore)(nil)
	_ EncodedStore = (*DiskStore)(nil)
)

// DiskStore persists materialized partitions in group files under a
// directory; rows that are not strictly typed fail their Put. Unlike MatStore
// it survives engine restarts, so a re-submitted query can resume from
// previously materialized intermediates. What is stored where is indexed in
// memory and rebuilt on open, so a directory has one live store at a time.
type DiskStore struct {
	dir string
	// mu guards the fields below. It is never held across a write or an
	// fsync: distinct groups write distinct temp files.
	mu  sync.Mutex
	seq uint64 // the next group file's sequence number
	// index locates the newest block of every partition, by escaped operator
	// name and partition; live counts the index entries pointing into each
	// file.
	index map[string]map[int]blockLoc
	live  map[string]int
	// err records the first write failure, for Err. Get does not consult
	// it: the rename protocol never exposes a torn file, so whatever the
	// index names is a whole block.
	err error
}

// blockLoc is where partition part's block lies: n bytes at off in the group
// file written seq-th.
type blockLoc struct {
	file   string
	seq    uint64
	part   int
	off, n int64
}

// A group file, "<escaped operator>.<sequence number>.ftcg", is its index —
// groupMagic, a uint32 entry count, per entry the partition number, offset
// and length of its block as three uint64s, then the CRC-32 of all that,
// little-endian throughout — followed by the blocks, each the bytes
// EncodeBlock produced. A file under any other name (the
// "<op>.part<N>.ftcb" and ".gob" of earlier builds included) is never opened.
const (
	groupSuffix    = ".ftcg"
	groupMagic     = "FTG1"
	groupEntrySize = 24
)

// NewDiskStore creates (or reuses) the directory and rebuilds the index from
// the headers of its group files, the newest write of a partition winning as
// it did in the process that wrote them. It removes what no partition can be
// read from: group files wholly superseded or with a torn index, and the
// "put-*" temp files a crash in the middle of a write orphaned.
func NewDiskStore(dir string) (*DiskStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("engine: disk store: %w", err)
	}
	d := &DiskStore{dir: dir, index: map[string]map[int]blockLoc{}, live: map[string]int{}}
	entries, _ := os.ReadDir(dir) // unreadable: an empty store, whose first write reports why
	for _, e := range entries {
		name := e.Name()
		if strings.HasPrefix(name, "put-") && !e.IsDir() {
			os.Remove(filepath.Join(dir, name))
			continue
		}
		// An escaped operator name holds no '.': the first one ends it.
		rest, ok := strings.CutSuffix(name, groupSuffix)
		op, num, _ := strings.Cut(rest, ".")
		seq, err := strconv.ParseUint(num, 10, 64)
		if !ok || err != nil {
			continue
		}
		d.seq = max(d.seq, seq+1)
		var locs []blockLoc
		if f, err := os.Open(filepath.Join(dir, name)); err == nil {
			if st, err := f.Stat(); err == nil {
				locs = readGroupIndex(f, st.Size())
			}
			f.Close()
		}
		d.publish(op, name, seq, locs)
	}
	return d, nil
}

// readGroupIndex parses the index of a group file of size bytes: one blockLoc
// (file and seq unset) per entry whose block lies wholly inside the file — a
// file cut short loses the rest. Anything but an intact index yields nil, and
// no allocation is sized by a number the file's size does not bound.
func readGroupIndex(f io.ReaderAt, size int64) []blockLoc {
	var head [8]byte
	if _, err := f.ReadAt(head[:], 0); err != nil || string(head[:4]) != groupMagic {
		return nil
	}
	end := 8 + int64(binary.LittleEndian.Uint32(head[4:]))*groupEntrySize
	if end+4 > size {
		return nil
	}
	buf := make([]byte, end+4)
	if _, err := f.ReadAt(buf, 0); err != nil || crc32.ChecksumIEEE(buf[:end]) != binary.LittleEndian.Uint32(buf[end:]) {
		return nil
	}
	var locs []blockLoc
	for p := buf[8:end]; len(p) > 0; p = p[groupEntrySize:] {
		part, off, n := binary.LittleEndian.Uint64(p), binary.LittleEndian.Uint64(p[8:]), binary.LittleEndian.Uint64(p[16:])
		if part < 1<<31 && off >= uint64(end+4) && off <= uint64(size) && n <= uint64(size)-off {
			locs = append(locs, blockLoc{part: int(part), off: int64(off), n: int64(n)})
		}
	}
	return locs
}

// Err returns the first write error, if any.
func (d *DiskStore) Err() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.err
}

// escapeOp is an operator's name as file names carry it: every byte outside
// [A-Za-z0-9_-] is written %XX, so distinct operators never share a name and
// no escaped name contains the '.' that ends it.
func escapeOp(op string) string {
	var safe strings.Builder
	for i := 0; i < len(op); i++ {
		switch c := op[i]; {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_':
			safe.WriteByte(c)
		default:
			fmt.Fprintf(&safe, "%%%02X", c)
		}
	}
	return safe.String()
}

// Put implements Store: EncodeBlockBytes, then a group of one.
func (d *DiskStore) Put(op string, part int, rows []Row, parts int) error {
	data, err := EncodeBlockBytes(rows)
	if err != nil {
		return d.latch(err)
	}
	return d.PutGroup(op, parts, []PartBlock{{part, data}})
}

// PutGroup implements EncodedStore. Writes are crash-safe: index and blocks go
// to a temp file, which is fsynced, then atomically renamed to a name no
// earlier group has, and the directory is fsynced so the rename itself
// survives a crash. A kill at any point leaves the group's partitions as they
// were (or absent) — never a torn file, never an earlier group's rewritten.
func (d *DiskStore) PutGroup(op string, parts int, group []PartBlock) error {
	return d.latch(d.write(escapeOp(op), group))
}

func (d *DiskStore) write(op string, group []PartBlock) error {
	d.mu.Lock()
	seq := d.seq
	d.seq++
	d.mu.Unlock()

	locs := make([]blockLoc, len(group))
	index := binary.LittleEndian.AppendUint32([]byte(groupMagic), uint32(len(group)))
	off := int64(8 + len(group)*groupEntrySize + 4)
	for i, g := range group {
		locs[i] = blockLoc{part: g.Part, off: off, n: int64(len(g.Data))}
		for _, v := range [3]int64{int64(g.Part), off, locs[i].n} {
			index = binary.LittleEndian.AppendUint64(index, uint64(v))
		}
		off += locs[i].n
	}
	index = binary.LittleEndian.AppendUint32(index, crc32.ChecksumIEEE(index))

	name := fmt.Sprintf("%s.%d%s", op, seq, groupSuffix)
	tmp, err := os.CreateTemp(d.dir, "put-*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(index)
	for i := 0; i < len(group) && err == nil; i++ {
		_, err = tmp.Write(group[i].Data)
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), filepath.Join(d.dir, name))
	}
	if err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := syncDir(d.dir); err != nil {
		return err
	}
	d.publish(op, name, seq, locs)
	return nil
}

// publish points the index at the blocks of one durable group file, except
// where a write as new is there already (of a partition named twice the first
// entry is served), and removes the files, this one included, that no index
// entry points into any more.
func (d *DiskStore) publish(op, file string, seq uint64, locs []blockLoc) {
	var dead []string
	d.mu.Lock()
	for _, loc := range locs {
		old, ok := d.index[op][loc.part]
		if ok && old.seq >= seq {
			continue
		}
		if ok {
			if d.live[old.file]--; d.live[old.file] == 0 {
				delete(d.live, old.file)
				dead = append(dead, old.file)
			}
		}
		if d.index[op] == nil {
			d.index[op] = map[int]blockLoc{}
		}
		loc.file, loc.seq = file, seq
		d.index[op][loc.part] = loc
		d.live[file]++
	}
	if d.live[file] == 0 {
		dead = append(dead, file)
	}
	d.mu.Unlock()
	for _, f := range dead {
		os.Remove(filepath.Join(d.dir, f))
	}
}

// latch records err as the store's first write failure, if it is one.
func (d *DiskStore) latch(err error) error {
	if err != nil {
		d.mu.Lock()
		if d.err == nil {
			d.err = err
		}
		d.mu.Unlock()
	}
	return err
}

// syncDir fsyncs a directory so a preceding rename is durable. Windows cannot
// fsync a directory; that is not a torn-write hazard, so there, and only
// there, a failure is ignored. Anywhere else a directory that cannot be
// opened or synced (no descriptors left, removed) is a rename not known to
// be durable.
func syncDir(dir string) error {
	f, err := os.Open(dir)
	if err == nil {
		err = f.Sync()
		f.Close()
	}
	if runtime.GOOS == "windows" {
		return nil
	}
	return err
}

// Get implements Store. A block that does not decode (corrupt, or in a
// format this build does not write) is a miss, so the engine recomputes.
func (d *DiskStore) Get(op string, part int) ([]Row, bool) {
	data, ok := d.GetEncoded(op, part)
	if !ok {
		return nil, false
	}
	rows, err := DecodeBlockFile(data)
	return rows, err == nil
}

// GetEncoded implements EncodedStore: the partition's byte range of its group
// file and nothing else of the group. Decoding it is the caller's test.
func (d *DiskStore) GetEncoded(op string, part int) ([]byte, bool) {
	op = escapeOp(op)
	// The open is under the lock so that no later write can supersede the
	// block and remove its file between the lookup and the open.
	d.mu.Lock()
	loc, ok := d.index[op][part]
	var f *os.File
	if ok {
		f, _ = os.Open(filepath.Join(d.dir, loc.file))
	}
	d.mu.Unlock()
	if f == nil {
		return nil, false
	}
	defer f.Close()
	data := make([]byte, loc.n)
	_, err := f.ReadAt(data, loc.off)
	return data, err == nil
}
