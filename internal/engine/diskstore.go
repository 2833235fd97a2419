package engine

import (
	"fmt"
	"os"
	"path/filepath"
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
	// Len returns the number of operators with stored output.
	Len() int
}

// EncodedStore is a store that speaks the block-file format: it takes and
// returns a partition as the bytes of EncodeBlock. It is the only contract
// the runtime uses — the checkpoint writer encodes a committed batch before it
// takes its turn at the store, a restore decodes straight into the stage's
// typed vectors — so no row is boxed on either side. GetEncoded's bytes are
// whatever is stored; the caller's DecodeBlock decides whether they are a
// checkpoint.
type EncodedStore interface {
	PutEncoded(op string, part int, data []byte, parts int) error
	GetEncoded(op string, part int) ([]byte, bool)
}

var (
	_ Store        = (*MatStore)(nil)
	_ Store        = (*DiskStore)(nil)
	_ EncodedStore = (*MatStore)(nil)
	_ EncodedStore = (*DiskStore)(nil)
)

// rowBlocks is the EncodedStore over a store that holds rows only: blocks are
// decoded on the way in and encoded on the way out.
type rowBlocks struct{ Store }

// AsEncodedStore returns s itself when it speaks blocks, else s behind the
// row adapter.
func AsEncodedStore(s Store) EncodedStore {
	if es, ok := s.(EncodedStore); ok {
		return es
	}
	return rowBlocks{s}
}

func (s rowBlocks) PutEncoded(op string, part int, data []byte, parts int) error {
	rows, err := DecodeBlockFile(data)
	if err != nil {
		return err
	}
	return s.Put(op, part, rows, parts)
}

func (s rowBlocks) GetEncoded(op string, part int) ([]byte, bool) {
	rows, ok := s.Get(op, part)
	if !ok {
		return nil, false
	}
	return EncodeColumnBlock(rows)
}

// DiskStore persists materialized partitions as column-block files under a
// directory; rows that are not strictly typed fail their Put.
// Unlike MatStore it survives engine restarts, so a re-submitted query can
// resume from previously materialized intermediates.
type DiskStore struct {
	dir string
	mu  sync.Mutex
	// err records the first write failure, for Err. Get does not consult
	// it: the rename protocol never exposes a torn file, so whatever Get can
	// open is a whole partition.
	err error
}

// NewDiskStore creates (or reuses) the directory and garbage-collects
// orphaned "put-*" temp files left behind by a crash in the middle of a Put
// (the atomic tmp+rename protocol never exposes them as partitions, but the
// files themselves would otherwise accumulate forever).
func NewDiskStore(dir string) (*DiskStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("engine: disk store: %w", err)
	}
	if entries, err := os.ReadDir(dir); err == nil {
		for _, e := range entries {
			if !e.IsDir() && strings.HasPrefix(e.Name(), "put-") {
				os.Remove(filepath.Join(dir, e.Name()))
			}
		}
	}
	return &DiskStore{dir: dir}, nil
}

// Err returns the first write error, if any.
func (d *DiskStore) Err() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.err
}

// blockSuffix ends the name of every partition file this build writes. A file
// under any other name (the ".gob" of earlier builds included) is not a stored
// partition: Get never opens it and Len does not count it.
const blockSuffix = ".ftcb"

// path names the file of one partition. Operator names may contain bytes
// unsuitable for file names: every byte outside [A-Za-z0-9_-] is written %XX,
// so distinct operators never share a file and no escaped name contains the
// '.' that ends it.
func (d *DiskStore) path(op string, part int) string {
	var safe strings.Builder
	for i := 0; i < len(op); i++ {
		switch c := op[i]; {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_':
			safe.WriteByte(c)
		default:
			fmt.Fprintf(&safe, "%%%02X", c)
		}
	}
	return filepath.Join(d.dir, fmt.Sprintf("%s.part%d%s", safe.String(), part, blockSuffix))
}

// Put implements Store: EncodeBlockBytes, outside the lock, then PutEncoded.
func (d *DiskStore) Put(op string, part int, rows []Row, parts int) error {
	data, err := EncodeBlockBytes(rows)
	if err != nil {
		return d.latch(err)
	}
	return d.PutEncoded(op, part, data, parts)
}

// PutEncoded implements EncodedStore. Writes are crash-safe: the bytes go to
// a temp file, which is fsynced, then atomically renamed into place, and the
// directory is fsynced so the rename itself survives a crash. A kill at any
// point leaves either the old partition (or nothing) visible — never a torn
// file.
func (d *DiskStore) PutEncoded(op string, part int, data []byte, parts int) error {
	return d.latch(d.write(d.path(op, part), data))
}

func (d *DiskStore) write(path string, data []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	tmp, err := os.CreateTemp(d.dir, "put-*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return syncDir(d.dir)
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

// syncDir fsyncs a directory so a preceding rename is durable. Some
// platforms (notably Windows) reject opening directories; that is not a
// torn-write hazard, so those errors are ignored.
func syncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return nil
	}
	defer f.Close()
	if err := f.Sync(); err != nil && !os.IsPermission(err) {
		return err
	}
	return nil
}

// Get implements Store. A file that does not decode (torn, corrupt, or in a
// format this build does not write) is a miss, so the engine recomputes.
func (d *DiskStore) Get(op string, part int) ([]Row, bool) {
	data, ok := d.GetEncoded(op, part)
	if !ok {
		return nil, false
	}
	rows, err := DecodeBlockFile(data)
	return rows, err == nil
}

// GetEncoded implements EncodedStore: the partition's file, whole. The rename
// protocol never exposes a torn file, but a file in another format may sit
// under the name; decoding it is the caller's test.
func (d *DiskStore) GetEncoded(op string, part int) ([]byte, bool) {
	data, err := os.ReadFile(d.path(op, part))
	return data, err == nil
}

// Len implements Store: the number of distinct operators with at least one
// stored partition.
func (d *DiskStore) Len() int {
	entries, err := os.ReadDir(d.dir)
	if err != nil {
		return 0
	}
	ops := map[string]bool{}
	for _, e := range entries {
		name := e.Name()
		if i := strings.Index(name, ".part"); i > 0 && strings.HasSuffix(name, blockSuffix) {
			ops[name[:i]] = true
		}
	}
	return len(ops)
}
