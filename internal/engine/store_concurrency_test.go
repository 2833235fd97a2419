package engine

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// Concurrent checkpointing coverage: the pipelined runtime issues Put/Get
// from partition workers and the async checkpoint writer in parallel, so
// both Store implementations must be clean under the race detector.

func hammerStore(t *testing.T, s Store) {
	t.Helper()
	const (
		ops     = 4
		parts   = 8
		writers = 4
		readers = 4
	)
	rows := func(op, part int) []Row {
		return []Row{{int64(op), int64(part), fmt.Sprintf("payload-%d-%d", op, part)}}
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for op := 0; op < ops; op++ {
				for part := w; part < parts; part += writers {
					if err := s.Put(fmt.Sprintf("op-%d", op), part, rows(op, part), parts); err != nil {
						t.Errorf("Put op-%d/%d: %v", op, part, err)
						return
					}
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for op := 0; op < ops; op++ {
				for part := 0; part < parts; part++ {
					if got, ok := s.Get(fmt.Sprintf("op-%d", op), part); ok {
						if len(got) != 1 || got[0][0].(int64) != int64(op) {
							t.Errorf("torn read for op-%d/%d: %v", op, part, got)
							return
						}
					}
					_ = s.Len()
				}
			}
		}()
	}
	wg.Wait()
	for op := 0; op < ops; op++ {
		for part := 0; part < parts; part++ {
			got, ok := s.Get(fmt.Sprintf("op-%d", op), part)
			if !ok {
				t.Fatalf("op-%d/%d missing after concurrent writes", op, part)
			}
			if got[0][2].(string) != fmt.Sprintf("payload-%d-%d", op, part) {
				t.Fatalf("op-%d/%d corrupted: %v", op, part, got)
			}
		}
	}
}

func TestMatStoreConcurrentPutGet(t *testing.T) {
	hammerStore(t, NewMatStore())
}

func TestDiskStoreConcurrentPutGet(t *testing.T) {
	dir := t.TempDir()
	d, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	// While hammerStore writes its operators a partition at a time, two more
	// are written — and rewritten — a whole stage at a time, with readers on
	// them: no write waits for another's fsync, so every interleaving of
	// index updates and removals of superseded files is on offer.
	const parts, rounds = 8, 6
	block := func(op, part, round int) []byte {
		data, err := EncodeBlockBytes([]Row{{int64(op), int64(part), int64(round)}})
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	var wg sync.WaitGroup
	for op := 0; op < 2; op++ {
		name := fmt.Sprintf("stage-%d", op)
		wg.Add(2)
		go func(op int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				group := make([]PartBlock, parts)
				for part := range group {
					group[part] = PartBlock{Part: part, Data: block(op, part, round)}
				}
				if err := d.PutGroup(name, parts, group); err != nil {
					t.Errorf("PutGroup %s round %d: %v", name, round, err)
					return
				}
			}
		}(op)
		go func(op int) {
			defer wg.Done()
			last := make([]int64, parts)
			for i := 0; i < 4*rounds*parts; i++ {
				part := i % parts
				got, ok := d.Get(name, part)
				if !ok {
					continue
				}
				if len(got) != 1 || got[0][0].(int64) != int64(op) || got[0][1].(int64) != int64(part) || got[0][2].(int64) < last[part] {
					t.Errorf("torn or stale read of %s/%d after round %d: %v", name, part, last[part], got)
					return
				}
				last[part] = got[0][2].(int64)
				_, _ = d.Len(), d.Err()
			}
		}(op)
	}
	hammerStore(t, d)
	wg.Wait()
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	reopened, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []*DiskStore{d, reopened} {
		for op := 0; op < 2; op++ {
			for part := 0; part < parts; part++ {
				got, ok := s.GetEncoded(fmt.Sprintf("stage-%d", op), part)
				if want := block(op, part, rounds-1); !ok || !bytes.Equal(got, want) {
					t.Fatalf("stage-%d/%d: the last round's block did not win (ok=%v)", op, part, ok)
				}
			}
		}
	}
	// Every superseded group file is gone: what is left is one file per
	// stage and hammerStore's one per partition.
	if files, want := groupFiles(t, dir), 2+4*8; len(files) != want {
		t.Errorf("%d group files left, want %d: %v", len(files), want, files)
	}
}

// groupFiles lists the group files in dir.
func groupFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), groupSuffix) {
			names = append(names, e.Name())
		}
	}
	return names
}

func TestDiskStoreConcurrentScriptedFailures(t *testing.T) {
	// ScriptedFailures is read by partition goroutines while the script is
	// extended — must be race-free.
	inj := NewScriptedFailures()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				inj.Add(fmt.Sprintf("op-%d", g), i, 0)
				inj.FailCompute("op-0", i, 0)
			}
		}(g)
	}
	wg.Wait()
	if !inj.FailCompute("op-3", 99, 0) {
		t.Error("scripted failure lost")
	}
}

func TestDiskStoreMidWriteKill(t *testing.T) {
	// Simulate a process killed mid-Put. With the atomic temp-file +
	// fsync + rename protocol, the only possible leftovers are (a) an
	// orphaned temp file that Get never reads, or (b) the complete old
	// value. A torn final file must never decode as valid data.
	dir := t.TempDir()
	d, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	old := []Row{{int64(1), "committed"}}
	if err := d.Put("join", 0, old, 2); err != nil {
		t.Fatal(err)
	}

	// (a) Crash after the temp file was partially written, before rename:
	// leave a torn temp file behind, like a kill between write and rename.
	if err := os.WriteFile(filepath.Join(dir, "put-123456"), []byte{0x42, 0x07}, 0o644); err != nil {
		t.Fatal(err)
	}
	got, ok := d.Get("join", 0)
	if !ok || got[0][1].(string) != "committed" {
		t.Fatalf("orphaned temp file corrupted the committed value: %v (ok=%v)", got, ok)
	}

	// A reopened store over the crashed directory still serves old data and
	// ignores the orphan.
	d2, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok = d2.Get("join", 0)
	if !ok || got[0][1].(string) != "committed" {
		t.Fatalf("restart after mid-write kill lost the committed value: %v (ok=%v)", got, ok)
	}
	if d2.Len() != 1 {
		t.Errorf("Len = %d, want 1 (temp orphan must not count)", d2.Len())
	}

	// (b) A torn file at a final path (what a non-atomic writer would
	// leave): the store that opens the directory must report a miss so the
	// engine recomputes, and still serve what was committed before it.
	if err := os.WriteFile(filepath.Join(dir, "join.7.ftcg"), []byte("FTG1\x01\x00\x00\x00not an index"), 0o644); err != nil {
		t.Fatal(err)
	}
	d2, err = NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := d2.Get("join", 1); ok {
		t.Error("torn group file decoded as valid data")
	}
	if got, ok := d2.Get("join", 0); !ok || got[0][1].(string) != "committed" {
		t.Fatalf("a torn group file beside it lost the committed value: %v (ok=%v)", got, ok)
	}

	// New writes over a crashed state replace it atomically.
	if err := d2.Put("join", 1, []Row{{int64(2), "fresh"}}, 2); err != nil {
		t.Fatal(err)
	}
	got, ok = d2.Get("join", 1)
	if !ok || got[0][1].(string) != "fresh" {
		t.Fatalf("overwrite of torn partition failed: %v (ok=%v)", got, ok)
	}
	if err := d2.Err(); err != nil {
		t.Fatal(err)
	}
	// No temp files may survive a successful Put.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "put-") && e.Name() != "put-123456" {
			t.Errorf("temp file %s leaked", e.Name())
		}
	}
}
