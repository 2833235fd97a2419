package engine

import (
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
	d, err := NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	hammerStore(t, d)
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
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

	// (b) A torn file at the final path (what a non-atomic writer would
	// leave): Get must report a miss so the engine recomputes.
	tornPath := filepath.Join(dir, "join.part1.ftcb")
	if err := os.WriteFile(tornPath, []byte("not a gob stream"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := d2.Get("join", 1); ok {
		t.Error("torn partition file decoded as valid data")
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
