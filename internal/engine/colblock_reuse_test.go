package engine

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// TestEncoderStateIsReused: one Local encodes a sequence of batches, each into
// the buffer the block before it gave back, with its dictionary map, row
// indexes and entries carried over — and every block is byte for byte what a
// fresh EncodeBlock writes. The sequence opens with ints, floats, dictionary
// and plain strings side by side (dictionary columns on both sides of a
// plain one), the same under a selection vector and the empty batch both
// ways, then seeded batches of every shape the codec meets.
func TestEncoderStateIsReused(t *testing.T) {
	n := 300
	cols := []Vector{
		{Type: TypeInt, Ints: make([]int64, n)},
		{Type: TypeString, Strings: make([]string, n)}, // dictionary
		{Type: TypeFloat, Floats: make([]float64, n)},
		{Type: TypeString, Strings: make([]string, n)}, // plain
		{Type: TypeString, Strings: make([]string, n)}, // dictionary
	}
	for i := 0; i < n; i++ {
		cols[0].Ints[i] = int64(i * 3)
		cols[1].Strings[i] = []string{"ASIA", "EUROPE", "AMERICA"}[i%3]
		cols[2].Floats[i] = float64(i) / 7
		cols[3].Strings[i] = fmt.Sprintf("clerk#%07d", i)
		cols[4].Strings[i] = []string{"F", "O"}[i%2]
	}
	mixed, err := NewBatchFromCols(Schema{{Type: TypeInt}, {Type: TypeString}, {Type: TypeFloat}, {Type: TypeString}, {Type: TypeString}}, cols)
	if err != nil {
		t.Fatal(err)
	}
	selected := *mixed
	selected.Sel = []int32{299, 4, 4, 17, 150, 0}
	none := *mixed
	none.Sel = []int32{}
	batches := []*Batch{mixed, &selected, nil, &none, mixed}
	g := blockGen{rand.New(rand.NewSource(1))}
	for range 300 {
		batches = append(batches, g.batch(200))
	}

	arena := NewArena()
	l := arena.Local()
	for i, b := range batches {
		data, err := l.EncodeBlock(b)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := EncodeBlock(b)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, fresh) {
			t.Fatalf("batch %d: the reused encoder wrote\n%x\nwant a fresh encoder's\n%x", i, data, fresh)
		}
		l.ReleaseBlock(data)
	}
	l.Close()
	if o := arena.Outstanding(); o != 0 {
		t.Errorf("%d block buffers outstanding", o)
	}
	if arena.HitRatio() == 0 {
		t.Error("no block buffer was reused")
	}
}

// TestStoresKeepTheirOwnCopy: the checkpoint writer gives a block's buffer
// back once PutGroup returns and encodes the next group into it, so a store
// that kept the buffer would serve that group's bytes. Every EncodedStore
// must still serve what it was handed.
func TestStoresKeepTheirOwnCopy(t *testing.T) {
	disk, err := NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	batch := func(v int64) *Batch {
		ints := make([]int64, 500)
		for i := range ints {
			ints[i] = v
		}
		b, err := NewBatchFromCols(Schema{{Type: TypeInt}}, []Vector{{Type: TypeInt, Ints: ints}})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for name, store := range map[string]EncodedStore{"MatStore": NewMatStore(), "DiskStore": disk} {
		l := NewArena().Local()
		first, err := l.EncodeBlock(batch(1))
		if err != nil {
			t.Fatal(err)
		}
		want := bytes.Clone(first)
		if err := store.PutGroup("a", 1, []PartBlock{{0, first}}); err != nil {
			t.Fatal(err)
		}
		l.ReleaseBlock(first)
		second, err := l.EncodeBlock(batch(2))
		if err != nil {
			t.Fatal(err)
		}
		if &second[0] != &first[0] {
			t.Fatalf("%s: the second block is not in the first one's buffer", name)
		}
		if err := store.PutGroup("b", 1, []PartBlock{{0, second}}); err != nil {
			t.Fatal(err)
		}
		if got, ok := store.GetEncoded("a", 0); !ok || !bytes.Equal(got, want) {
			t.Errorf("%s: after its buffer was reused, a's block reads\n%x\nwant\n%x", name, got, want)
		}
	}
}
