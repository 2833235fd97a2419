package service

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"
)

// TestReadFrameAllocatesWhatArrives: a header claiming MaxFrameBytes followed
// by EOF is a truncated frame, and costs the reader one chunk, not the claim.
func TestReadFrameAllocatesWhatArrives(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrameBytes)
	// The smallest of three deltas, so a background allocation elsewhere in
	// the process cannot fail the test alone.
	least := ^uint64(0)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		var req Request
		runtime.ReadMemStats(&before)
		err := ReadFrame(bytes.NewReader(hdr[:]), &req)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("truncated frame: err = %v, want io.ErrUnexpectedEOF", err)
		}
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least >= 1<<20 {
		t.Fatalf("a header claiming %d bytes allocated %d bytes before any arrived", MaxFrameBytes, least)
	}
}

// TestReadFrameGrowsPastChunk: a frame larger than the up-front chunk,
// delivered a few bytes per read, decodes whole.
func TestReadFrameGrowsPastChunk(t *testing.T) {
	in := Request{ID: "big", Query: "SELECT " + strings.Repeat("n_name, ", 40_000) + "n_name FROM nation"}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, in); err != nil {
		t.Fatal(err)
	}
	if buf.Len() <= 3*frameChunk {
		t.Fatalf("frame of %d bytes does not exercise growth past a %d-byte chunk", buf.Len(), frameChunk)
	}
	var out Request
	if err := ReadFrame(iotest.HalfReader(&buf), &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatal("large frame did not round-trip")
	}
}

// FuzzReadFrame: for any bytes, ReadFrame into a Request either fails or
// decodes a value that WriteFrame re-encodes and ReadFrame reads back equal.
// It never panics.
func FuzzReadFrame(f *testing.F) {
	for _, req := range []Request{{}, {ID: "r1", Tenant: "alice", Query: "SELECT n_name FROM nation", MaxRows: 3}} {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, req); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{0, 0, 0, 9, '{', '}'})
	f.Add([]byte{0, 0, 0, 2, '[', ']'})
	f.Fuzz(func(t *testing.T, data []byte) {
		var req Request
		if err := ReadFrame(bytes.NewReader(data), &req); err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, req); err != nil {
			t.Fatalf("decoded %+v does not re-encode: %v", req, err)
		}
		var back Request
		if err := ReadFrame(&buf, &back); err != nil {
			t.Fatalf("re-encoded %+v does not decode: %v", req, err)
		}
		if !reflect.DeepEqual(req, back) {
			t.Fatalf("round trip changed the request: %+v -> %+v", req, back)
		}
	})
}
