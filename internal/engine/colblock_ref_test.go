package engine

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// The row-walking column-block codec the batch codec replaced, kept as the
// tests' reference: it works on boxed rows through a bytes.Reader and shares
// no code with colblock.go beyond the format constants, so "the encoder's bytes are what they always were"
// and "the decoder accepts exactly what it always did" are checked against an
// independent implementation. The one deliberate difference is in
// refDecodeBlockFile: bytes after the last column are an error.

func refUvarintLen(x uint64) int64 {
	n := int64(1)
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}

func refVarintLen(x int64) int64 {
	return refUvarintLen(uint64(x)<<1 ^ uint64(x>>63))
}

// refInferColumnTypes derives per-column concrete types from the rows; ok is
// false when the rows are not strictly typed.
func refInferColumnTypes(rows []Row) ([]ColType, bool) {
	if len(rows) == 0 {
		return nil, true
	}
	width := len(rows[0])
	if width == 0 {
		// A block spends no bytes on zero-width rows, so the decoder could
		// not bound their count by the file size.
		return nil, false
	}
	types := make([]ColType, width)
	for c := 0; c < width; c++ {
		switch rows[0][c].(type) {
		case int64:
			types[c] = TypeInt
		case float64:
			types[c] = TypeFloat
		case string:
			types[c] = TypeString
		default:
			return nil, false
		}
	}
	for _, r := range rows {
		if len(r) != width {
			return nil, false
		}
		for c, v := range r {
			switch types[c] {
			case TypeInt:
				if _, ok := v.(int64); !ok {
					return nil, false
				}
			case TypeFloat:
				if _, ok := v.(float64); !ok {
					return nil, false
				}
			default:
				if _, ok := v.(string); !ok {
					return nil, false
				}
			}
		}
	}
	return types, true
}

// refIntColSizes returns the exact payload sizes of column c under the plain
// and delta encodings.
func refIntColSizes(rows []Row, c int) (plain, delta int64) {
	prev := int64(0)
	for i, r := range rows {
		v := r[c].(int64)
		plain += refVarintLen(v)
		if i == 0 {
			delta += refVarintLen(v)
		} else {
			// Two's-complement wrapping subtraction: the decoder's wrapping
			// addition round-trips every pair, including extreme values.
			delta += refVarintLen(v - prev)
		}
		prev = v
	}
	return plain, delta
}

// refStringColSizes returns the exact payload sizes of column c under the plain
// and dictionary encodings.
func refStringColSizes(rows []Row, c int) (plain, dict int64) {
	seen := make(map[string]uint64)
	var entries, idxBytes int64
	for _, r := range rows {
		s := r[c].(string)
		plain += refUvarintLen(uint64(len(s))) + int64(len(s))
		idx, ok := seen[s]
		if !ok {
			idx = uint64(len(seen))
			seen[s] = idx
			entries += refUvarintLen(uint64(len(s))) + int64(len(s))
		}
		idxBytes += refUvarintLen(idx)
	}
	dict = refUvarintLen(uint64(len(seen))) + entries + idxBytes
	return plain, dict
}

// refColumnBlockSize returns the exact encoded size of rows in the column-block
// format — including the per-column encoding choices refEncodeColumnBlock will
// make — without building the encoding; ok is false when the rows are not
// strictly typed. It must stay byte-exact against the encoder, which sizes its
// buffer with it.
func refColumnBlockSize(rows []Row) (int64, bool) {
	types, ok := refInferColumnTypes(rows)
	if !ok {
		return 0, false
	}
	n := int64(len(colBlockMagic)) + 1
	n += refUvarintLen(uint64(len(types))) + refUvarintLen(uint64(len(rows)))
	for c, t := range types {
		n += 2 // type byte + encoding byte
		switch t {
		case TypeInt:
			plain, delta := refIntColSizes(rows, c)
			if delta < plain {
				n += delta
			} else {
				n += plain
			}
		case TypeFloat:
			n += int64(8 * len(rows))
		default:
			plain, dict := refStringColSizes(rows, c)
			if dict < plain {
				n += dict
			} else {
				n += plain
			}
		}
	}
	return n, true
}

// refEncodeColumnBlock serializes rows in the column-block format; ok is false
// when the rows are not strictly typed.
func refEncodeColumnBlock(rows []Row) ([]byte, bool) {
	types, ok := refInferColumnTypes(rows)
	if !ok {
		return nil, false
	}
	size, _ := refColumnBlockSize(rows)
	buf := make([]byte, 0, size)
	buf = append(buf, colBlockMagic...)
	buf = append(buf, colBlockVersion)
	buf = binary.AppendUvarint(buf, uint64(len(types)))
	buf = binary.AppendUvarint(buf, uint64(len(rows)))
	var scratch [8]byte
	for c, t := range types {
		buf = append(buf, byte(t))
		switch t {
		case TypeInt:
			// Same tie rule as refColumnBlockSize: delta only when strictly
			// smaller, so the size prediction stays byte-exact.
			plain, delta := refIntColSizes(rows, c)
			if delta < plain {
				buf = append(buf, colEncDelta)
				prev := int64(0)
				for i, r := range rows {
					v := r[c].(int64)
					if i == 0 {
						buf = binary.AppendVarint(buf, v)
					} else {
						buf = binary.AppendVarint(buf, v-prev)
					}
					prev = v
				}
			} else {
				buf = append(buf, colEncPlain)
				for _, r := range rows {
					buf = binary.AppendVarint(buf, r[c].(int64))
				}
			}
		case TypeFloat:
			buf = append(buf, colEncPlain)
			for _, r := range rows {
				binary.LittleEndian.PutUint64(scratch[:], math.Float64bits(r[c].(float64)))
				buf = append(buf, scratch[:]...)
			}
		default:
			plain, dict := refStringColSizes(rows, c)
			if dict < plain {
				buf = append(buf, colEncDict)
				seen := make(map[string]uint64)
				var entries []string
				for _, r := range rows {
					s := r[c].(string)
					if _, ok := seen[s]; !ok {
						seen[s] = uint64(len(entries))
						entries = append(entries, s)
					}
				}
				buf = binary.AppendUvarint(buf, uint64(len(entries)))
				for _, s := range entries {
					buf = binary.AppendUvarint(buf, uint64(len(s)))
					buf = append(buf, s...)
				}
				for _, r := range rows {
					buf = binary.AppendUvarint(buf, seen[r[c].(string)])
				}
			} else {
				buf = append(buf, colEncPlain)
				for _, r := range rows {
					s := r[c].(string)
					buf = binary.AppendUvarint(buf, uint64(len(s)))
					buf = append(buf, s...)
				}
			}
		}
	}
	return buf, true
}

// refDecodeColumnBlock parses a version-2 column block (after its 4-byte magic
// has been consumed) and materializes the rows. Returns nil rows for an empty
// block. Every count read from the block is checked against the bytes that
// remain before anything is allocated for it, so a corrupt or hostile header
// is an error, never an out-of-memory crash.
func refDecodeColumnBlock(r *bytes.Reader) ([]Row, error) {
	fail := func(err error) ([]Row, error) {
		return nil, fmt.Errorf("engine: column block: %w", err)
	}
	version, err := r.ReadByte()
	if err != nil {
		return fail(err)
	}
	if version != colBlockVersion {
		return nil, fmt.Errorf("engine: column block version %d unsupported", version)
	}
	ncols, err := binary.ReadUvarint(r)
	if err != nil {
		return fail(err)
	}
	nrows, err := binary.ReadUvarint(r)
	if err != nil {
		return fail(err)
	}
	// Every row has at least one column (the encoder refuses zero-width
	// rows) and every encoded value occupies at least one byte.
	if left := uint64(r.Len()); (ncols == 0 && nrows > 0) || (ncols > 0 && nrows > left/ncols) {
		return nil, fmt.Errorf("engine: column block header claims %d cols x %d rows in %d bytes", ncols, nrows, left)
	}
	rows := make([]Row, nrows)
	for i := range rows {
		rows[i] = make(Row, ncols)
	}
	readString := func() (string, error) { // uvarint length, then the bytes
		ln, err := binary.ReadUvarint(r)
		if err != nil {
			return "", err
		}
		if ln > uint64(r.Len()) {
			return "", io.ErrUnexpectedEOF
		}
		b := make([]byte, ln)
		_, err = io.ReadFull(r, b)
		return string(b), err
	}
	var scratch [8]byte
	for c := uint64(0); c < ncols; c++ {
		tb, err := r.ReadByte()
		if err != nil {
			return fail(err)
		}
		enc, err := r.ReadByte()
		if err != nil {
			return fail(err)
		}
		switch ColType(tb) {
		case TypeInt:
			if enc != colEncPlain && enc != colEncDelta {
				return nil, fmt.Errorf("engine: column block int encoding %d unsupported", enc)
			}
			prev := int64(0)
			for i := uint64(0); i < nrows; i++ {
				v, err := binary.ReadVarint(r)
				if err != nil {
					return fail(err)
				}
				if enc == colEncDelta {
					v += prev // wrapping addition mirrors the encoder
					prev = v
				}
				rows[i][c] = v
			}
		case TypeFloat:
			if enc != colEncPlain {
				return nil, fmt.Errorf("engine: column block float encoding %d unsupported", enc)
			}
			for i := uint64(0); i < nrows; i++ {
				if _, err := io.ReadFull(r, scratch[:]); err != nil {
					return fail(err)
				}
				rows[i][c] = math.Float64frombits(binary.LittleEndian.Uint64(scratch[:]))
			}
		case TypeString:
			switch enc {
			case colEncPlain:
				for i := uint64(0); i < nrows; i++ {
					s, err := readString()
					if err != nil {
						return fail(err)
					}
					rows[i][c] = s
				}
			case colEncDict:
				ndict, err := binary.ReadUvarint(r)
				if err != nil {
					return fail(err)
				}
				if ndict > uint64(r.Len()) {
					return nil, fmt.Errorf("engine: column block dictionary size %d exceeds the block", ndict)
				}
				dict := make([]string, ndict)
				for d := range dict {
					if dict[d], err = readString(); err != nil {
						return fail(err)
					}
				}
				for i := uint64(0); i < nrows; i++ {
					idx, err := binary.ReadUvarint(r)
					if err != nil {
						return fail(err)
					}
					if idx >= ndict {
						return nil, fmt.Errorf("engine: column block dictionary index %d out of range", idx)
					}
					rows[i][c] = dict[idx]
				}
			default:
				return nil, fmt.Errorf("engine: column block string encoding %d unsupported", enc)
			}
		default:
			return nil, fmt.Errorf("engine: column block has unknown column type %d", tb)
		}
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("engine: column block has %d bytes after its last column", r.Len())
	}
	if nrows == 0 {
		return nil, nil
	}
	return rows, nil
}

// refDecodeBlockFile decodes a stored partition from data: a column block
// behind its magic, anything else is an error.
func refDecodeBlockFile(data []byte) ([]Row, error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("engine: block file of %d bytes has no magic", len(data))
	}
	if string(data[:4]) != colBlockMagic {
		return nil, fmt.Errorf("engine: block file has unknown magic %q", data[:4])
	}
	return refDecodeColumnBlock(bytes.NewReader(data[4:]))
}
