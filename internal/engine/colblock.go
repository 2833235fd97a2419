package engine

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"
)

// Column-block format: the serialized form of a materialized partition.
// Values are stored column-major as length-prefixed typed vectors, so
// checkpoints of typed intermediates are far denser than the row-by-row gob
// encoding (no per-value type tags, varint integers, raw float bits).
// Version 2 adds one encoding byte per column and two lightweight
// compressions chosen per column whenever they are strictly smaller than the
// plain form — varint delta for integers (sorted keys and near-sequential
// ids shrink to a byte or two per value) and a first-appearance dictionary
// for low-cardinality strings:
//
//	"FTCB" | version(1) | ncols uvarint | nrows uvarint |
//	  per column: type(1) | enc(1) |
//	    TypeInt    enc 0 (plain): nrows signed varints
//	    TypeInt    enc 1 (delta): first value, then nrows-1 wrapping deltas,
//	                              all signed varints
//	    TypeFloat  enc 0 (plain): nrows fixed little-endian float64 bits
//	    TypeString enc 0 (plain): nrows of (uvarint length | bytes)
//	    TypeString enc 1 (dict):  ndict uvarint | ndict entries of
//	                              (uvarint length | bytes), in first-appearance
//	                              order | nrows uvarint dictionary indexes
//
// This is the one format the store writes and the only one it reads. Rows
// that are not strictly typed (mixed concrete types in a column, ragged or
// zero widths, non-scalar values) have no block form — EncodeBlockBytes
// refuses them with ErrNotColumnar — and any other version or magic (the
// retired "FTGB" gob fallback included), like bytes after the last column, is
// a decode error, which every reader turns into a checkpoint miss and a
// recompute.
const (
	colBlockMagic   = "FTCB"
	colBlockVersion = 2

	colEncPlain = 0
	colEncDelta = 1 // TypeInt only
	colEncDict  = 1 // TypeString only
)

// The codec is columnar on both sides: EncodeBlock reads a batch's typed
// vectors and DecodeBlock fills typed vectors, so no value is boxed between a
// stage and the store. The row-typed functions at the end of the file (the
// oracle's and the row stores' way in) convert and call the same two.

func uvarintLen(x uint64) int64 { return int64(bits.Len64(x|1)+6) / 7 }

func varintLen(x int64) int64 { return uvarintLen(uint64(x)<<1 ^ uint64(x>>63)) }

func stringLen(s string) int64 { return uvarintLen(uint64(len(s))) + int64(len(s)) }

func appendString(buf []byte, s string) []byte {
	return append(binary.AppendUvarint(buf, uint64(len(s))), s...)
}

// at is the physical position of logical row i under the selection sel.
func at(sel []int32, i int) int {
	if sel != nil {
		return int(sel[i])
	}
	return i
}

// colPlan is the sizing pass's verdict on one column: its encoding, the exact
// payload size under that encoding and, for a dictionary column, the
// dictionary. The write pass follows it instead of deciding again.
type colPlan struct {
	enc     byte
	size    int64
	index   map[string]uint64 // colEncDict: value -> position in entries
	entries []string          // colEncDict: values in first-appearance order
}

// planColumn sizes the n logical rows of v under every encoding its type has
// and picks one: a compression only when it is strictly smaller than plain.
func planColumn(v *Vector, sel []int32, n int) colPlan {
	switch v.Type {
	case TypeInt:
		var plain, delta int64
		prev := int64(0)
		for i := 0; i < n; i++ {
			x := v.Ints[at(sel, i)]
			plain += varintLen(x)
			// Two's-complement wrapping subtraction (the first value against
			// 0): the decoder's wrapping addition round-trips every pair,
			// including extreme values.
			delta += varintLen(x - prev)
			prev = x
		}
		if delta < plain {
			return colPlan{enc: colEncDelta, size: delta}
		}
		return colPlan{enc: colEncPlain, size: plain}
	case TypeFloat:
		return colPlan{enc: colEncPlain, size: 8 * int64(n)}
	default:
		p := colPlan{enc: colEncDict, index: make(map[string]uint64)}
		var plain, entries, indexes int64
		for i := 0; i < n; i++ {
			s := v.Strings[at(sel, i)]
			plain += stringLen(s)
			idx, ok := p.index[s]
			if !ok {
				idx = uint64(len(p.entries))
				p.index[s] = idx
				p.entries = append(p.entries, s)
				entries += stringLen(s)
			}
			indexes += uvarintLen(idx)
		}
		p.size = uvarintLen(uint64(len(p.entries))) + entries + indexes
		if p.size < plain {
			return p
		}
		return colPlan{enc: colEncPlain, size: plain}
	}
}

// planBlock sizes every column of b and returns the plans with the exact size
// of the block they add up to. An empty batch is the two-zero header whatever
// its schema; zero-width rows have no block form, because a block would spend
// no bytes on them and the decoder could not bound their count by the file
// size.
func planBlock(b *Batch) ([]colPlan, int64, error) {
	n := b.Len()
	size := int64(len(colBlockMagic)) + 1
	if n == 0 {
		return nil, size + 2, nil
	}
	if len(b.Cols) == 0 {
		return nil, 0, fmt.Errorf("engine: %d zero-width rows have no column-block form: %w", n, ErrNotColumnar)
	}
	plans := make([]colPlan, len(b.Cols))
	size += uvarintLen(uint64(len(plans))) + uvarintLen(uint64(n))
	for c := range plans {
		plans[c] = planColumn(&b.Cols[c], b.Sel, n)
		size += 2 + plans[c].size // type byte + encoding byte + payload
	}
	return plans, size, nil
}

// EncodeBlock serializes the logical rows of b (nil is the empty partition)
// to the bytes of its block file: one sizing pass per column, then one write
// pass into a buffer of exactly that size.
func EncodeBlock(b *Batch) ([]byte, error) {
	plans, size, err := planBlock(b)
	if err != nil {
		return nil, err
	}
	n := b.Len()
	buf := make([]byte, 0, size)
	buf = append(buf, colBlockMagic...)
	buf = append(buf, colBlockVersion)
	buf = binary.AppendUvarint(buf, uint64(len(plans)))
	buf = binary.AppendUvarint(buf, uint64(n))
	for c, p := range plans {
		v := &b.Cols[c]
		buf = append(buf, byte(v.Type), p.enc)
		switch {
		case v.Type == TypeInt:
			prev := int64(0)
			for i := 0; i < n; i++ {
				x := v.Ints[at(b.Sel, i)]
				buf = binary.AppendVarint(buf, x-prev)
				if p.enc == colEncDelta {
					prev = x
				}
			}
		case v.Type == TypeFloat:
			for i := 0; i < n; i++ {
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.Floats[at(b.Sel, i)]))
			}
		case p.enc == colEncDict:
			buf = binary.AppendUvarint(buf, uint64(len(p.entries)))
			for _, s := range p.entries {
				buf = appendString(buf, s)
			}
			for i := 0; i < n; i++ {
				buf = binary.AppendUvarint(buf, p.index[v.Strings[at(b.Sel, i)]])
			}
		default:
			for i := 0; i < n; i++ {
				buf = appendString(buf, v.Strings[at(b.Sel, i)])
			}
		}
	}
	return buf, nil
}

var errBlockTruncated = fmt.Errorf("engine: column block: %w", io.ErrUnexpectedEOF)

// readStrings parses n length-prefixed strings off the front of d and returns
// them with the rest of d. The values are substrings of one copy of the bytes
// they span, so a column costs one string allocation however many values it
// has. Nothing is allocated before the n lengths have been checked against d.
func readStrings(d []byte, n uint64) ([]string, []byte, error) {
	end := 0
	for i := uint64(0); i < n; i++ {
		ln, k := binary.Uvarint(d[end:])
		if k <= 0 || ln > uint64(len(d)-end-k) {
			return nil, nil, errBlockTruncated
		}
		end += k + int(ln)
	}
	region := string(d[:end])
	out := make([]string, n)
	off := 0
	for i := range out {
		ln, k := binary.Uvarint(d[off:])
		off += k + int(ln)
		out[i] = region[off-int(ln) : off]
	}
	return out, d[end:], nil
}

// DecodeBlock parses a block file straight into typed vectors. With a schema
// the block must declare exactly its column types — another width or another
// type in any column is an error — and a nil schema accepts what the block
// declares (under empty column names). Every count read from the block is
// checked against the bytes that remain before anything is allocated for it,
// so a corrupt or hostile header is an error, never an out-of-memory crash;
// so are bytes left after the last column. Every error is a checkpoint miss
// to the caller.
func DecodeBlock(data []byte, schema Schema) (*Batch, error) {
	if len(data) < len(colBlockMagic) {
		return nil, fmt.Errorf("engine: block file of %d bytes has no magic", len(data))
	}
	if string(data[:len(colBlockMagic)]) != colBlockMagic {
		return nil, fmt.Errorf("engine: block file has unknown magic %q", data[:len(colBlockMagic)])
	}
	d := data[len(colBlockMagic):]
	if len(d) == 0 {
		return nil, errBlockTruncated
	}
	if d[0] != colBlockVersion {
		return nil, fmt.Errorf("engine: column block version %d unsupported", d[0])
	}
	ncols, k := binary.Uvarint(d[1:])
	if k <= 0 {
		return nil, errBlockTruncated
	}
	d = d[1+k:]
	nrows, k := binary.Uvarint(d)
	if k <= 0 {
		return nil, errBlockTruncated
	}
	d = d[k:]
	// Every row has at least one column (the encoder refuses zero-width
	// rows), every encoded value occupies at least one byte and every column
	// two more.
	if left := uint64(len(d)); (ncols == 0 && nrows > 0) || ncols > left/2 || (ncols > 0 && nrows > left/ncols) {
		return nil, fmt.Errorf("engine: column block header claims %d cols x %d rows in %d bytes", ncols, nrows, left)
	}
	fixed := schema != nil
	if fixed && ncols > 0 && ncols != uint64(len(schema)) {
		return nil, fmt.Errorf("engine: column block has %d columns, the schema %d", ncols, len(schema))
	}
	if !fixed {
		schema = make(Schema, ncols)
	}
	cols := make([]Vector, ncols)
	for c := range cols {
		if len(d) < 2 {
			return nil, errBlockTruncated
		}
		t, enc := ColType(d[0]), d[1]
		d = d[2:]
		if t != TypeInt && t != TypeFloat && t != TypeString {
			return nil, fmt.Errorf("engine: column block has unknown column type %d", t)
		}
		if !fixed {
			schema[c].Type = t
		} else if schema[c].Type != t {
			return nil, fmt.Errorf("engine: column block column %d is %s, the schema says %s", c, t, schema[c].Type)
		}
		v := &cols[c]
		v.Type = t
		switch t {
		case TypeInt:
			if enc != colEncPlain && enc != colEncDelta {
				return nil, fmt.Errorf("engine: column block int encoding %d unsupported", enc)
			}
			v.Ints = make([]int64, nrows)
			prev := int64(0)
			for i := range v.Ints {
				x, k := binary.Varint(d)
				if k <= 0 {
					return nil, errBlockTruncated
				}
				d = d[k:]
				x += prev // wrapping addition mirrors the encoder; prev stays 0 when plain
				if enc == colEncDelta {
					prev = x
				}
				v.Ints[i] = x
			}
		case TypeFloat:
			if enc != colEncPlain {
				return nil, fmt.Errorf("engine: column block float encoding %d unsupported", enc)
			}
			if uint64(len(d))/8 < nrows {
				return nil, errBlockTruncated
			}
			v.Floats = make([]float64, nrows)
			for i := range v.Floats {
				v.Floats[i] = math.Float64frombits(binary.LittleEndian.Uint64(d[8*i:]))
			}
			d = d[8*nrows:]
		default:
			var err error
			switch enc {
			case colEncPlain:
				v.Strings, d, err = readStrings(d, nrows)
				if err != nil {
					return nil, err
				}
			case colEncDict:
				ndict, k := binary.Uvarint(d)
				if k <= 0 {
					return nil, errBlockTruncated
				}
				d = d[k:]
				if ndict > uint64(len(d)) {
					return nil, fmt.Errorf("engine: column block dictionary size %d exceeds the block", ndict)
				}
				var dict []string
				if dict, d, err = readStrings(d, ndict); err != nil {
					return nil, err
				}
				v.Strings = make([]string, nrows)
				for i := range v.Strings {
					idx, k := binary.Uvarint(d)
					if k <= 0 {
						return nil, errBlockTruncated
					}
					d = d[k:]
					if idx >= ndict {
						return nil, fmt.Errorf("engine: column block dictionary index %d out of range", idx)
					}
					v.Strings[i] = dict[idx]
				}
			default:
				return nil, fmt.Errorf("engine: column block string encoding %d unsupported", enc)
			}
		}
	}
	if len(d) != 0 {
		return nil, fmt.Errorf("engine: column block has %d bytes after its last column", len(d))
	}
	if nrows == 0 {
		return nil, nil // the empty partition, whatever the schema
	}
	return &Batch{Schema: schema, Cols: cols, nrows: int(nrows)}, nil
}

// rowsBatch is the row adapters' way in: the batch of strictly typed rows,
// each column typed by the first row's value. Mixed concrete types in a
// column, ragged widths and non-scalar values are ErrNotColumnar.
func rowsBatch(rows []Row) (*Batch, error) {
	if len(rows) == 0 {
		return nil, nil
	}
	schema := make(Schema, len(rows[0]))
	for c, v := range rows[0] {
		switch v.(type) {
		case int64:
			schema[c].Type = TypeInt
		case float64:
			schema[c].Type = TypeFloat
		case string:
			schema[c].Type = TypeString
		default:
			return nil, fmt.Errorf("engine: row 0 column %d: %T has no column type: %w", c, v, ErrNotColumnar)
		}
	}
	return RowsToBatch(schema, rows)
}

// EncodeBlockBytes is EncodeBlock for boxed rows. Rows that are not strictly
// typed have no block form: the error wraps ErrNotColumnar and fails the
// checkpoint like any other write error.
func EncodeBlockBytes(rows []Row) ([]byte, error) {
	b, err := rowsBatch(rows)
	if err != nil {
		return nil, err
	}
	return EncodeBlock(b)
}

// EncodeColumnBlock is EncodeBlockBytes with the error folded to ok.
func EncodeColumnBlock(rows []Row) ([]byte, bool) {
	buf, err := EncodeBlockBytes(rows)
	return buf, err == nil
}

// DecodeBlockFile is DecodeBlock for boxed rows, under the column types the
// block itself declares; nil rows for an empty block.
func DecodeBlockFile(data []byte) ([]Row, error) {
	b, err := DecodeBlock(data, nil)
	if err != nil {
		return nil, err
	}
	return b.ToRows(), nil
}
