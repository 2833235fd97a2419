// Package engine is a miniature shared-nothing MPP query engine: the
// executable substrate standing in for the paper's XDB middleware over
// sharded MySQL. Tables are horizontally partitioned across simulated nodes;
// physical operators execute partition-parallel on worker goroutines;
// operator outputs can be pipelined (kept in volatile per-node memory) or
// materialized to a fault-tolerant store; a coordinator detects injected
// worker failures and recovers by recomputing lost partitions from the last
// materialized intermediates (fine-grained) or restarting the query
// (coarse-grained).
//
// The engine executes real rows and is used by correctness tests and
// examples at small scale factors; the paper's large-scale experiments run
// on the exec package's cost-level simulator instead.
package engine

import (
	"fmt"
)

// Value is a runtime value: int64, float64 or string.
type Value any

// Row is a tuple of values.
type Row []Value

// ColType enumerates supported column types.
type ColType int

// Column types.
const (
	TypeInt ColType = iota
	TypeFloat
	TypeString
)

// String implements fmt.Stringer.
func (t ColType) String() string {
	switch t {
	case TypeInt:
		return "int"
	case TypeFloat:
		return "float"
	case TypeString:
		return "string"
	default:
		return fmt.Sprintf("type(%d)", int(t))
	}
}

// Column describes one attribute of a schema.
type Column struct {
	Name string
	Type ColType
}

// Schema is an ordered list of columns.
type Schema []Column

// colIndex returns the index of the named column or -1.
func (s Schema) colIndex(name string) int {
	for i, c := range s {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// MustCol returns the index of the named column, panicking if absent; for
// use in hand-built query trees.
func (s Schema) MustCol(name string) int {
	i := s.colIndex(name)
	if i < 0 {
		panic(fmt.Sprintf("engine: unknown column %q", name))
	}
	return i
}

// toFloat coerces numeric values for arithmetic and comparisons.
func toFloat(v Value) (float64, bool) {
	switch x := v.(type) {
	case int64:
		return float64(x), true
	case float64:
		return x, true
	case int:
		return float64(x), true
	default:
		return 0, false
	}
}

// compareValues returns -1, 0, 1 for a < b, a == b, a > b. Numeric types
// compare numerically; strings lexicographically.
func compareValues(a, b Value) (int, error) {
	if fa, ok := toFloat(a); ok {
		fb, ok := toFloat(b)
		if !ok {
			return 0, fmt.Errorf("engine: cannot compare %T with %T", a, b)
		}
		switch {
		case fa < fb:
			return -1, nil
		case fa > fb:
			return 1, nil
		default:
			return 0, nil
		}
	}
	sa, ok := a.(string)
	if !ok {
		return 0, fmt.Errorf("engine: unsupported comparison type %T", a)
	}
	sb, ok := b.(string)
	if !ok {
		return 0, fmt.Errorf("engine: cannot compare string with %T", b)
	}
	switch {
	case sa < sb:
		return -1, nil
	case sa > sb:
		return 1, nil
	default:
		return 0, nil
	}
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// hashInt64 is FNV-1a over the little-endian bytes of x.
func hashInt64(x int64) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < 8; i++ {
		h ^= uint64(byte(x >> (8 * i)))
		h *= fnvPrime64
	}
	return h
}

// hashString is FNV-1a over the bytes of s.
func hashString(s string) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

// hashValue produces a stable hash for repartitioning. The typed helpers
// above are the ground truth; columnar partitioning uses them directly so
// row and column paths place every value identically.
func hashValue(v Value) uint64 {
	switch x := v.(type) {
	case int64:
		return hashInt64(x)
	case int:
		return hashInt64(int64(x))
	case float64:
		// Hash the decimal representation to keep 1.0 == 1 semantics out of
		// scope; partitioning keys are integers in practice.
		return hashString(fmt.Sprintf("%g", x))
	case string:
		return hashString(x)
	default:
		return hashString(fmt.Sprintf("%v", x))
	}
}

// hashVectorAt hashes element i of a typed column, matching hashValue on the
// boxed equivalent.
func hashVectorAt(v *Vector, i int) uint64 {
	switch v.Type {
	case TypeInt:
		return hashInt64(v.Ints[i])
	case TypeFloat:
		return hashString(fmt.Sprintf("%g", v.Floats[i]))
	default:
		return hashString(v.Strings[i])
	}
}
