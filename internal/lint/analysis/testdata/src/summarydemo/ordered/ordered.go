// Package ordered exercises map-order taint and nondeterminism-source
// recording in summaries.
package ordered

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// Keys builds a slice in map-iteration order: OrderedResults[0] = true.
func Keys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

// SortedKeys sorts before returning: the taint is killed.
func SortedKeys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// KeysDeep returns ordered content produced by a callee.
func KeysDeep(m map[string]int) []string {
	return Keys(m)
}

// DumpKeys writes map-iteration-ordered data to a sink: one OrderSink.
func DumpKeys(w io.Writer, m map[string]int) {
	ks := Keys(m)
	fmt.Fprintln(w, ks)
}

// DumpSorted sorts first: no OrderSink.
func DumpSorted(w io.Writer, m map[string]int) {
	ks := Keys(m)
	sort.Strings(ks)
	fmt.Fprintln(w, ks)
}

// DumpInline emits iteration-derived data from inside the loop.
func DumpInline(w io.Writer, m map[string]int) {
	for k, v := range m {
		fmt.Fprintf(w, "%s=%d\n", k, v)
	}
}

// Stamp calls time.Now directly: one TimeSite.
func Stamp() int64 {
	return time.Now().UnixNano()
}

// StampDeep reaches time.Now through a helper; the Tainted closure must
// find it.
func StampDeep() int64 {
	return Stamp()
}
