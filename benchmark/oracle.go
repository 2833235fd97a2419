package main

import (
	"fmt"
	"hash/fnv"
	"strconv"

	"ftpde/internal/engine"
	"ftpde/internal/sql"
)

// digest identifies a result as a multiset of rows: the wrapping sum of the
// rows' hashes plus the row count. It is what sorting the rows and hashing
// the concatenation would tell, without the sort, so checking a timed
// operation costs one pass over its rows.
type digest struct {
	Sum  uint64
	Rows int
}

// appendCell renders v the way fmt's %v does for the engine's three value
// types, which is how the service formats the rows it returns.
func appendCell(buf []byte, v engine.Value) []byte {
	switch x := v.(type) {
	case int64:
		return strconv.AppendInt(buf, x, 10)
	case float64:
		return strconv.AppendFloat(buf, x, 'g', -1, 64)
	case string:
		return append(buf, x...)
	}
	return fmt.Appendf(buf, "%v", v)
}

func hashBytes(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// add folds engine rows into the digest.
func (d *digest) add(rows []engine.Row) {
	var buf []byte
	for _, r := range rows {
		buf = buf[:0]
		for _, v := range r {
			buf = append(appendCell(buf, v), 0x1f)
		}
		d.Sum += hashBytes(buf)
	}
	d.Rows += len(rows)
}

// digestResult digests a partitioned result without flattening it.
func digestResult(res *engine.PartitionedResult) digest {
	var d digest
	for _, part := range res.Parts {
		d.add(part)
	}
	return d
}

// digestStrings digests rows the service already formatted.
func digestStrings(rows [][]string, total int) digest {
	d := digest{Rows: total}
	var buf []byte
	for _, r := range rows {
		buf = buf[:0]
		for _, c := range r {
			buf = append(append(buf, c...), 0x1f)
		}
		d.Sum += hashBytes(buf)
	}
	return d
}

// stagedRows runs text on the staged engine.Coordinator, the repository's
// reference executor, and returns its rows in result order.
func stagedRows(cat *engine.Catalog, text string) ([]engine.Row, error) {
	stmt, err := sql.Parse(text)
	if err != nil {
		return nil, err
	}
	pp, err := sql.Compile(stmt, cat)
	if err != nil {
		return nil, err
	}
	res, _, err := (&engine.Coordinator{Nodes: nodes}).Execute(pp.Root)
	if err != nil {
		return nil, err
	}
	return res.AllRows(), nil
}

// reference is the digest every execution of text must reproduce.
func reference(cat *engine.Catalog, text string) (digest, error) {
	rows, err := stagedRows(cat, text)
	if err != nil {
		return digest{}, fmt.Errorf("reference for %q: %w", text, err)
	}
	if len(rows) == 0 {
		return digest{}, fmt.Errorf("reference for %q is empty: the workload would check nothing", text)
	}
	var d digest
	d.add(rows)
	return d, nil
}

// servedReference is the digest of what the service returns for text: the
// first maxRows rows of the result and its full cardinality.
func servedReference(cat *engine.Catalog, text string) (digest, error) {
	rows, err := stagedRows(cat, text)
	if err != nil {
		return digest{}, fmt.Errorf("reference for %q: %w", text, err)
	}
	var d digest
	d.add(rows[:min(len(rows), maxRows)])
	d.Rows = len(rows)
	return d, nil
}
