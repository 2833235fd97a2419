package engine

import (
	"fmt"
	"sync"
)

// Table is a horizontally partitioned base relation. Partition i is hosted
// on node i (one partition per node, like the paper's setup).
type Table struct {
	Name   string
	Schema Schema
	// ColParts holds the table's data, once: one typed batch per partition.
	// The runtime's scans, the statistics collector and WriteTBL read it.
	ColParts []*Batch
	// Replicated marks tables whose every partition holds a full copy (the
	// paper replicates NATION and REGION); scans over them must read a
	// single partition to avoid duplicating rows.
	Replicated bool
	// Parts caches the boxed row view of ColParts for the row oracle. It is
	// nil until RowParts derives it — read it through RowParts.
	Parts    [][]Row
	rowsOnce sync.Once
	// hashKey is 1 + the column NewTableFromColumns hash-partitioned the rows
	// on; 0 — a round-robin, replicated or hand-built table — claims nothing.
	hashKey int
}

// HashKey returns the column the table's rows are hash-partitioned on, so
// that all rows holding one value of it share a partition; false when no
// such column is known.
func (t *Table) HashKey() (int, bool) {
	if t.hashKey == 0 || t.Replicated {
		return 0, false
	}
	return t.hashKey - 1, true
}

// RowParts returns the row-oriented view of the table, one slice of rows per
// partition in ColParts order. It is derived on first use and cached — a
// table nothing interprets row by row never pays for the boxed copy — and
// partitions that share a batch (replicated tables) share their rows.
func (t *Table) RowParts() [][]Row {
	t.rowsOnce.Do(func() {
		parts := make([][]Row, len(t.ColParts))
		for p, b := range t.ColParts {
			if p > 0 && b == t.ColParts[p-1] {
				parts[p] = parts[p-1]
				continue
			}
			parts[p] = b.ToRows()
		}
		t.Parts = parts
	})
	return t.Parts
}

// NewTable partitions rows across `parts` partitions by hashing the key
// column (round-robin when keyCol < 0). This is where row-shaped base data
// enters: every value must be the int64, float64 or string its column
// declares (ErrNotColumnar otherwise), so every table has its ColParts.
func NewTable(name string, schema Schema, rows []Row, parts int, keyCol int) (*Table, error) {
	b, err := RowsToBatch(schema, rows)
	if err != nil {
		return nil, fmt.Errorf("engine: table %s: %w", name, err)
	}
	return NewTableFromColumns(name, schema, b.Cols, parts, keyCol)
}

// NewReplicatedTable replicates all rows to every partition (the paper
// replicates the small NATION and REGION tables to all cluster nodes), with
// NewTable's typing rule.
func NewReplicatedTable(name string, schema Schema, rows []Row, parts int) (*Table, error) {
	b, err := RowsToBatch(schema, rows)
	if err != nil {
		return nil, fmt.Errorf("engine: table %s: %w", name, err)
	}
	return NewReplicatedTableFromColumns(name, schema, b.Cols, parts)
}

// NewTableFromColumns builds a table directly from typed column vectors,
// hash-partitioning column-wise on keyCol (round-robin when keyCol < 0)
// without boxing any value.
func NewTableFromColumns(name string, schema Schema, cols []Vector, parts int, keyCol int) (*Table, error) {
	if parts <= 0 {
		return nil, fmt.Errorf("engine: table %s needs at least one partition", name)
	}
	src, err := NewBatchFromCols(schema, cols)
	if err != nil {
		return nil, fmt.Errorf("engine: table %s: %v", name, err)
	}
	if keyCol >= len(schema) {
		return nil, fmt.Errorf("engine: table %s key column %d out of range", name, keyCol)
	}
	n := src.Len()
	partCols := make([][]Vector, parts)
	for p := 0; p < parts; p++ {
		partCols[p] = make([]Vector, len(schema))
		for c := range schema {
			partCols[p][c].Type = schema[c].Type
		}
	}
	for i := 0; i < n; i++ {
		var p int
		if keyCol >= 0 {
			p = int(hashVectorAt(&src.Cols[keyCol], i) % uint64(parts))
		} else {
			p = i % parts
		}
		for c := range schema {
			v := &src.Cols[c]
			dst := &partCols[p][c]
			switch v.Type {
			case TypeInt:
				dst.Ints = append(dst.Ints, v.Ints[i])
			case TypeFloat:
				dst.Floats = append(dst.Floats, v.Floats[i])
			default:
				dst.Strings = append(dst.Strings, v.Strings[i])
			}
		}
	}
	t := &Table{Name: name, Schema: schema, ColParts: make([]*Batch, parts), hashKey: max(keyCol+1, 0)}
	for p := 0; p < parts; p++ {
		b, err := NewBatchFromCols(schema, partCols[p])
		if err != nil {
			return nil, fmt.Errorf("engine: table %s: %v", name, err)
		}
		t.ColParts[p] = b
	}
	return t, nil
}

// NewReplicatedTableFromColumns builds a replicated table from typed column
// vectors: every partition shares one columnar batch.
func NewReplicatedTableFromColumns(name string, schema Schema, cols []Vector, parts int) (*Table, error) {
	if parts <= 0 {
		return nil, fmt.Errorf("engine: table %s needs at least one partition", name)
	}
	b, err := NewBatchFromCols(schema, cols)
	if err != nil {
		return nil, fmt.Errorf("engine: table %s: %v", name, err)
	}
	t := &Table{Name: name, Schema: schema, ColParts: make([]*Batch, parts), Replicated: true}
	for p := range t.ColParts {
		t.ColParts[p] = b
	}
	return t, nil
}

// Rows returns the total row count across partitions.
func (t *Table) Rows() int {
	n := 0
	for _, b := range t.ColParts {
		n += b.Len()
	}
	return n
}

// LogicalParts returns the partitions that together hold every distinct row
// once: all of them, or the first one of a replicated table.
func (t *Table) LogicalParts() []*Batch {
	if t.Replicated && len(t.ColParts) > 0 {
		return t.ColParts[:1]
	}
	return t.ColParts
}

// LogicalRows returns the number of distinct rows: replicated tables count
// one copy, partitioned tables count all partitions.
func (t *Table) LogicalRows() int {
	if t.Replicated && len(t.ColParts) > 0 {
		return t.ColParts[0].Len()
	}
	return t.Rows()
}

// Catalog maps table names to tables (one database shard layout).
type Catalog struct {
	tables map[string]*Table
	parts  int
}

// NewCatalog creates a catalog for a cluster with the given partition count.
func NewCatalog(parts int) *Catalog {
	return &Catalog{tables: make(map[string]*Table), parts: parts}
}

// Add registers a table; its partition count must match the catalog's.
func (c *Catalog) Add(t *Table) error {
	if len(t.ColParts) != c.parts {
		return fmt.Errorf("engine: table %s has %d partitions, catalog expects %d", t.Name, len(t.ColParts), c.parts)
	}
	if _, dup := c.tables[t.Name]; dup {
		return fmt.Errorf("engine: duplicate table %s", t.Name)
	}
	c.tables[t.Name] = t
	return nil
}

// Table looks up a table by name.
func (c *Catalog) Table(name string) (*Table, error) {
	t, ok := c.tables[name]
	if !ok {
		return nil, fmt.Errorf("engine: unknown table %s", name)
	}
	return t, nil
}

// Partitions returns the catalog's partition count.
func (c *Catalog) Partitions() int { return c.parts }
