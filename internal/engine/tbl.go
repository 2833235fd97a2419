package engine

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WriteTBL serializes a table in dbgen's .tbl format: one row per line,
// '|'-separated values with a trailing '|', read straight off the typed
// columns. Replicated tables emit each row once.
func WriteTBL(t *Table, w io.Writer) error {
	bw := bufio.NewWriter(w)
	var line []byte
	for _, b := range t.LogicalParts() {
		for i, n := 0, b.Len(); i < n; i++ {
			p := i
			if b.Sel != nil {
				p = int(b.Sel[i])
			}
			line = line[:0]
			for c := range b.Cols {
				switch v := &b.Cols[c]; v.Type {
				case TypeInt:
					line = strconv.AppendInt(line, v.Ints[p], 10)
				case TypeFloat:
					line = strconv.AppendFloat(line, v.Floats[p], 'g', -1, 64)
				default:
					if strings.ContainsAny(v.Strings[p], "|\n") {
						return fmt.Errorf("engine: string value %q cannot be written to .tbl", v.Strings[p])
					}
					line = append(line, v.Strings[p]...)
				}
				line = append(line, '|')
			}
			line = append(line, '\n')
			if _, err := bw.Write(line); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadTBL parses dbgen .tbl data into a partitioned table. keyCol selects
// the hash-partitioning column (-1 = round robin); replicated copies the
// full data to every partition.
func ReadTBL(name string, schema Schema, r io.Reader, parts, keyCol int, replicated bool) (*Table, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 16*1024*1024)
	var rows []Row
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" {
			continue
		}
		line = strings.TrimSuffix(line, "|")
		fields := strings.Split(line, "|")
		if len(fields) < len(schema) {
			return nil, fmt.Errorf("engine: %s.tbl line %d has %d fields, schema needs %d",
				name, lineNo, len(fields), len(schema))
		}
		row := make(Row, len(schema))
		for i, c := range schema {
			f := fields[i]
			switch c.Type {
			case TypeInt:
				v, err := strconv.ParseInt(f, 10, 64)
				if err != nil {
					return nil, fmt.Errorf("engine: %s.tbl line %d col %s: %w", name, lineNo, c.Name, err)
				}
				row[i] = v
			case TypeFloat:
				v, err := strconv.ParseFloat(f, 64)
				if err != nil {
					return nil, fmt.Errorf("engine: %s.tbl line %d col %s: %w", name, lineNo, c.Name, err)
				}
				row[i] = v
			case TypeString:
				row[i] = f
			default:
				return nil, fmt.Errorf("engine: %s.tbl: unsupported column type %v", name, c.Type)
			}
		}
		rows = append(rows, row)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if replicated {
		return NewReplicatedTable(name, schema, rows, parts)
	}
	return NewTable(name, schema, rows, parts, keyCol)
}
