package tpch

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"ftpde/internal/engine"
)

func TestTBLRoundTrip(t *testing.T) {
	dir := t.TempDir()
	orig, err := Generate(0.002, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := DumpTBL(orig, dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadTBL(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"region", "nation", "supplier", "customer", "orders", "lineitem", "part", "partsupp"} {
		a, err := orig.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		b, err := loaded.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		if a.Replicated != b.Replicated {
			t.Errorf("%s: replication flag lost", name)
		}
		if a.Rows() != b.Rows() {
			t.Errorf("%s: %d rows loaded, want %d", name, b.Rows(), a.Rows())
		}
		if a.Parts != nil {
			t.Errorf("%s: writing the table derived its row view", name)
		}
		if !reflect.DeepEqual(a.RowParts(), b.RowParts()) {
			t.Errorf("%s: loaded rows differ from the generated ones", name)
		}
	}

	// Query equivalence: Q1 over original vs loaded data.
	q1a, err := EngineQ1(orig, 1200)
	if err != nil {
		t.Fatal(err)
	}
	q1b, err := EngineQ1(loaded, 1200)
	if err != nil {
		t.Fatal(err)
	}
	co := &engine.Coordinator{Nodes: 4}
	ra, _, err := co.Execute(q1a)
	if err != nil {
		t.Fatal(err)
	}
	co2 := &engine.Coordinator{Nodes: 4}
	rb, _, err := co2.Execute(q1b)
	if err != nil {
		t.Fatal(err)
	}
	rowsA, rowsB := ra.AllRows(), rb.AllRows()
	if len(rowsA) != len(rowsB) {
		t.Fatalf("group counts differ: %d vs %d", len(rowsA), len(rowsB))
	}
	byKey := map[string]engine.Row{}
	for _, r := range rowsA {
		byKey[r[0].(string)+"|"+r[1].(string)] = r
	}
	for _, r := range rowsB {
		ref := byKey[r[0].(string)+"|"+r[1].(string)]
		if ref == nil || math.Abs(r[2].(float64)-ref[2].(float64)) > 1e-6 {
			t.Errorf("Q1 differs on loaded data for group %v", r[0])
		}
	}
}

func TestReadTBLErrors(t *testing.T) {
	schema := engine.Schema{{Name: "a", Type: engine.TypeInt}, {Name: "b", Type: engine.TypeFloat}}
	if _, err := engine.ReadTBL("t", schema, strings.NewReader("1|\n"), 2, 0, false); err == nil {
		t.Error("short row accepted")
	}
	if _, err := engine.ReadTBL("t", schema, strings.NewReader("x|1.5|\n"), 2, 0, false); err == nil {
		t.Error("non-integer accepted")
	}
	if _, err := engine.ReadTBL("t", schema, strings.NewReader("1|zz|\n"), 2, 0, false); err == nil {
		t.Error("non-float accepted")
	}
	tb, err := engine.ReadTBL("t", schema, strings.NewReader("1|1.5|\n\n2|2.5|\n"), 2, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if tb.Rows() != 2 {
		t.Errorf("rows = %d, want 2 (blank lines skipped)", tb.Rows())
	}
}

func TestWriteTBLRejectsDelimiterInString(t *testing.T) {
	schema := engine.Schema{{Name: "s", Type: engine.TypeString}}
	tb, err := engine.NewTable("t", schema, []engine.Row{{"bad|value"}}, 1, -1)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := engine.WriteTBL(tb, &sb); err == nil {
		t.Error("embedded delimiter accepted")
	}
}
