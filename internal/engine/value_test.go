package engine

import (
	"testing"
)

func TestColTypeString(t *testing.T) {
	if TypeInt.String() != "int" || TypeFloat.String() != "float" || TypeString.String() != "string" {
		t.Error("type names wrong")
	}
	if ColType(99).String() == "" {
		t.Error("unknown type should render something")
	}
}

func TestSchemaColIndex(t *testing.T) {
	s := kvSchema()
	if s.colIndex("k") != 0 || s.colIndex("v") != 1 {
		t.Error("colIndex wrong")
	}
	if s.colIndex("nope") != -1 {
		t.Error("missing column should return -1")
	}
	if s.MustCol("v") != 1 {
		t.Error("MustCol wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustCol on missing column should panic")
		}
	}()
	s.MustCol("nope")
}

func TestCompareValues(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{int64(1), int64(2), -1},
		{int64(2), int64(2), 0},
		{3.5, int64(2), 1},
		{int64(2), 3.5, -1},
		{"a", "b", -1},
		{"b", "a", 1},
		{"a", "a", 0},
	}
	for _, c := range cases {
		got, err := compareValues(c.a, c.b)
		if err != nil || got != c.want {
			t.Errorf("compare(%v,%v) = %d,%v want %d", c.a, c.b, got, err, c.want)
		}
	}
	// Type mismatches error rather than panic.
	if _, err := compareValues(int64(1), "x"); err == nil {
		t.Error("numeric vs string accepted")
	}
	if _, err := compareValues("x", int64(1)); err == nil {
		t.Error("string vs numeric accepted")
	}
	if _, err := compareValues([]int{1}, int64(1)); err == nil {
		t.Error("unsupported type accepted")
	}
}

func TestHashValueStability(t *testing.T) {
	if hashValue(int64(42)) != hashValue(int64(42)) {
		t.Error("int hash not stable")
	}
	if hashValue("abc") != hashValue("abc") {
		t.Error("string hash not stable")
	}
	if hashValue(int64(1)) == hashValue(int64(2)) {
		t.Error("different ints should (almost surely) hash differently")
	}
	if hashValue(42) != hashValue(int64(42)) {
		t.Error("int and int64 should hash alike")
	}
	// Floats and unknown types hash via their rendering; just require
	// stability.
	if hashValue(1.5) != hashValue(1.5) {
		t.Error("float hash not stable")
	}
	type odd struct{ X int }
	if hashValue(odd{1}) != hashValue(odd{1}) {
		t.Error("fallback hash not stable")
	}
}

func TestCatalogOperations(t *testing.T) {
	cat := NewCatalog(2)
	if cat.Partitions() != 2 {
		t.Error("partition count wrong")
	}
	tb := mustTable(t, "t", kvSchema(), kvRows(4), 2, 0)
	if err := cat.Add(tb); err != nil {
		t.Fatal(err)
	}
	if err := cat.Add(tb); err == nil {
		t.Error("duplicate table accepted")
	}
	wrong := mustTable(t, "w", kvSchema(), kvRows(4), 3, 0)
	if err := cat.Add(wrong); err == nil {
		t.Error("partition mismatch accepted")
	}
	got, err := cat.Table("t")
	if err != nil || got != tb {
		t.Error("lookup failed")
	}
	if _, err := cat.Table("nope"); err == nil {
		t.Error("missing table lookup succeeded")
	}
}

func TestLogicalRows(t *testing.T) {
	part := mustTable(t, "p", kvSchema(), kvRows(10), 2, 0)
	if part.LogicalRows() != 10 {
		t.Errorf("partitioned logical rows = %d, want 10", part.LogicalRows())
	}
	repl, err := NewReplicatedTable("r", kvSchema(), kvRows(3), 4)
	if err != nil {
		t.Fatal(err)
	}
	if repl.LogicalRows() != 3 {
		t.Errorf("replicated logical rows = %d, want 3", repl.LogicalRows())
	}
	if repl.Rows() != 12 {
		t.Errorf("replicated physical rows = %d, want 12", repl.Rows())
	}
}

func TestAndEvalErrors(t *testing.T) {
	row := Row{int64(1), "x"}
	// Sub-expression error propagates.
	if _, err := (And{Col(9)}).Eval(row); err == nil {
		t.Error("out-of-range column accepted")
	}
	// Non-numeric operand rejected.
	if _, err := (And{Col(1)}).Eval(row); err == nil {
		t.Error("string operand to AND accepted")
	}
	// Short circuit on zero.
	v, err := (And{Const{V: int64(0)}, Col(9)}).Eval(row)
	if err != nil || v.(int64) != 0 {
		t.Errorf("AND short-circuit failed: %v %v", v, err)
	}
}

func TestArithErrors(t *testing.T) {
	row := Row{int64(4), "x"}
	if _, err := (Arith{Op: Div, L: Col(0), R: Const{V: int64(0)}}).Eval(row); err == nil {
		t.Error("division by zero accepted")
	}
	if _, err := (Arith{Op: Add, L: Col(1), R: Col(0)}).Eval(row); err == nil {
		t.Error("string arithmetic accepted")
	}
	if _, err := (Arith{Op: ArithOp(9), L: Col(0), R: Col(0)}).Eval(row); err == nil {
		t.Error("unknown op accepted")
	}
	v, err := (Arith{Op: Sub, L: Col(0), R: Const{V: 1.5}}).Eval(row)
	if err != nil || v.(float64) != 2.5 {
		t.Errorf("4 - 1.5 = %v, %v", v, err)
	}
}

func TestCmpErrors(t *testing.T) {
	row := Row{int64(4)}
	if _, err := (Cmp{Op: CmpOp(42), L: Col(0), R: Col(0)}).Eval(row); err == nil {
		t.Error("unknown comparison op accepted")
	}
	if _, err := (Cmp{Op: EQ, L: Col(5), R: Col(0)}).Eval(row); err == nil {
		t.Error("bad column accepted")
	}
	v, err := (Cmp{Op: NE, L: Col(0), R: Const{V: int64(5)}}).Eval(row)
	if err != nil || v.(int64) != 1 {
		t.Errorf("4 <> 5 = %v, %v", v, err)
	}
}
