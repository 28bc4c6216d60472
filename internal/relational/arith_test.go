package relational_test

import (
	"testing"

	. "threatraptor/internal/relational"
	"threatraptor/internal/relational/sqltext"
)

func arithDB(t *testing.T) *DB {
	t.Helper()
	db := NewDB()
	tbl, err := db.CreateTable("t", Schema{{Name: "a", Kind: KindInt}, {Name: "b", Kind: KindInt}})
	if err != nil {
		t.Fatal(err)
	}
	rows := [][]Value{
		{Int(10), Int(3)},
		{Int(5), Int(5)},
		{Int(100), Int(1)},
	}
	for _, r := range rows {
		if err := tbl.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func TestArithmeticInWhere(t *testing.T) {
	db := arithDB(t)
	rs, _, err := sqltext.Query(db, "SELECT a FROM t WHERE a - b > 5")
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() != 2 { // 10-3=7, 100-1=99
		t.Fatalf("rows = %d: %v", rs.Len(), rs.Strings())
	}
	rs, _, err = sqltext.Query(db, "SELECT a FROM t WHERE a + b = 10")
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() != 1 || rs.Rows[0][0].I != 5 {
		t.Fatalf("got %v", rs.Strings())
	}
}

func TestArithmeticChained(t *testing.T) {
	db := arithDB(t)
	// Left-associative: 100 - 1 - 10 = 89.
	rs, _, err := sqltext.Query(db, "SELECT a FROM t WHERE a - b - 10 = 89")
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() != 1 || rs.Rows[0][0].I != 100 {
		t.Fatalf("got %v", rs.Strings())
	}
}

func TestArithmeticInProjection(t *testing.T) {
	db := arithDB(t)
	rs, _, err := sqltext.Query(db, "SELECT a + b AS total FROM t WHERE a = 10")
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() != 1 || rs.Rows[0][0].I != 13 {
		t.Fatalf("got %v", rs.Strings())
	}
	if rs.Columns[0] != "total" {
		t.Fatalf("columns = %v", rs.Columns)
	}
}

func TestArithmeticTypeError(t *testing.T) {
	db := NewDB()
	tbl, _ := db.CreateTable("s", Schema{{Name: "x", Kind: KindString}})
	if err := tbl.Insert([]Value{Str("hello")}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sqltext.Query(db, "SELECT x FROM s WHERE x + 1 > 0"); err == nil {
		t.Fatal("string arithmetic must fail")
	}
}

func TestEvalExprArithmetic(t *testing.T) {
	resolve := func(c ColRef) (Value, error) { return Int(7), nil }
	v, err := EvalExpr(BinOp{Op: "+", L: ColRef{Column: "x"}, R: Lit{V: Int(3)}}, resolve)
	if err != nil || v.I != 10 {
		t.Fatalf("7+3 = %v, %v", v, err)
	}
	v, err = EvalExpr(BinOp{Op: "-", L: ColRef{Column: "x"}, R: Lit{V: Int(3)}}, resolve)
	if err != nil || v.I != 4 {
		t.Fatalf("7-3 = %v, %v", v, err)
	}
	if _, err := EvalExpr(BinOp{Op: "+", L: Lit{V: Str("a")}, R: Lit{V: Int(1)}}, resolve); err == nil {
		t.Fatal("string + int must fail")
	}
}
