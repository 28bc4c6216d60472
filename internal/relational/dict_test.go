package relational_test

import (
	"fmt"
	"math/rand"
	"testing"

	. "threatraptor/internal/relational"
	"threatraptor/internal/relational/sqltext"
)

// buildDictPair creates two identical databases — one with the "op" column
// dictionary-encoded, one plain — loaded with the same pseudo-random rows
// (including NULLs) and an index on op in both.
func buildDictPair(t *testing.T, rows int) (dictDB, plainDB *DB) {
	t.Helper()
	ops := []string{"read", "write", "execute", "connect", "send", "receive"}
	schema := Schema{
		{Name: "id", Kind: KindInt},
		{Name: "op", Kind: KindString},
		{Name: "amount", Kind: KindInt},
	}
	build := func(dict bool) *DB {
		db := NewDB()
		tbl, err := db.CreateTable("events", schema)
		if err != nil {
			t.Fatal(err)
		}
		if dict {
			if err := tbl.DictEncode("op"); err != nil {
				t.Fatal(err)
			}
		}
		rng := rand.New(rand.NewSource(42))
		for i := 0; i < rows; i++ {
			op := Str(ops[rng.Intn(len(ops))])
			if rng.Intn(17) == 0 {
				op = Null()
			}
			if err := tbl.Insert([]Value{Int(int64(i)), op, Int(rng.Int63n(1000))}); err != nil {
				t.Fatal(err)
			}
		}
		if err := tbl.CreateIndex("op"); err != nil {
			t.Fatal(err)
		}
		return db
	}
	return build(true), build(false)
}

// TestDictEncodedColumnMatchesPlain runs every predicate shape the
// vectorized executor specializes over both encodings and demands
// identical results — the dictionary must be invisible to semantics.
func TestDictEncodedColumnMatchesPlain(t *testing.T) {
	dictDB, plainDB := buildDictPair(t, 3000)
	queries := []string{
		"SELECT id, op FROM events WHERE op = 'read'",
		"SELECT id, op FROM events WHERE op = 'no_such_op'",
		"SELECT id, op FROM events WHERE op <> 'write'",
		"SELECT id, op FROM events WHERE op <> 'no_such_op'",
		"SELECT id, op FROM events WHERE op LIKE 're%'",
		"SELECT id, op FROM events WHERE op LIKE '%ec%'",
		"SELECT id, op FROM events WHERE op IN ('read', 'send')",
		"SELECT id, op FROM events WHERE op NOT IN ('read', 'send')",
		"SELECT id, op FROM events WHERE op < 'read'",
		"SELECT id, op FROM events WHERE op <= 'read'",
		"SELECT id, op FROM events WHERE op > 'read'",
		"SELECT id, op FROM events WHERE op >= 'read'",
		"SELECT id, op FROM events WHERE op = 'read' AND amount > 500",
		"SELECT DISTINCT op FROM events WHERE op LIKE '%e%'",
		"SELECT op, amount FROM events WHERE amount < 10",
	}
	for _, q := range queries {
		want, _, err := sqltext.Query(plainDB, q)
		if err != nil {
			t.Fatalf("%s (plain): %v", q, err)
		}
		got, _, err := sqltext.Query(dictDB, q)
		if err != nil {
			t.Fatalf("%s (dict): %v", q, err)
		}
		if fmt.Sprint(got.Strings()) != fmt.Sprint(want.Strings()) {
			t.Errorf("%s:\n dict  %d rows %v\n plain %d rows %v",
				q, got.Len(), got.Strings(), want.Len(), want.Strings())
		}
	}
}

// TestDictEncodedAppendGrowsDictionary: values first seen after a plan is
// compiled must still match — the kernels resolve codes and code tables at
// filter time, not plan time. The plan is a Prepared one, the form the
// TBQL engine caches and re-runs across appends.
func TestDictEncodedAppendGrowsDictionary(t *testing.T) {
	db := NewDB()
	tbl, err := db.CreateTable("events", Schema{
		{Name: "id", Kind: KindInt},
		{Name: "op", Kind: KindString},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.DictEncode("op"); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert([]Value{Int(1), Str("read")}); err != nil {
		t.Fatal(err)
	}
	stmt, err := sqltext.Parse("SELECT id FROM events WHERE op = 'rename'")
	if err != nil {
		t.Fatal(err)
	}
	pr, err := db.Prepare(stmt) // compiled with 'rename' unseen
	if err != nil {
		t.Fatal(err)
	}
	rs, _, err := pr.QueryCtx(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() != 0 {
		t.Fatalf("unexpected rows: %v", rs.Strings())
	}
	if err := tbl.Insert([]Value{Int(2), Str("rename")}); err != nil {
		t.Fatal(err)
	}
	rs, _, err = pr.QueryCtx(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() != 1 || rs.Rows[0][0].I != 2 {
		t.Fatalf("cached plan missed a newly interned dictionary value: %v", rs.Strings())
	}
	if !tbl.DictEncoded("op") || tbl.DictEncoded("id") {
		t.Fatal("DictEncoded misreports")
	}
}

// TestDictEncodeRejectsMisuse pins the API contract: int columns and
// non-empty tables cannot be dictionary-encoded.
func TestDictEncodeRejectsMisuse(t *testing.T) {
	tbl := NewTable("t", Schema{{Name: "n", Kind: KindInt}, {Name: "s", Kind: KindString}})
	if err := tbl.DictEncode("n"); err == nil {
		t.Fatal("int column must be rejected")
	}
	if err := tbl.DictEncode("missing"); err == nil {
		t.Fatal("unknown column must be rejected")
	}
	if err := tbl.Insert([]Value{Int(1), Str("x")}); err != nil {
		t.Fatal(err)
	}
	if err := tbl.DictEncode("s"); err == nil {
		t.Fatal("non-empty table must be rejected")
	}
}
