package relational_test

import (
	"fmt"
	"testing"

	. "threatraptor/internal/relational"
	"threatraptor/internal/relational/sqltext"
)

// batchTestTable builds a deterministic single table of n rows with an int
// key, cyclic strings, an int payload, and a string column that is NULL on
// every third row — enough shape to exercise every vectorized kernel plus
// the null paths.
func batchTestTable(t *testing.T, n int) *DB {
	t.Helper()
	db := NewDB()
	tbl, err := db.CreateTable("t", Schema{
		{Name: "id", Kind: KindInt},
		{Name: "name", Kind: KindString},
		{Name: "size", Kind: KindInt},
		{Name: "note", Kind: KindString},
	})
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"/bin/tar", "/bin/cp", "/tmp/x", "/etc/passwd", "/tmp/upload.tar"}
	rows := make([][]Value, n)
	for i := 0; i < n; i++ {
		note := Value(Str(fmt.Sprintf("note%d", i%7)))
		if i%3 == 0 {
			note = Null()
		}
		rows[i] = []Value{Int(int64(i)), Str(names[i%len(names)]), Int(int64(i % 97)), note}
	}
	if err := tbl.InsertBatch(rows); err != nil {
		t.Fatal(err)
	}
	return db
}

// oracleSelectIDs evaluates "SELECT id FROM t WHERE <pred>" by brute
// force: EvalExpr over every materialized row, independent of the
// planner, kernels and batching. It errors when EvalExpr does.
func oracleSelectIDs(db *DB, sql string) ([]string, error) {
	stmt, err := sqltext.Parse(sql)
	if err != nil {
		return nil, err
	}
	tbl := db.Table("t")
	var out []string
	for i := 0; i < tbl.Len(); i++ {
		row := tbl.Row(i)
		resolve := func(c ColRef) (Value, error) {
			col := tbl.Schema.IndexOf(c.Column)
			if col < 0 {
				return Null(), fmt.Errorf("no column %q", c.Column)
			}
			return row[col], nil
		}
		if stmt.Where != nil {
			v, err := EvalExpr(stmt.Where, resolve)
			if err != nil {
				return nil, err
			}
			if !v.Truthy() {
				continue
			}
		}
		out = append(out, row[0].String())
	}
	return out, nil
}

// TestBatchBoundaryRowCounts runs the vectorized executor on tables whose
// row counts sit on every batch boundary — 0, 1, one batch, batch±1, and
// many batches — and cross-checks each against the brute-force oracle.
// The predicates cover the batch kernels (typed comparisons, LIKE, IN,
// NULL ordering, the AND/OR/NOT combinators) and the EvalExpr fallback
// (arithmetic).
func TestBatchBoundaryRowCounts(t *testing.T) {
	origBS := BatchSize
	BatchSize = 64
	defer func() { BatchSize = origBS }()

	preds := []string{
		"id >= 0",                                    // keep everything
		"name = '/bin/tar'",                          // string eq kernel
		"name <> '/bin/cp'",                          // string ne kernel
		"size < 40",                                  // int lt kernel
		"size >= 90",                                 // int ge kernel
		"name LIKE '%tar%'",                          // LIKE kernel
		"name LIKE '/tmp%'",                          // prefix LIKE kernel
		"id IN (0, 1, 63, 64, 65, 128, 209)",         // int IN kernel
		"name NOT IN ('/bin/tar', '/tmp/x')",         // negated string IN kernel
		"note = 'note1'",                             // eq over a nullable column
		"note <= 'note3'",                            // NULL-keeping ordering kernel
		"size + 1 < 20",                              // arithmetic: EvalExpr predicate
		"size < 30 OR name = '/etc/passwd'",          // OR combinator
		"NOT name = '/bin/cp' AND size > 3",          // NOT combinator and a kernel
		"NOT (note <= 'note3' OR size < 10)",         // NOT over OR over a nullable column
		"size + 1 < 20 OR name LIKE '%tar%'",         // OR with an EvalExpr child: EvalExpr
		"name LIKE '%tar%' AND size < 50 AND id > 2", // kernel chain
	}
	for _, n := range []int{0, 1, 63, 64, 65, 3*64 + 17} {
		db := batchTestTable(t, n)
		for _, pred := range preds {
			sql := "SELECT id FROM t WHERE " + pred
			rs, _, err := sqltext.Query(db, sql)
			if err != nil {
				t.Fatalf("n=%d: %v\n%s", n, err, sql)
			}
			want, err := oracleSelectIDs(db, sql)
			if err != nil {
				t.Fatalf("n=%d oracle: %v\n%s", n, err, sql)
			}
			got := rs.Strings()
			if len(got) != len(want) {
				t.Fatalf("n=%d: %d rows, oracle %d\n%s", n, len(got), len(want), sql)
			}
			for i := range got {
				if got[i][0] != want[i] {
					t.Fatalf("n=%d row %d: %s vs oracle %s\n%s", n, i, got[i][0], want[i], sql)
				}
			}
		}
	}
}

// TestBatchDistinctAndScanOrder checks the streaming DISTINCT sink and
// the scan's row order across batch boundaries: first-seen order must
// match the materialize-then-dedup seed semantics, and rows come in table
// order.
func TestBatchDistinctAndScanOrder(t *testing.T) {
	origBS := BatchSize
	BatchSize = 64
	defer func() { BatchSize = origBS }()

	db := batchTestTable(t, 3*64+17)
	rs, _, err := sqltext.Query(db, "SELECT DISTINCT name FROM t WHERE size < 90")
	if err != nil {
		t.Fatal(err)
	}
	// 5 cyclic names, first-seen order is insertion order.
	want := []string{"/bin/tar", "/bin/cp", "/tmp/x", "/etc/passwd", "/tmp/upload.tar"}
	if rs.Len() != len(want) {
		t.Fatalf("distinct rows = %d, want %d", rs.Len(), len(want))
	}
	for i, w := range want {
		if rs.Rows[i][0].S != w {
			t.Fatalf("distinct row %d = %s, want %s", i, rs.Rows[i][0].S, w)
		}
	}

	rs, _, err = sqltext.Query(db, "SELECT id FROM t WHERE size >= 0")
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() != 3*64+17 {
		t.Fatalf("scan rows = %d", rs.Len())
	}
	for i := range rs.Rows {
		if rs.Rows[i][0].I != int64(i) {
			t.Fatalf("scan row %d = %d (scan order broken)", i, rs.Rows[i][0].I)
		}
	}
}

// TestCrossLevelVecJoin exercises the outer-column kernels: an unindexed
// join evaluates "r.k = l.k" as a vectorized scan of r per l row, and must
// match the indexed probe plan exactly.
func TestCrossLevelVecJoin(t *testing.T) {
	origBS := BatchSize
	BatchSize = 16
	defer func() { BatchSize = origBS }()

	build := func(indexed bool) *DB {
		db := NewDB()
		l, _ := db.CreateTable("l", Schema{{Name: "id", Kind: KindInt}, {Name: "k", Kind: KindInt}})
		r, _ := db.CreateTable("r", Schema{{Name: "k", Kind: KindInt}, {Name: "v", Kind: KindString}})
		for i := 0; i < 40; i++ {
			l.Insert([]Value{Int(int64(i)), Int(int64(i % 7))})
		}
		for i := 0; i < 90; i++ {
			kv := Value(Int(int64(i % 9)))
			if i%11 == 0 {
				kv = Null()
			}
			r.Insert([]Value{kv, Str(fmt.Sprintf("v%d", i))})
		}
		if indexed {
			if err := r.CreateIndex("k"); err != nil {
				t.Fatal(err)
			}
		}
		return db
	}
	sql := "SELECT l.id, r.v FROM l, r WHERE r.k = l.k"
	a, _, err := sqltext.Query(build(false), sql)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := sqltext.Query(build(true), sql)
	if err != nil {
		t.Fatal(err)
	}
	as, bs := sortedRows(a), sortedRows(b)
	if len(as) != len(bs) || len(as) == 0 {
		t.Fatalf("scan join %d rows, index join %d rows", len(as), len(bs))
	}
	for i := range as {
		if as[i][0] != bs[i][0] || as[i][1] != bs[i][1] {
			t.Fatalf("row %d differs: %v vs %v", i, as[i], bs[i])
		}
	}
}
