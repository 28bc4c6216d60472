package relational_test

import (
	"fmt"
	"math/rand"
	"testing"

	. "threatraptor/internal/relational"
	"threatraptor/internal/relational/sqltext"
)

// oracleNames are the string values of the oracle table's name, note and
// op columns (note and op also hold NULLs).
var oracleNames = []string{"/bin/tar", "/bin/cp", "/usr/bin/vim", "/tmp/x", "/tmp/y", "/etc/passwd", "42", "read", "write"}

// oracleRows is the oracle table's row count, and oracleBulkRows how many
// of them a bulk-indexed table holds when its indexes are built.
const oracleRows, oracleBulkRows = 1000, 100

// oracleTable builds table t for the differential checks: id (1..n, one
// per row), name, a nullable int size (0..99), a nullable string note,
// and a nullable dict-encoded op. index picks how the hash indexes on id,
// size, name and op are built, so the checks cover every builder shape as
// well as scans:
//   - "": no indexes;
//   - "bulk": built over the first oracleBulkRows rows — id is addressed
//     densely, size (which holds 0) and the string columns hash — then
//     the remaining rows are appended, their ids past the dense range
//     (genWhere's int literals probe both sides of it);
//   - "add": built on the empty table, so hashIndex.add indexes every row.
func oracleTable(tb testing.TB, index string) *DB {
	tb.Helper()
	db := NewDB()
	tbl, err := db.CreateTable("t", Schema{
		{Name: "id", Kind: KindInt},
		{Name: "name", Kind: KindString},
		{Name: "size", Kind: KindInt},
		{Name: "note", Kind: KindString},
		{Name: "op", Kind: KindString},
	})
	if err != nil {
		tb.Fatal(err)
	}
	if err := tbl.DictEncode("op"); err != nil {
		tb.Fatal(err)
	}
	indexAll := func() {
		for _, col := range []string{"id", "size", "name", "op"} {
			if err := tbl.CreateIndex(col); err != nil {
				tb.Fatal(err)
			}
		}
	}
	if index == "add" {
		indexAll()
	}
	r := rand.New(rand.NewSource(5))
	pick := func(nullEvery int) Value {
		if r.Intn(nullEvery) == 0 {
			return Null()
		}
		return Str(oracleNames[r.Intn(len(oracleNames))])
	}
	for i := 1; i <= oracleRows; i++ {
		size := Int(int64(r.Intn(100)))
		switch {
		case i == 1:
			size = Int(0) // a key outside [1, K]: the bulk size index hashes
		case r.Intn(9) == 0:
			size = Null()
		}
		if err := tbl.Insert([]Value{Int(int64(i)), pick(1 << 30), size, pick(4), pick(7)}); err != nil {
			tb.Fatal(err)
		}
		if index == "bulk" && i == oracleBulkRows {
			indexAll()
		}
	}
	wantDense := map[string]int{"bulk": oracleBulkRows + 1, "add": 0}
	if want, ok := wantDense[index]; ok {
		for col, dense := range map[string]int{"id": want, "size": 0, "name": 0, "op": 0} {
			if _, got, _ := tbl.IndexLists(col); got != dense {
				tb.Fatalf("%s index on %s addresses %d dense slots, want %d", index, col, got, dense)
			}
		}
	}
	return db
}

// genWhere generates a random WHERE predicate over oracleTable's columns,
// drawing every choice from intn (a seeded rand in the tests, the fuzz
// input in FuzzWhereMatchesEvalExpr). The leaves cover every kernel shape
// — typed comparisons with the literal on either side, LIKE, IN and NOT
// IN, over plain, nullable and dict-encoded columns — and the shapes only
// EvalExpr evaluates: same-level column pairs, cross-kind literals (equal
// with numeric-string leniency, ordered with an error) and arithmetic.
// Inner nodes nest AND, OR and NOT.
func genWhere(intn func(int) int, depth int) string {
	name := func() string { return oracleNames[intn(len(oracleNames))] }
	strCol := func() string { return []string{"name", "note", "op"}[intn(3)] }
	intCol := func() string { return []string{"id", "size"}[intn(2)] }
	cmp := func() string { return []string{"=", "<>", "<", "<=", ">", ">="}[intn(6)] }
	if depth == 0 || intn(3) == 0 {
		switch intn(14) {
		case 0:
			return fmt.Sprintf("%s %s %d", intCol(), cmp(), intn(110))
		case 1:
			return fmt.Sprintf("%d %s %s", intn(110), cmp(), intCol())
		case 2:
			return fmt.Sprintf("%s %s '%s'", strCol(), cmp(), name())
		case 3:
			// Every pattern shape an index LIKE probe resolves: contains,
			// prefix, suffix, '_', '%' alone, exact (no wildcard), and
			// keys no row holds.
			return fmt.Sprintf("%s LIKE '%s'", strCol(), []string{"%bin%", "/tmp%", "%tar", "%e%", "re_d", "%", "/etc/passwd", "/no/such", "%zzz%"}[intn(9)])
		case 4:
			return fmt.Sprintf("%s NOT LIKE '%%%s%%'", strCol(), []string{"bin", "tmp", "r", "x"}[intn(4)])
		case 5:
			return fmt.Sprintf("%s IN (%d, %d, %d)", intCol(), intn(110), intn(110), intn(110))
		case 6:
			return fmt.Sprintf("%s NOT IN ('%s', '%s')", strCol(), name(), name())
		case 7:
			return fmt.Sprintf("%s IN ('%s', '%s')", strCol(), name(), name())
		case 8: // same-level column pairs
			if intn(2) == 0 {
				return fmt.Sprintf("size %s id", cmp())
			}
			return fmt.Sprintf("%s %s %s", strCol(), cmp(), strCol())
		case 9: // cross-kind equality: numeric-string leniency
			return fmt.Sprintf("%s %s %d", strCol(), []string{"=", "<>"}[intn(2)], 40+intn(4))
		case 10: // cross-kind membership
			return fmt.Sprintf("%s IN (42, '%s')", []string{"name", "size"}[intn(2)], name())
		case 11: // arithmetic
			return fmt.Sprintf("%s %s %d %s %d", intCol(), []string{"+", "-"}[intn(2)], intn(20), cmp(), intn(120))
		case 12: // ordered cross-kind comparison: an error on any non-NULL row it reaches
			if intn(4) == 0 {
				return fmt.Sprintf("note %s %d", []string{"<", ">="}[intn(2)], intn(50))
			}
			return fmt.Sprintf("size IN (%d, '%d')", intn(100), intn(100))
		default:
			return fmt.Sprintf("NOT %s = '%s'", strCol(), name())
		}
	}
	switch intn(4) {
	case 0:
		return "NOT (" + genWhere(intn, depth-1) + ")"
	case 1:
		return fmt.Sprintf("(%s OR %s)", genWhere(intn, depth-1), genWhere(intn, depth-1))
	default:
		return fmt.Sprintf("(%s AND %s)", genWhere(intn, depth-1), genWhere(intn, depth-1))
	}
}

// checkWhereAgainstOracle runs "SELECT id FROM t WHERE pred" on the plain
// and the indexed oracle tables and demands EvalExpr's brute-force rows;
// on every table the statement with its literals turned into value slots
// (slotLits) must answer as the literal statement does.
// The plain table scans every row in conjunct order, as the brute force
// does, so it must error exactly when the brute force errors. An index
// probe visits only the rows its key selects, so an indexed table may
// still answer a predicate that errors on a row the probe skips (as in
// SQL engines generally); it must never error when the brute force does
// not. Every table must return the plain table's scan order, which is
// row order (the brute force's, and id order here), because every index
// probe feeds its level in ascending row order.
func checkWhereAgainstOracle(t *testing.T, plain *DB, pred string, indexed ...*DB) {
	t.Helper()
	checkSQLAgainstOracle(t, "SELECT id FROM t WHERE "+pred, plain, indexed...)
}

func checkSQLAgainstOracle(t *testing.T, sql string, plain *DB, indexed ...*DB) {
	t.Helper()
	want, werr := oracleSelectIDs(plain, sql)
	for _, db := range append([]*DB{plain}, indexed...) {
		rs, _, err := sqltext.Query(db, sql)
		checkSlottedMatches(t, db, sql, rs, err)
		switch {
		case err != nil && werr == nil:
			t.Fatalf("executor error %v, brute force none\n%s", err, sql)
		case err == nil && werr != nil && db == plain:
			t.Fatalf("scan answered, brute force error %v\n%s", werr, sql)
		case err != nil || werr != nil:
			continue
		}
		got := rs.Strings()
		if len(got) != len(want) {
			t.Fatalf("%d rows, brute force %d\n%s", len(got), len(want), sql)
		}
		for i := range got {
			if got[i][0] != want[i] {
				t.Fatalf("row %d: %s vs brute force %s\n%s", i, got[i][0], want[i], sql)
			}
		}
	}
}

// withSmallBatches runs fn with BatchSize 64, so the oracle tables span
// many batches. The subtest keeps the name of the serial leg from when a
// goroutine-sharded scan ran beside it (shardmin=2^30: never shard), so
// the leg's results stay comparable across versions.
func withSmallBatches(t *testing.T, fn func(t *testing.T)) {
	defer func(bs int) { BatchSize = bs }(BatchSize)
	BatchSize = 64
	t.Run("shardmin=1073741824", fn)
}

// TestExecutorAgainstOracle cross-checks the planner/executor — predicate
// pushdown, index probes, batch kernels and their AND/OR/NOT combinators,
// the EvalExpr fallback and batching — against EvalExpr's
// brute force on randomly generated single-table predicates, without
// indexes and with bulk-built and incrementally built ones.
func TestExecutorAgainstOracle(t *testing.T) {
	plain, bulk, added := oracleTable(t, ""), oracleTable(t, "bulk"), oracleTable(t, "add")
	withSmallBatches(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(23))
		for i := 0; i < 400; i++ {
			checkWhereAgainstOracle(t, plain, genWhere(rng.Intn, 3), bulk, added)
		}
	})
}

// FuzzWhereMatchesEvalExpr is TestExecutorAgainstOracle with the
// generator's choices drawn from the fuzz input.
func FuzzWhereMatchesEvalExpr(f *testing.F) {
	for _, seed := range []string{"", "\x00", "\x01\x02\x03\x04\x05", "\x03\x01\x00\x07\x02\x05\x01\x0c\x03", "\xff\x10\x20\x30\x40\x50\x60"} {
		f.Add([]byte(seed))
	}
	plain, bulk, added := oracleTable(f, ""), oracleTable(f, "bulk"), oracleTable(f, "add")
	f.Fuzz(func(t *testing.T, in []byte) {
		intn := func(n int) int {
			if len(in) == 0 {
				return 0
			}
			c := int(in[0])
			in = in[1:]
			return c % n
		}
		pred := genWhere(intn, 4)
		withSmallBatches(t, func(t *testing.T) {
			checkWhereAgainstOracle(t, plain, pred, bulk, added)
		})
	})
}

// TestJoinAgainstOracle cross-checks a two-table join against nested-loop
// brute force computed in the test.
func TestJoinAgainstOracle(t *testing.T) {
	db := NewDB()
	left, _ := db.CreateTable("l", Schema{{Name: "id", Kind: KindInt}, {Name: "k", Kind: KindInt}})
	right, _ := db.CreateTable("r", Schema{{Name: "k", Kind: KindInt}, {Name: "v", Kind: KindString}})
	rng := rand.New(rand.NewSource(99))
	type lrow struct{ id, k int64 }
	type rrow struct {
		k int64
		v string
	}
	var ls []lrow
	var rs []rrow
	for i := 0; i < 80; i++ {
		lr := lrow{int64(i), int64(rng.Intn(10))}
		ls = append(ls, lr)
		left.Insert([]Value{Int(lr.id), Int(lr.k)})
	}
	for i := 0; i < 40; i++ {
		rr := rrow{int64(rng.Intn(10)), fmt.Sprintf("v%d", rng.Intn(5))}
		rs = append(rs, rr)
		right.Insert([]Value{Int(rr.k), Str(rr.v)})
	}
	if err := right.CreateIndex("k"); err != nil {
		t.Fatal(err)
	}

	got, _, err := sqltext.Query(db, "SELECT l.id, r.v FROM l, r WHERE l.k = r.k AND l.id < 40")
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, lr := range ls {
		if lr.id >= 40 {
			continue
		}
		for _, rr := range rs {
			if lr.k == rr.k {
				want++
			}
		}
	}
	if got.Len() != want {
		t.Fatalf("join rows = %d, oracle = %d", got.Len(), want)
	}
}
