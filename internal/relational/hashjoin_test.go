package relational_test

import (
	"fmt"
	"reflect"
	"testing"

	. "threatraptor/internal/relational"
	"threatraptor/internal/relational/sqltext"
)

// newJoinDB builds a driver table and a deliberately index-free inner
// table, so a join's only access paths are the per-binding full scan and
// the adaptive hash-join fallback. Join-key values collide (many rows per
// key) and both sides carry NULLs in every join column.
func newJoinDB(t *testing.T, outer, inner int) *DB {
	t.Helper()
	db := NewDB()
	drv, err := db.CreateTable("drivers", Schema{
		{"id", KindInt}, {"key", KindInt}, {"skey", KindString}, {"numstr", KindString},
	})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := db.CreateTable("rows", Schema{
		{"id", KindInt}, {"key", KindInt}, {"skey", KindString},
		{"dkey", KindString}, {"flag", KindInt},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rows.DictEncode("dkey"); err != nil {
		t.Fatal(err)
	}
	key := func(i int) int64 { return int64(i % 50) }
	for i := 0; i < outer; i++ {
		r := []Value{Int(int64(i)), Int(key(i)), Str(fmt.Sprintf("k%02d", key(i))), Str(fmt.Sprintf("%d", key(i)))}
		if i%17 == 0 {
			r[1], r[2] = Null(), Null()
		}
		if err := drv.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < inner; i++ {
		r := []Value{Int(int64(i)), Int(key(i)), Str(fmt.Sprintf("k%02d", key(i))),
			Str(fmt.Sprintf("k%02d", key(i))), Int(int64(i % 2))}
		if i%13 == 0 {
			r[1], r[2], r[3] = Null(), Null(), Null()
		}
		if err := rows.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := drv.CreateIndex("id"); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestHashJoinEquivalence pins the fallback's contract: with the
// thresholds forced low the hash path engages (HashJoinBuilds > 0) and
// returns row-for-row — including row order — exactly what the serial
// nested-loop scan returns, across int, plain-string, and dict-encoded
// join columns, NULL keys on both sides, extra level predicates, both
// conjunct orientations, and DISTINCT projection.
func TestHashJoinEquivalence(t *testing.T) {
	origRows, origProbes := HashJoinMinRows, HashJoinMinProbes
	defer func() { HashJoinMinRows, HashJoinMinProbes = origRows, origProbes }()

	db := newJoinDB(t, 60, 400)
	queries := []string{
		`SELECT d.id, r.id FROM drivers d, rows r WHERE r.key = d.key AND r.flag = 1`,
		`SELECT d.id, r.id FROM drivers d, rows r WHERE r.skey = d.skey`,
		`SELECT d.id, r.id FROM drivers d, rows r WHERE r.dkey = d.skey`,
		`SELECT d.id, r.id FROM drivers d, rows r WHERE d.key = r.key AND r.id < 300`,
		`SELECT DISTINCT r.skey FROM drivers d, rows r WHERE r.skey = d.skey`,
	}

	// Baseline: thresholds high enough that the fallback never trips.
	HashJoinMinRows, HashJoinMinProbes = 1<<30, 1<<30
	want := make([]*ResultSet, len(queries))
	for i, q := range queries {
		rs, st, err := sqltext.Query(db, q)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if st.HashJoinBuilds != 0 {
			t.Fatalf("query %d: hash join engaged under max thresholds", i)
		}
		if rs.Len() == 0 {
			t.Fatalf("query %d returned no rows; equivalence check would be vacuous", i)
		}
		want[i] = rs
	}

	// Forced: engage on the first outer binding.
	HashJoinMinRows, HashJoinMinProbes = 1, 1
	for i, q := range queries {
		rs, st, err := sqltext.Query(db, q)
		if err != nil {
			t.Fatalf("query %d (forced): %v", i, err)
		}
		if st.HashJoinBuilds == 0 {
			t.Errorf("query %d: hash join never engaged under min thresholds", i)
		}
		if !reflect.DeepEqual(rs.Rows, want[i].Rows) {
			t.Errorf("query %d: hash-join rows diverged from scan rows\ngot  %v\nwant %v",
				i, rs.Strings(), want[i].Strings())
		}
	}

	// Mixed-kind key: the column is int but the key expression yields a
	// numeric string. The generic evaluator's equality treats "7" = 7 as a
	// match, a leniency the typed hash table cannot reproduce, so every
	// probe must fall back to the scan — same rows either way.
	mixed := `SELECT d.id, r.id FROM drivers d, rows r WHERE r.key = d.numstr`
	HashJoinMinRows, HashJoinMinProbes = 1<<30, 1<<30
	wantMixed, _, err := sqltext.Query(db, mixed)
	if err != nil {
		t.Fatal(err)
	}
	if wantMixed.Len() == 0 {
		t.Fatal("mixed-kind query returned no rows; leniency check would be vacuous")
	}
	HashJoinMinRows, HashJoinMinProbes = 1, 1
	gotMixed, st, err := sqltext.Query(db, mixed)
	if err != nil {
		t.Fatal(err)
	}
	if st.IndexLookups != 0 {
		t.Errorf("mixed-kind probes should fall back to the scan, got %d lookups", st.IndexLookups)
	}
	if !reflect.DeepEqual(gotMixed.Rows, wantMixed.Rows) {
		t.Errorf("mixed-kind rows diverged\ngot  %v\nwant %v", gotMixed.Strings(), wantMixed.Strings())
	}
}

// TestHashJoinDeltaFloorSuppression pins the interaction with delta
// evaluation: when a parameterized scan floor narrows the level to a
// fresh suffix, hashing the full history would cost more than the
// remaining scans, so the build must not trigger.
func TestHashJoinDeltaFloorSuppression(t *testing.T) {
	origRows, origProbes := HashJoinMinRows, HashJoinMinProbes
	defer func() { HashJoinMinRows, HashJoinMinProbes = origRows, origProbes }()
	HashJoinMinRows, HashJoinMinProbes = 1, 1

	db := newJoinDB(t, 60, 400)
	// "SELECT d.id, r.id FROM drivers d, rows r
	//  WHERE r.key = d.key AND r.id >= ?int1" — the parameterized floor
	// shape the TBQL delta path compiles.
	stmt := &SelectStmt{
		Select: []SelectItem{
			{Expr: ColRef{Qualifier: "d", Column: "id"}},
			{Expr: ColRef{Qualifier: "r", Column: "id"}},
		},
		From: []TableRef{{Table: "drivers", Alias: "d"}, {Table: "rows", Alias: "r"}},
		Where: BinOp{Op: "and",
			L: BinOp{Op: "=", L: ColRef{Qualifier: "r", Column: "key"}, R: ColRef{Qualifier: "d", Column: "key"}},
			R: BinOp{Op: ">=", L: ColRef{Qualifier: "r", Column: "id"}, R: Param{Slot: 1}},
		},
	}
	prep, err := db.Prepare(stmt)
	if err != nil {
		t.Fatal(err)
	}

	// Floor active at a deep suffix: the hash build stays off.
	var p Params
	p.Ints[1] = 390
	_, st, err := prep.QueryCtx(nil, &p)
	if err != nil {
		t.Fatal(err)
	}
	if st.HashJoinBuilds != 0 {
		t.Errorf("build triggered despite an active delta floor (builds=%d)", st.HashJoinBuilds)
	}
	// Floor at zero scans everything: the build engages and the rows match
	// the serial scan of the same statement.
	p.Ints[1] = 0
	rs, st, err := prep.QueryCtx(nil, &p)
	if err != nil {
		t.Fatal(err)
	}
	if st.HashJoinBuilds == 0 {
		t.Error("build suppressed with no active floor")
	}
	HashJoinMinRows, HashJoinMinProbes = 1<<30, 1<<30
	want, _, err := prep.QueryCtx(nil, &p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rs.Rows, want.Rows) {
		t.Errorf("floored hash-join rows diverged from scan rows")
	}
}
