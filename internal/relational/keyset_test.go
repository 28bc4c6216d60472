package relational_test

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	. "threatraptor/internal/relational"
	"threatraptor/internal/relational/sqltext"
)

// likeRow is row i of the key-set tables: id i+1 and name "<letter><i/8>"
// with the letter cycling a..h, so each letter keys an eighth of the rows
// and every eight rows add eight new keys.
func likeRow(i int) []Value {
	return []Value{Int(int64(i + 1)), Str(fmt.Sprintf("%c%d", 'a'+i%8, i/8))}
}

// likeTable builds table t(id, name) of n likeRows with name indexed.
func likeTable(tb testing.TB, n int) (*DB, *Table) {
	tb.Helper()
	db := NewDB()
	tbl, err := db.CreateTable("t", Schema{{Name: "id", Kind: KindInt}, {Name: "name", Kind: KindString}})
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := tbl.Insert(likeRow(i)); err != nil {
			tb.Fatal(err)
		}
	}
	if err := tbl.CreateIndex("name"); err != nil {
		tb.Fatal(err)
	}
	return db, tbl
}

// likeIDs is the brute force: the ids of tbl's rows whose name matches
// pattern, in row order.
func likeIDs(tbl *Table, pattern string) []int64 {
	var ids []int64
	for i := 0; i < tbl.Len(); i++ {
		if row := tbl.Row(i); Like(row[1].S, pattern) {
			ids = append(ids, row[0].I)
		}
	}
	return ids
}

// likeQuery runs a prepared "... WHERE name LIKE" statement, on snap when
// it is non-nil, and returns its ids in result order.
func likeQuery(tb testing.TB, pr *Prepared, snap *Snap) ([]int64, ExecStats) {
	tb.Helper()
	rs, st, err := pr.QueryCtx(nil, &Params{Snap: snap})
	if err != nil {
		tb.Fatal(err)
	}
	ids := make([]int64, len(rs.Rows))
	for i, row := range rs.Rows {
		ids[i] = row[0].I
	}
	return ids, st
}

func prepareLike(tb testing.TB, db *DB, pattern string) *Prepared {
	tb.Helper()
	stmt, err := sqltext.Parse("SELECT id FROM t WHERE name LIKE '" + pattern + "'")
	if err != nil {
		tb.Fatal(err)
	}
	pr, err := db.Prepare(stmt)
	if err != nil {
		tb.Fatal(err)
	}
	return pr
}

// TestKeySetProbeSnapshotAndRollback pins an index LIKE probe across a
// snapshot and a rollback: a snapshot pinned before an append never sees
// the appended rows, even under keys the append created, and after
// TruncateRows unwinds the append, its keys match nothing.
func TestKeySetProbeSnapshotAndRollback(t *testing.T) {
	const base, extra = 400, 40
	db, tbl := likeTable(t, base)
	patterns := []string{
		"c%",  // one letter: an eighth of the rows
		"%7",  // suffix, across letters
		"c4_", // '_'
		"d12", // exact: one key
		"%5_", // only keys the append adds (i/8 in 50..54)
		"z%",  // no key
		"%",   // every row: the level scans
	}
	preps := make([]*Prepared, len(patterns))
	for i, pat := range patterns {
		preps[i] = prepareLike(t, db, pat)
		if desc := preps[i].Describe(); !strings.Contains(desc, "index LIKE on name") {
			t.Fatalf("%s: %s", pat, desc)
		}
	}
	var snap Snap
	snap.Capture(db)
	before := make([][]int64, len(patterns))
	for i, pat := range patterns {
		before[i] = likeIDs(tbl, pat)
	}
	for i := base; i < base+extra; i++ {
		if err := tbl.Insert(likeRow(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i, pat := range patterns {
		if got, _ := likeQuery(t, preps[i], &snap); !slices.Equal(got, before[i]) {
			t.Fatalf("%s on the snapshot: %v, want %v", pat, got, before[i])
		}
		got, _ := likeQuery(t, preps[i], nil)
		if want := likeIDs(tbl, pat); !slices.Equal(got, want) {
			t.Fatalf("%s after the append: %v, want %v", pat, got, want)
		}
	}
	if _, st := likeQuery(t, preps[4], nil); st.IndexLookups != extra || st.RowsScanned != extra {
		t.Fatalf("%%5_ after the append: %+v, want %d keys and rows", st, extra)
	}

	tbl.TruncateRows(base)
	for i, pat := range patterns {
		for _, s := range []*Snap{nil, &snap} {
			if got, _ := likeQuery(t, preps[i], s); !slices.Equal(got, before[i]) {
				t.Fatalf("%s after the rollback (snapshot %v): %v, want %v", pat, s != nil, got, before[i])
			}
		}
	}
	if _, st := likeQuery(t, preps[4], nil); st.IndexLookups != 0 || st.RowsScanned != 0 {
		t.Fatalf("%%5_ after the rollback: %+v, want no key and no row", st)
	}
	lists, _, _ := tbl.IndexLists("name")
	for k := range lists {
		if Like(k.S, "%5_") {
			t.Fatalf("rolled-back key %q still indexed", k.S)
		}
	}
}

// TestConcurrentKeySetProbes runs snapshot LIKE probes while the single
// writer adds rows under new keys, publishing a snapshot after each batch
// and rolling back every third batch before it is published. Every probe
// must return exactly its snapshot's matching rows, in row order. Run it
// under the race detector.
func TestConcurrentKeySetProbes(t *testing.T) {
	db, tbl := likeTable(t, 256)
	patterns := []string{"c%", "%3", "e1_", "f20", "%"}
	preps := make([]*Prepared, len(patterns))
	for i, pat := range patterns {
		preps[i] = prepareLike(t, db, pat)
	}
	var pub atomic.Pointer[Snap]
	publish := func() {
		s := new(Snap)
		s.Capture(db)
		pub.Store(s)
	}
	publish()

	var done atomic.Bool
	var queries, lookups atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for n := r; !done.Load(); n++ {
				s := pub.Load()
				i := n % len(patterns)
				rs, st, err := preps[i].QueryCtx(nil, &Params{Snap: s})
				if err != nil {
					errs <- err
					return
				}
				var got []int64
				for _, row := range rs.Rows {
					got = append(got, row[0].I)
				}
				if want := likeIDs(s.Table(tbl), patterns[i]); !slices.Equal(got, want) {
					errs <- fmt.Errorf("%s on a %d-row snapshot: %v, want %v", patterns[i], s.Rows(tbl), got, want)
					return
				}
				queries.Add(1)
				lookups.Add(int64(st.IndexLookups))
			}
		}(r)
	}
	next := tbl.Len()
	// At least 60 batches, and on until the readers have probed 300 times
	// (bounded, so a stalled reader cannot grow the table forever).
	for batch := 0; batch < 60 || queries.Load() < 300 && batch < 600; batch++ {
		mark := tbl.Len()
		for j := 0; j < 16; j++ {
			if err := tbl.Insert(likeRow(next + j)); err != nil {
				t.Fatal(err)
			}
		}
		if batch%3 == 2 {
			tbl.TruncateRows(mark) // unpublished: no snapshot covers it
			continue
		}
		next += 16
		publish()
	}
	done.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if lookups.Load() == 0 {
		t.Fatal("no probe used the index")
	}
}
