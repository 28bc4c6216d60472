package relational_test

import (
	"fmt"
	"testing"

	. "threatraptor/internal/relational"
)

// floorStmt is "SELECT id FROM items WHERE id >= ?int1" with a prunable
// parameter floor.
func floorStmt() *SelectStmt {
	return &SelectStmt{
		Select: []SelectItem{{Expr: ColRef{Qualifier: "i", Column: "id"}}},
		From:   []TableRef{{Table: "items", Alias: "i"}},
		Where:  BinOp{Op: ">=", L: ColRef{Qualifier: "i", Column: "id"}, R: Param{Slot: 1, Prune: true}},
	}
}

// TestScanFloorMatchesFullScan pins the scan-floor optimization's safety
// property: a floored scan over an ascending column returns exactly what
// the full scan + filter returns, on every batch-size boundary, and the
// executor reports the narrowed scan in its stats.
func TestScanFloorMatchesFullScan(t *testing.T) {
	origBS := BatchSize
	defer func() { BatchSize = origBS }()
	for _, bs := range []int{1, 3, 1024} {
		BatchSize = bs
		db := paramTestDB(t, 50) // ids 1..50 ascending, no index needed
		pr, err := db.Prepare(floorStmt())
		if err != nil {
			t.Fatal(err)
		}
		for _, floor := range []int64{0, 1, 25, 50, 51} {
			var p Params
			p.Ints[1] = floor
			rs, stats, err := pr.QueryCtx(nil, &p)
			if err != nil {
				t.Fatal(err)
			}
			want := 0
			for id := int64(1); id <= 50; id++ {
				if floor == 0 || id >= floor {
					want++
				}
			}
			if rs.Len() != want {
				t.Fatalf("bs=%d floor=%d: %d rows, want %d", bs, floor, rs.Len(), want)
			}
			// An active floor over the sorted id column must narrow the
			// scan: rows visited == rows returned (plus nothing).
			if floor > 1 && stats.RowsScanned != want {
				t.Fatalf("bs=%d floor=%d: scanned %d rows, want the %d in-range rows only",
					bs, floor, stats.RowsScanned, want)
			}
		}
	}
}

// TestScanFloorUnsortedFallsBack pins that an out-of-order append disables
// the binary-searched start (correctness keeps coming from the filter).
func TestScanFloorUnsortedFallsBack(t *testing.T) {
	db := paramTestDB(t, 10)
	tbl := db.Table("items")
	// Append an out-of-order id: the column is no longer ascending.
	if err := tbl.Insert([]Value{Int(5), Int(990), Str("late")}); err != nil {
		t.Fatal(err)
	}
	pr, err := db.Prepare(floorStmt())
	if err != nil {
		t.Fatal(err)
	}
	var p Params
	p.Ints[1] = 7
	rs, stats, err := pr.QueryCtx(nil, &p)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() != 4 { // 7, 8, 9, 10 (the late 5 is below the floor)
		t.Fatalf("rows = %d, want 4", rs.Len())
	}
	if stats.RowsScanned != 11 {
		t.Fatalf("unsorted column must full-scan: scanned %d of 11", stats.RowsScanned)
	}
}

// TestOptionalParamIDs pins the Optional semantics: an unbound list
// constrains nothing (where a non-optional unbound list matches nothing),
// and the planned index access falls back to the level's other choice.
func TestOptionalParamIDs(t *testing.T) {
	db := paramTestDB(t, 20)
	stmt := &SelectStmt{
		Select: []SelectItem{{Expr: ColRef{Qualifier: "i", Column: "id"}}},
		From:   []TableRef{{Table: "items", Alias: "i"}},
		Where:  ParamIDs{E: ColRef{Qualifier: "i", Column: "id"}, Slot: 0, Optional: true},
	}
	pr, err := db.Prepare(stmt)
	if err != nil {
		t.Fatal(err)
	}
	// Unbound: every row.
	rs, _, err := pr.QueryCtx(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() != 20 {
		t.Fatalf("unbound optional list: %d rows, want all 20", rs.Len())
	}
	// Bound: the listed rows, served by the index multi-probe.
	var p Params
	p.Lists[0] = []int64{3, 11, 19}
	rs, stats, err := pr.QueryCtx(nil, &p)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(idsOf(t, rs)); got != "[3 11 19]" {
		t.Fatalf("bound optional list: %s", got)
	}
	if stats.IndexLookups != 3 {
		t.Fatalf("bound list should multi-probe the id index: %d lookups", stats.IndexLookups)
	}
}

// TestPrunedParamFloor pins that a zero-bound Prune parameter deactivates
// its conjunct — rows that would fail "v >= 0" only because v is NULL
// still appear, exactly as if the statement had no floor at all.
func TestPrunedParamFloor(t *testing.T) {
	db := paramTestDB(t, 6) // v is NULL at id 3
	stmt := &SelectStmt{
		Select: []SelectItem{{Expr: ColRef{Qualifier: "i", Column: "id"}}},
		From:   []TableRef{{Table: "items", Alias: "i"}},
		Where:  BinOp{Op: ">=", L: ColRef{Qualifier: "i", Column: "v"}, R: Param{Slot: 1, Prune: true}},
	}
	pr, err := db.Prepare(stmt)
	if err != nil {
		t.Fatal(err)
	}
	rs, _, err := pr.QueryCtx(nil, nil) // floor unbound -> conjunct pruned
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() != 6 {
		t.Fatalf("pruned floor must admit every row (NULLs included): %d of 6", rs.Len())
	}
	var p Params
	p.Ints[1] = 25
	rs, _, err = pr.QueryCtx(nil, &p) // bound -> v >= 25 (drops NULL and v=10,20)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() != 3 {
		t.Fatalf("bound floor: %d rows, want 3", rs.Len())
	}
}
