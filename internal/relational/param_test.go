package relational

import (
	"fmt"
	"testing"
)

// paramTestDB builds a table with an indexed id column, an int value
// column (with one NULL), and a name column.
func paramTestDB(t *testing.T, rows int) *DB {
	t.Helper()
	db := NewDB()
	tbl, err := db.CreateTable("items", Schema{
		{Name: "id", Kind: KindInt},
		{Name: "v", Kind: KindInt},
		{Name: "name", Kind: KindString},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= rows; i++ {
		v := Int(int64(i * 10))
		if i == 3 {
			v = Null()
		}
		if err := tbl.Insert([]Value{Int(int64(i)), v, Str(fmt.Sprintf("n%d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.CreateIndex("id"); err != nil {
		t.Fatal(err)
	}
	return db
}

// paramStmt is "SELECT id FROM items WHERE id IN ?list0 AND v >= ?int1".
func paramStmt() *SelectStmt {
	return &SelectStmt{
		Select: []SelectItem{{Expr: ColRef{Qualifier: "i", Column: "id"}}},
		From:   []TableRef{{Table: "items", Alias: "i"}},
		Where: BinOp{Op: "and",
			L: ParamIDs{E: ColRef{Qualifier: "i", Column: "id"}, Slot: 0},
			R: BinOp{Op: ">=", L: ColRef{Qualifier: "i", Column: "v"}, R: Param{Slot: 1}},
		},
	}
}

func idsOf(t *testing.T, rs *ResultSet) []int64 {
	t.Helper()
	var ids []int64
	for _, row := range rs.Rows {
		ids = append(ids, row[0].I)
	}
	return ids
}

// TestPreparedParamRebinding pins the core property of the parameter path:
// one compiled plan answers every binding correctly, including the empty
// list (matches nothing) and NULL cells (members of nothing, ordered
// before every value).
func TestPreparedParamRebinding(t *testing.T) {
	db := paramTestDB(t, 6)
	pr, err := db.Prepare(paramStmt())
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		list []int64
		min  int64
		want []int64
	}{
		{[]int64{1, 2, 4}, 0, []int64{1, 2, 4}},
		{[]int64{1, 2, 4}, 25, []int64{4}},
		{[]int64{2, 3, 5}, 0, []int64{2, 3, 5}}, // v NULL at id 3: NULL >= 0 is false...
		{nil, 0, nil},                           // unbound list matches nothing
		{[]int64{99}, 0, nil},
	}
	// NULL ordering: NULL sorts before every value, so "v >= 0" drops the
	// NULL row; adjust the third case's expectation accordingly.
	cases[2].want = []int64{2, 5}
	for i, c := range cases {
		var p Params
		p.Lists[0] = c.list
		p.Ints[1] = c.min
		rs, _, err := pr.Query(&p)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		got := idsOf(t, rs)
		if len(got) != len(c.want) {
			t.Fatalf("case %d: got %v, want %v", i, got, c.want)
		}
		for j := range got {
			if got[j] != c.want[j] {
				t.Fatalf("case %d: got %v, want %v", i, got, c.want)
			}
		}
	}
}

// TestParamMatchesLiteralPlans asserts the parameter path returns exactly
// what the equivalent literal statement returns, across the index-probe,
// vectorized full-scan, and row-fallback shapes, on every batch-size
// boundary.
func TestParamMatchesLiteralPlans(t *testing.T) {
	origBS := BatchSize
	defer func() { BatchSize = origBS }()
	for _, bs := range []int{1, 3, 1024} {
		BatchSize = bs
		db := paramTestDB(t, 50)
		list := []int64{2, 3, 7, 19, 20, 21, 49}
		const min = 150

		// Parameterized: id list probes the index, v >= binds per call.
		pr, err := db.Prepare(paramStmt())
		if err != nil {
			t.Fatal(err)
		}
		var p Params
		p.Lists[0] = list
		p.Ints[1] = min
		prs, _, err := pr.Query(&p)
		if err != nil {
			t.Fatal(err)
		}

		// Literal equivalent through the parser path.
		lit := "SELECT i.id FROM items i WHERE i.id IN (2, 3, 7, 19, 20, 21, 49) AND i.v >= 150"
		lrs, err := db.Query(lit)
		if err != nil {
			t.Fatal(err)
		}
		got, want := idsOf(t, prs), idsOf(t, lrs)
		if len(got) != len(want) {
			t.Fatalf("batch %d: param %v, literal %v", bs, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("batch %d: param %v, literal %v", bs, got, want)
			}
		}

		// Unindexed variant forces the vectorized scan kernels for both
		// the membership and comparison parameters.
		stmt := paramStmt()
		stmt.Where = BinOp{Op: "and",
			L: ParamIDs{E: ColRef{Qualifier: "i", Column: "v"}, Slot: 0},
			R: BinOp{Op: ">=", L: ColRef{Qualifier: "i", Column: "id"}, R: Param{Slot: 1}},
		}
		pr2, err := db.Prepare(stmt)
		if err != nil {
			t.Fatal(err)
		}
		var p2 Params
		p2.Lists[0] = []int64{20, 70, 200, 490}
		p2.Ints[1] = 3
		rs2, _, err := pr2.Query(&p2)
		if err != nil {
			t.Fatal(err)
		}
		lrs2, err := db.Query("SELECT i.id FROM items i WHERE i.v IN (20, 70, 200, 490) AND i.id >= 3")
		if err != nil {
			t.Fatal(err)
		}
		got2, want2 := idsOf(t, rs2), idsOf(t, lrs2)
		if fmt.Sprint(got2) != fmt.Sprint(want2) {
			t.Fatalf("batch %d unindexed: param %v, literal %v", bs, got2, want2)
		}
	}
}

// TestParamSlotOutOfRange pins that a bad slot fails at compile time, not
// silently at execution.
func TestParamSlotOutOfRange(t *testing.T) {
	db := paramTestDB(t, 3)
	stmt := paramStmt()
	stmt.Where = BinOp{Op: ">=", L: ColRef{Qualifier: "i", Column: "v"}, R: Param{Slot: MaxParamSlots}}
	if _, err := db.Prepare(stmt); err == nil {
		t.Fatal("expected an out-of-range slot to fail Prepare")
	}
}
