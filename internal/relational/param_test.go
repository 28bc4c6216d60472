package relational_test

import (
	"fmt"
	"testing"

	. "threatraptor/internal/relational"
	"threatraptor/internal/relational/sqltext"
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
		rs, _, err := pr.QueryCtx(nil, &p)
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
// vectorized full-scan, and row-fallback shapes, for the integer and list
// slots and for value slots (checkValueSlotGroups), on every batch-size
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
		prs, _, err := pr.QueryCtx(nil, &p)
		if err != nil {
			t.Fatal(err)
		}

		// Literal equivalent through the parser path.
		lit := "SELECT i.id FROM items i WHERE i.id IN (2, 3, 7, 19, 20, 21, 49) AND i.v >= 150"
		lrs, _, err := sqltext.Query(db, lit)
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
		rs2, _, err := pr2.QueryCtx(nil, &p2)
		if err != nil {
			t.Fatal(err)
		}
		lrs2, _, err := sqltext.Query(db, "SELECT i.id FROM items i WHERE i.v IN (20, 70, 200, 490) AND i.id >= 3")
		if err != nil {
			t.Fatal(err)
		}
		got2, want2 := idsOf(t, rs2), idsOf(t, lrs2)
		if fmt.Sprint(got2) != fmt.Sprint(want2) {
			t.Fatalf("batch %d unindexed: param %v, literal %v", bs, got2, want2)
		}

		// Value slots: string and int literals of every kernel, LIKE and
		// IN shape bound per execution.
		checkValueSlotGroups(t)
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

// slotLits returns e with every literal replaced by a value slot of its
// kind, the literals appended to vals in slot order.
func slotLits(e Expr, vals *[]Value) Expr {
	switch v := e.(type) {
	case Lit:
		*vals = append(*vals, v.V)
		return ValParam{Slot: len(*vals) - 1, Kind: v.V.K}
	case BinOp:
		l := slotLits(v.L, vals)
		return BinOp{Op: v.Op, L: l, R: slotLits(v.R, vals)}
	case UnOp:
		return UnOp{Op: v.Op, E: slotLits(v.E, vals)}
	case InList:
		x := slotLits(v.E, vals)
		out := make([]Expr, len(v.Vals))
		for i, ve := range v.Vals {
			out[i] = slotLits(ve, vals)
		}
		return InList{E: x, Vals: out, Negate: v.Negate}
	}
	return e
}

// slotted parses sql and returns the statement with its WHERE literals
// turned into value slots, and the literal vector.
func slotted(t *testing.T, sql string) (*SelectStmt, []Value) {
	t.Helper()
	stmt, err := sqltext.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	var vals []Value
	if stmt.Where != nil {
		stmt.Where = slotLits(stmt.Where, &vals)
	}
	return stmt, vals
}

// checkSlottedMatches runs sql with its literals bound as value slots
// and demands the literal statement's outcome: its rows in its order, or
// an error exactly when it errored.
func checkSlottedMatches(t *testing.T, db *DB, sql string, want *ResultSet, werr error) {
	t.Helper()
	stmt, vals := slotted(t, sql)
	pr, err := db.Prepare(stmt)
	if err != nil {
		t.Fatalf("prepare slotted: %v\n%s", err, sql)
	}
	rs, _, err := pr.QueryCtx(nil, &Params{Vals: vals})
	if (err != nil) != (werr != nil) {
		t.Fatalf("slotted error %v, literal error %v\n%s", err, werr, sql)
	}
	if err == nil && fmt.Sprint(rs.Strings()) != fmt.Sprint(want.Strings()) {
		t.Fatalf("slotted rows %v, literal rows %v\n%s", rs.Strings(), want.Strings(), sql)
	}
}

// literalShapesDB builds the table the literal-binding test runs on:
// items(id, v, name, tag) with v nullable, name indexed and tag a
// nullable dict-encoded column.
func literalShapesDB(t *testing.T) *DB {
	t.Helper()
	db := NewDB()
	tbl, err := db.CreateTable("items", Schema{
		{Name: "id", Kind: KindInt},
		{Name: "v", Kind: KindInt},
		{Name: "name", Kind: KindString},
		{Name: "tag", Kind: KindString},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.DictEncode("tag"); err != nil {
		t.Fatal(err)
	}
	names := []string{"/bin/tar", "/bin/cp", "/tmp/x.tar", "/etc/passwd", "/usr/bin/vim", "a_b", "axb"}
	tags := []string{"read", "write", "exec"}
	for i := 1; i <= 60; i++ {
		v, tag := Int(int64(i%13)), Str(tags[i%3])
		if i%11 == 0 {
			v = Null()
		}
		if i%7 == 0 {
			tag = Null()
		}
		if err := tbl.Insert([]Value{Int(int64(i)), v, Str(names[i%len(names)]), tag}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.CreateIndex("name"); err != nil {
		t.Fatal(err)
	}
	return db
}

// checkValueSlotGroups pins the value-slot path at the current
// BatchSize: each group lists statements of one shape that differ only
// in their literals. The first one's slotted statement compiles once,
// and executions binding the group's literal vectors interleaved (A, B,
// A, C, B, …) must each return the rows of its own statement with the
// literals inlined — so no per-plan cache (a dict column's code table, a
// LIKE pattern, an IN key set) carries one vector's constants into
// another's execution.
func checkValueSlotGroups(t *testing.T) {
	t.Helper()
	groups := [][]string{
		{ // string = and <> on a plain indexed column (index probe, kernel)
			"SELECT id FROM items WHERE name = '/bin/tar'",
			"SELECT id FROM items WHERE name = '/etc/passwd'",
			"SELECT id FROM items WHERE name = '/no/such'",
		},
		{
			"SELECT id FROM items WHERE name <> '/bin/cp' AND v < 9",
			"SELECT id FROM items WHERE name <> 'axb' AND v < 3",
		},
		{ // ordered string comparisons, plain and dict
			"SELECT id FROM items WHERE name < '/c' OR tag >= 'read'",
			"SELECT id FROM items WHERE name < '/tmp' OR tag >= 'write'",
			"SELECT id FROM items WHERE name < '' OR tag >= 'a'",
		},
		{ // dict = and <>
			"SELECT id FROM items WHERE tag = 'read' OR tag <> 'exec'",
			"SELECT id FROM items WHERE tag = 'write' OR tag <> 'read'",
		},
		{ // each LIKE shape on the indexed column: contains, prefix, suffix, generic '_', exact
			"SELECT id FROM items WHERE name LIKE '%bin%'",
			"SELECT id FROM items WHERE name LIKE '/tmp%'",
			"SELECT id FROM items WHERE name LIKE '%.tar'",
			"SELECT id FROM items WHERE name LIKE 'a_b'",
			"SELECT id FROM items WHERE name LIKE '/etc/passwd'",
		},
		{ // the same shapes through the scan kernels (no index on the level's access)
			"SELECT id FROM items WHERE v >= 0 AND NOT name LIKE '%bin%'",
			"SELECT id FROM items WHERE v >= 2 AND NOT name LIKE '/tmp%'",
			"SELECT id FROM items WHERE v >= 4 AND NOT name LIKE '%.tar'",
			"SELECT id FROM items WHERE v >= 1 AND NOT name LIKE 'a_b'",
		},
		{ // dict LIKE: the code table must follow the bound pattern
			"SELECT id FROM items WHERE tag LIKE '%e%'",
			"SELECT id FROM items WHERE tag LIKE 'r%'",
			"SELECT id FROM items WHERE tag LIKE '%c'",
			"SELECT id FROM items WHERE tag LIKE 'wr_te'",
		},
		{ // [NOT] IN on the indexed plain column and on the dict column
			"SELECT id FROM items WHERE name IN ('/bin/tar', '/bin/cp', '/bin/tar')",
			"SELECT id FROM items WHERE name IN ('axb', '/no/such', 'a_b')",
		},
		{
			"SELECT id FROM items WHERE v > 1 AND name NOT IN ('/bin/tar', 'axb')",
			"SELECT id FROM items WHERE v > 5 AND name NOT IN ('/usr/bin/vim', '/usr/bin/vim')",
		},
		{
			"SELECT id FROM items WHERE tag IN ('read', 'exec')",
			"SELECT id FROM items WHERE tag IN ('write', 'write')",
		},
		{
			"SELECT id FROM items WHERE tag NOT IN ('read', 'exec')",
			"SELECT id FROM items WHERE tag NOT IN ('write', 'nope')",
		},
		{ // int <>, ordered and IN, plus a scan floor on id
			"SELECT id FROM items WHERE v <> 3 AND id >= 10 AND v IN (1, 2, 3, 4)",
			"SELECT id FROM items WHERE v <> 1 AND id >= 40 AND v IN (1, 1, 9, 4)",
			"SELECT id FROM items WHERE v <> 4 AND id >= 0 AND v IN (12, 0, 4, 5)",
		},
	}
	db := literalShapesDB(t)
	for gi, group := range groups {
		shape, _ := slotted(t, group[0])
		pr, err := db.Prepare(shape)
		if err != nil {
			t.Fatalf("group %d: %v", gi, err)
		}
		order := []int{0, 1, 0}
		for i := 2; i < len(group); i++ {
			order = append(order, i, i-1)
		}
		for _, i := range order {
			stmt, vals := slotted(t, group[i])
			if ExprString(stmt.Where) != ExprString(shape.Where) {
				t.Fatalf("group %d: %q is not of the group's shape", gi, group[i])
			}
			want, _, err := sqltext.Query(db, group[i])
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := pr.QueryCtx(nil, &Params{Vals: vals})
			if err != nil {
				t.Fatalf("batch %d: %v\n%s", BatchSize, err, group[i])
			}
			if fmt.Sprint(got.Strings()) != fmt.Sprint(want.Strings()) {
				t.Fatalf("batch %d: bound %v, inlined %v\n%s", BatchSize, got.Strings(), want.Strings(), group[i])
			}
		}
	}
}

// TestValueSlotBinding pins that an execution binding a value slot to
// nothing, or to a value of another kind than the plan read it as, fails
// instead of comparing against a zero value.
func TestValueSlotBinding(t *testing.T) {
	db := literalShapesDB(t)
	stmt, _ := slotted(t, "SELECT id FROM items WHERE name LIKE '%bin%' AND v > 3")
	pr, err := db.Prepare(stmt)
	if err != nil {
		t.Fatal(err)
	}
	for _, vals := range [][]Value{nil, {Str("%bin%")}, {Str("%bin%"), Str("3")}} {
		if _, _, err := pr.QueryCtx(nil, &Params{Vals: vals}); err == nil {
			t.Fatalf("binding %v must fail", vals)
		}
	}
	if _, _, err := pr.QueryCtx(nil, &Params{Vals: []Value{Str("%bin%"), Int(3)}}); err != nil {
		t.Fatal(err)
	}
	bad := &SelectStmt{From: []TableRef{{Table: "items"}}, Where: BinOp{Op: "and",
		L: BinOp{Op: "=", L: ColRef{Column: "name"}, R: ValParam{Slot: 0, Kind: KindString}},
		R: BinOp{Op: "=", L: ColRef{Column: "v"}, R: ValParam{Slot: 0, Kind: KindInt}}}}
	if _, err := db.Prepare(bad); err == nil {
		t.Fatal("one slot read as two kinds must fail Prepare")
	}
}
