package relational_test

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	. "threatraptor/internal/relational"
	"threatraptor/internal/relational/sqltext"
)

// newTestDB builds a small entities/events database mirroring the
// ThreatRaptor storage layout.
func newTestDB(t *testing.T) *DB {
	t.Helper()
	db := NewDB()
	ent, err := db.CreateTable("entities", Schema{
		{"id", KindInt}, {"kind", KindString}, {"name", KindString}, {"pid", KindInt},
	})
	if err != nil {
		t.Fatal(err)
	}
	evt, err := db.CreateTable("events", Schema{
		{"id", KindInt}, {"subject_id", KindInt}, {"object_id", KindInt},
		{"op", KindString}, {"start_time", KindInt},
	})
	if err != nil {
		t.Fatal(err)
	}
	entities := [][]Value{
		{Int(1), Str("proc"), Str("/bin/tar"), Int(100)},
		{Int(2), Str("file"), Str("/etc/passwd"), Null()},
		{Int(3), Str("file"), Str("/tmp/upload.tar"), Null()},
		{Int(4), Str("proc"), Str("/bin/bzip2"), Int(101)},
		{Int(5), Str("file"), Str("/tmp/upload.tar.bz2"), Null()},
	}
	for _, r := range entities {
		if err := ent.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	events := [][]Value{
		{Int(1), Int(1), Int(2), Str("read"), Int(10)},
		{Int(2), Int(1), Int(3), Str("write"), Int(20)},
		{Int(3), Int(4), Int(3), Str("read"), Int(30)},
		{Int(4), Int(4), Int(5), Str("write"), Int(40)},
	}
	for _, r := range events {
		if err := evt.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	for _, col := range []string{"id", "name"} {
		if err := ent.CreateIndex(col); err != nil {
			t.Fatal(err)
		}
	}
	for _, col := range []string{"subject_id", "object_id"} {
		if err := evt.CreateIndex(col); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func mustQuery(t *testing.T, db *DB, sql string) *ResultSet {
	t.Helper()
	rs, _, err := sqltext.Query(db, sql)
	if err != nil {
		t.Fatalf("Query(%q): %v", sql, err)
	}
	return rs
}

// sortedRows returns the result's rows as strings, sorted column by
// column, for comparisons whose row order the statement leaves open.
func sortedRows(rs *ResultSet) [][]string {
	rows := rs.Strings()
	slices.SortFunc(rows, slices.Compare[[]string])
	return rows
}

func TestSelectStar(t *testing.T) {
	db := newTestDB(t)
	rs := mustQuery(t, db, "SELECT * FROM entities")
	if rs.Len() != 5 || len(rs.Columns) != 4 {
		t.Fatalf("rows=%d cols=%d", rs.Len(), len(rs.Columns))
	}
}

func TestWhereFilters(t *testing.T) {
	db := newTestDB(t)
	rs := mustQuery(t, db, "SELECT name FROM entities WHERE kind = 'file'")
	if rs.Len() != 3 {
		t.Fatalf("files = %d, want 3", rs.Len())
	}
	rs = mustQuery(t, db, "SELECT name FROM entities WHERE kind = 'proc' AND pid > 100")
	if rs.Len() != 1 || rs.Rows[0][0].S != "/bin/bzip2" {
		t.Fatalf("got %v", rs.Strings())
	}
	rs = mustQuery(t, db, "SELECT name FROM entities WHERE kind = 'proc' OR name LIKE '%upload%'")
	if rs.Len() != 4 {
		t.Fatalf("got %d rows: %v", rs.Len(), rs.Strings())
	}
	rs = mustQuery(t, db, "SELECT name FROM entities WHERE NOT kind = 'file'")
	if rs.Len() != 2 {
		t.Fatalf("got %d", rs.Len())
	}
	rs = mustQuery(t, db, "SELECT name FROM entities WHERE name NOT LIKE '%tar%'")
	if rs.Len() != 2 {
		t.Fatalf("got %v", rs.Strings())
	}
	rs = mustQuery(t, db, "SELECT id FROM events WHERE op IN ('read', 'execute')")
	if rs.Len() != 2 {
		t.Fatalf("got %v", rs.Strings())
	}
	rs = mustQuery(t, db, "SELECT id FROM events WHERE op NOT IN ('read')")
	if rs.Len() != 2 {
		t.Fatalf("got %v", rs.Strings())
	}
	rs = mustQuery(t, db, "SELECT id FROM events WHERE start_time >= 20 AND start_time <> 30")
	if rs.Len() != 2 {
		t.Fatalf("got %v", rs.Strings())
	}
}

func TestImplicitJoin(t *testing.T) {
	db := newTestDB(t)
	// The paper's monolithic query shape: entity, event, entity.
	rs := mustQuery(t, db, `
	  SELECT s.name, e.op, o.name
	  FROM entities s, events e, entities o
	  WHERE e.subject_id = s.id AND e.object_id = o.id
	    AND s.name LIKE '%/bin/tar%' AND e.op = 'write'`)
	if rs.Len() != 1 {
		t.Fatalf("rows = %d: %v", rs.Len(), rs.Strings())
	}
	want := []string{"/bin/tar", "write", "/tmp/upload.tar"}
	if !reflect.DeepEqual(rs.Strings()[0], want) {
		t.Fatalf("got %v, want %v", rs.Strings()[0], want)
	}
}

// TestDistinctFirstSeenOrder: DISTINCT keeps each row's first
// occurrence, in scan order.
func TestDistinctFirstSeenOrder(t *testing.T) {
	db := newTestDB(t)
	rs := mustQuery(t, db, "SELECT DISTINCT op FROM events")
	if !reflect.DeepEqual(rs.Strings(), [][]string{{"read"}, {"write"}}) {
		t.Fatalf("got %v", rs.Strings())
	}
}

func TestProjectionAliases(t *testing.T) {
	db := newTestDB(t)
	rs := mustQuery(t, db, "SELECT name AS entity_name FROM entities")
	if rs.Columns[0] != "entity_name" {
		t.Fatalf("columns = %v", rs.Columns)
	}
}

func TestIndexAccelerationUsed(t *testing.T) {
	db := newTestDB(t)
	_, stats, err := sqltext.Query(db, `
	  SELECT o.name FROM events e, entities o
	  WHERE e.object_id = o.id AND e.op = 'write'`)
	if err != nil {
		t.Fatal(err)
	}
	if stats.IndexLookups == 0 {
		t.Fatalf("join on indexed id should use the index: %+v", stats)
	}
	// Index probe avoids scanning every entity row per event.
	if stats.RowsScanned >= 4*5 {
		t.Fatalf("scanned %d rows, expected far fewer via index", stats.RowsScanned)
	}
}

func TestQueryErrors(t *testing.T) {
	db := newTestDB(t)
	for _, c := range []struct {
		sql string
		tok string // non-empty: the statement fails to parse, naming this token
	}{
		{"SELECT * FROM nosuch", ""},
		{"SELECT nosuchcol FROM entities", ""},
		{"SELECT e.name FROM entities x", ""},          // unknown alias
		{"SELECT id FROM entities, events", ""},        // ambiguous column
		{"SELECT * FROM entities WHERE", ""},           // incomplete
		{"SELECT * FROM entities WHERE kind = ", ""},   // incomplete expr
		{"SELECT * FROM entities e, events e", ""},     // duplicate alias
		{"FROM entities", ""},                          // missing select
		{"SELECT * FROM entities WHERE pid < 'b'", ""}, // type error in compare
		// The subset has no ORDER BY, LIMIT or JOIN ... ON.
		{"SELECT * FROM entities ORDER BY nosuch", "ORDER"},
		{"SELECT name FROM entities ORDER BY name", "ORDER"},
		{"SELECT * FROM entities LIMIT x", "LIMIT"},
		{"SELECT * FROM entities WHERE pid > 0 LIMIT 1", "LIMIT"},
		{"SELECT o.name FROM events e JOIN entities o ON e.object_id = o.id", "JOIN"},
	} {
		if _, _, err := sqltext.Query(db, c.sql); err == nil {
			t.Errorf("Query(%q) should fail", c.sql)
		}
		if c.tok == "" {
			continue
		}
		if _, err := sqltext.Parse(c.sql); err == nil || !strings.Contains(err.Error(), `"`+c.tok+`"`) {
			t.Errorf("sqltext.Parse(%q): err %v, want a parse error naming %q", c.sql, err, c.tok)
		}
	}
}

func TestTrailingGarbageRejected(t *testing.T) {
	db := newTestDB(t)
	if _, _, err := sqltext.Query(db, "SELECT * FROM entities extra garbage here"); err == nil {
		t.Fatal("trailing tokens must be rejected")
	}
}

func TestInsertValidation(t *testing.T) {
	db := NewDB()
	tbl, _ := db.CreateTable("t", Schema{{"a", KindInt}, {"b", KindString}})
	if err := tbl.Insert([]Value{Int(1)}); err == nil {
		t.Error("arity mismatch must fail")
	}
	if err := tbl.Insert([]Value{Str("x"), Str("y")}); err == nil {
		t.Error("kind mismatch must fail")
	}
	if err := tbl.Insert([]Value{Null(), Str("y")}); err != nil {
		t.Errorf("NULL should be allowed: %v", err)
	}
	if _, err := db.CreateTable("t", nil); err == nil {
		t.Error("duplicate table must fail")
	}
	if err := tbl.CreateIndex("nosuch"); err == nil {
		t.Error("index on unknown column must fail")
	}
}

func TestIndexMaintainedAcrossInserts(t *testing.T) {
	db := NewDB()
	tbl, _ := db.CreateTable("t", Schema{{"k", KindString}, {"v", KindInt}})
	if err := tbl.CreateIndex("k"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		key := "a"
		if i%2 == 0 {
			key = "b"
		}
		if err := tbl.Insert([]Value{Str(key), Int(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	rs, stats, err := sqltext.Query(db, "SELECT v FROM t WHERE k = 'a'")
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() != 50 {
		t.Fatalf("rows = %d", rs.Len())
	}
	if stats.IndexLookups != 1 || stats.RowsScanned != 50 {
		t.Fatalf("index should serve the probe: %+v", stats)
	}
}

func TestStringEscaping(t *testing.T) {
	db := NewDB()
	tbl, _ := db.CreateTable("t", Schema{{"s", KindString}})
	if err := tbl.Insert([]Value{Str("it's")}); err != nil {
		t.Fatal(err)
	}
	rs := mustQuery(t, db, "SELECT s FROM t WHERE s = 'it''s'")
	if rs.Len() != 1 {
		t.Fatalf("quote escaping broken: %v", rs.Strings())
	}
}

func TestComments(t *testing.T) {
	db := newTestDB(t)
	rs := mustQuery(t, db, "SELECT id FROM events -- trailing comment\nWHERE op = 'read'")
	if rs.Len() != 2 {
		t.Fatalf("got %d", rs.Len())
	}
}
