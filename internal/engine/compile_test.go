package engine

import (
	"strings"
	"testing"

	"threatraptor/internal/audit"
	"threatraptor/internal/graphdb"
	"threatraptor/internal/graphdb/cyphertext"
	"threatraptor/internal/qir"
	"threatraptor/internal/relational"
	"threatraptor/internal/relational/sqltext"
	"threatraptor/internal/tbql"
)

// tinyStore builds a minimal store for compilation tests.
func tinyStore(t testing.TB) *Store {
	t.Helper()
	log := audit.NewLog()
	p := log.Entities.Intern(audit.NewProcessEntity(1, "/bin/tar", "root", "root", ""))
	f := log.Entities.Intern(audit.NewFileEntity("/etc/passwd", "root", "root"))
	g := log.Entities.Intern(audit.NewFileEntity("/tmp/out", "root", "root"))
	log.Append(audit.Event{SubjectID: p.ID, ObjectID: f.ID, Op: audit.OpRead, StartTime: 1_000_000, EndTime: 1_000_001})
	log.Append(audit.Event{SubjectID: p.ID, ObjectID: g.ID, Op: audit.OpWrite, StartTime: 2_000_000, EndTime: 2_000_001})
	store, err := NewStore(log)
	if err != nil {
		t.Fatal(err)
	}
	return store
}

func parse(t testing.TB, src string) *tbql.Analyzed {
	t.Helper()
	q, err := tbql.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	a, err := tbql.Analyze(q)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// patternSQL prints the first pattern's lowered statement with its
// optional parameters unbound: the SQL a scheduler-free execution runs.
func patternSQL(t *testing.T, store *Store, a *tbql.Analyzed) string {
	t.Helper()
	ir := tbql.Lower(a)[0]
	return literalSQL(lowerEventStmt(store.Snapshot().bounds(), ir.Event), PatternQuery{}, a.Lits)
}

func TestCompilePatternSQLParsesAndRuns(t *testing.T) {
	store := tinyStore(t)
	a := parse(t, `proc p["%tar%"] read file f["%passwd%"] as e1 return distinct p`)
	sql := patternSQL(t, store, a)
	rs, _, err := sqltext.Query(store.Rel, sql)
	if err != nil {
		t.Fatalf("printed SQL must run: %v\n%s", err, sql)
	}
	if rs.Len() != 1 {
		t.Fatalf("rows = %d\n%s", rs.Len(), sql)
	}
}

func TestCompilePatternSQLAnchorSwap(t *testing.T) {
	store := tinyStore(t)
	// Object heavily filtered, subject unfiltered: anchor on the object.
	a := parse(t, `proc p read file f[name = "/etc/passwd" && user = "root"] as e1 return distinct p`)
	sql := patternSQL(t, store, a)
	if !strings.Contains(sql, "FROM entities o, events e, entities s ") {
		t.Errorf("expected object-anchored FROM:\n%s", sql)
	}
	// Subject filtered: anchor on the subject.
	a = parse(t, `proc p["%tar%"] read file f as e1 return distinct p`)
	sql = patternSQL(t, store, a)
	if !strings.Contains(sql, "FROM entities s, events e, entities o ") {
		t.Errorf("expected subject-anchored FROM:\n%s", sql)
	}
}

func TestCompilePatternSQLWindow(t *testing.T) {
	store := tinyStore(t)
	a := parse(t, `proc p read file f as e1 from "1970-01-01 00:00:01" to "1970-01-01 00:00:01" return distinct f`)
	sql := patternSQL(t, store, a)
	if !strings.Contains(sql, "e.start_time >= 1000000") ||
		!strings.Contains(sql, "e.start_time <= 1000000") {
		t.Errorf("window bounds missing:\n%s", sql)
	}
	rs, _, err := sqltext.Query(store.Rel, sql)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() != 1 {
		t.Fatalf("window should admit only the read event: %d rows", rs.Len())
	}
}

func TestCompileMonolithicSQLValid(t *testing.T) {
	store := tinyStore(t)
	a := parse(t, `proc p["%tar%"] read file f["%passwd%"] as e1
proc p write file g["%/tmp/%"] as e2
with e1 before[0-5 sec] e2
return distinct p, f, g`)
	sql, err := CompileMonolithicSQL(store, a)
	if err != nil {
		t.Fatal(err)
	}
	rs, _, err := sqltext.Query(store.Rel, sql)
	if err != nil {
		t.Fatalf("monolithic SQL must run: %v\n%s", err, sql)
	}
	if rs.Len() != 1 {
		t.Fatalf("rows = %d\n%s", rs.Len(), sql)
	}
	// Declarative FROM order: all entity tables precede the event tables.
	fromPart := sql[strings.Index(sql, "FROM"):strings.Index(sql, "WHERE")]
	if strings.Index(fromPart, "events") < strings.Index(fromPart, "entities g") {
		t.Errorf("naive translation lists entities before events:\n%s", fromPart)
	}
}

func TestCompileMonolithicSQLRejectsVarLen(t *testing.T) {
	store := tinyStore(t)
	a := parse(t, `proc p ~>(1~3) file f return distinct p`)
	if _, err := CompileMonolithicSQL(store, a); err == nil {
		t.Fatal("variable-length paths cannot compile to SQL")
	}
}

func TestCompileMonolithicCypherValid(t *testing.T) {
	store := tinyStore(t)
	a := parse(t, `proc p["%tar%"] read file f["%passwd%"] as e1
proc p write file g["%/tmp/%"] as e2
with e1 before e2
return distinct p, f, g`)
	cy, err := CompileMonolithicCypher(store, a)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Count(cy, "MATCH") != 2 {
		t.Errorf("one MATCH per pattern expected:\n%s", cy)
	}
	q, err := cyphertext.Parse(cy)
	if err != nil {
		t.Fatalf("compiled Cypher must parse: %v\n%s", err, cy)
	}
	rs, _, err := store.Graph.ExecPrepared(nil, graphdb.Prepare(q), nil)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() != 1 {
		t.Fatalf("rows = %d\n%s", rs.Len(), cy)
	}
}

func TestCompilePatternCypherVarLenForms(t *testing.T) {
	store := tinyStore(t)
	cases := []struct {
		src  string
		want string
	}{
		{`proc p ~>(2~4)[read] file f return distinct p`, "-[*1..3]-"},
		{`proc p ->[write] file f return distinct p`, "-[e:write]->"},
		{`proc p ~> file f return distinct p`, "-[*1..]-"},
	}
	for _, c := range cases {
		ir := tbql.Lower(parse(t, c.src))[0]
		cy := lowerPathQuery(store.Snapshot().bounds(), ir.Path, true).String()
		if !strings.Contains(cy, c.want) {
			t.Errorf("%s\nprinted %q, want fragment %q", c.src, cy, c.want)
		}
		if _, err := cyphertext.Parse(cy); err != nil {
			t.Errorf("%s: printed Cypher must parse: %v\n%s", c.src, err, cy)
		}
	}
}

func TestTemporalSQLForms(t *testing.T) {
	a := parse(t, `proc p read file f as e1
proc p write file g as e2
with e1 before[1-5 sec] e2
return distinct p`)
	e, err := temporalExpr(a, a.Query.Relations[0])
	if err != nil {
		t.Fatal(err)
	}
	c := relational.ExprString(e)
	for _, frag := range []string{"e1.start_time < e2.start_time", ">= 1000000", "<= 5000000"} {
		if !strings.Contains(c, frag) {
			t.Errorf("missing %q in %q", frag, c)
		}
	}
	// within
	a = parse(t, `proc p read file f as e1
proc p write file g as e2
with e1 within[0-2 sec] e2
return distinct p`)
	if _, err := temporalExpr(a, a.Query.Relations[0]); err != nil {
		t.Fatal(err)
	}
}

// TestTimeWindowKinds resolves every TBQL window form through the IR
// (tbql.Lower) and qir.Window.Bounds against the store's bounds.
func TestTimeWindowKinds(t *testing.T) {
	store := tinyStore(t)
	b := store.Snapshot().bounds()
	window := func(w string) (int64, int64) {
		t.Helper()
		ir := tbql.Lower(parse(t, `proc p read file f as e1 `+w+` return f`))[0]
		return ir.Window().Bounds(b.min, b.max)
	}
	const day = 24 * 3600 * 1_000_000
	if lo, hi := window(`from "1970-01-01 00:00:01" to "1970-01-01 00:00:01"`); lo != 1_000_000 || hi != 1_000_000 {
		t.Errorf("range window = [%d,%d]", lo, hi)
	}
	if lo, hi := window(`at "1970-01-02"`); lo != day || hi != 2*day-1 {
		t.Errorf("at window = [%d,%d]", lo, hi)
	}
	if lo, hi := window(`after "1970-01-01 00:00:01"`); lo != 1_000_000 || hi != store.MaxTime {
		t.Errorf("after window = [%d,%d]", lo, hi)
	}
	if lo, hi := window(`before "1970-01-01 00:00:01"`); lo != store.MinTime || hi != 1_000_000 {
		t.Errorf("before window = [%d,%d]", lo, hi)
	}
	if lo, hi := window(`last 1 sec`); hi != store.MaxTime || lo != store.MaxTime-1_000_000 {
		t.Errorf("last window = [%d,%d]", lo, hi)
	}
}

// TestInListRendering pins the two forms a binding set prints in: the
// runtime parameter a compiled plan carries, and the literal list the
// golden reference binds it to.
func TestInListRendering(t *testing.T) {
	s := relational.ColRef{Qualifier: "s", Column: "id"}
	if got := relational.ExprString(relational.ParamIDs{E: s, Slot: qir.SlotSubjIDs}); got != "s.id IN ?list0" {
		t.Errorf("param list = %q", got)
	}
	lits := relational.InList{E: s, Vals: []relational.Expr{intLit(3), intLit(1), intLit(2)}}
	if got := relational.ExprString(lits); got != "s.id IN (3, 1, 2)" {
		t.Errorf("literal list = %q", got)
	}
}

func TestRenderSQLExprOperators(t *testing.T) {
	e := relational.BinOp{Op: "or",
		L: relational.BinOp{Op: "like", L: relational.ColRef{Column: "name"}, R: relational.Lit{V: relational.Str("%x%")}},
		R: relational.InList{E: relational.ColRef{Column: "group"}, Vals: []relational.Expr{relational.Lit{V: relational.Str("root")}}, Negate: true},
	}
	got := relational.ExprString(qualify(e, "t", sqlColumn))
	for _, frag := range []string{"t.name LIKE '%x%'", "t.grp NOT IN ('root')", " OR "} {
		if !strings.Contains(got, frag) {
			t.Errorf("missing %q in %q", frag, got)
		}
	}
	// Cypher keeps "group" as a property name.
	if cy := relational.ExprString(qualify(e, "n", nil)); !strings.Contains(cy, "n.group") {
		t.Errorf("cypher render = %q", cy)
	}
}

// TestCompileQuerySharesTheTextCache: CompileQuery caches a query built as
// an AST under its formatted text, the entry a Compile of that text finds,
// and returns the entry a Compile of that text cached first; a query that
// fails analysis is not cached, and its text is still returned.
func TestCompileQuerySharesTheTextCache(t *testing.T) {
	en := &Engine{Store: tinyStore(t)}
	build := func(file string) *tbql.Query {
		q, err := tbql.Parse(`proc p["%/bin/tar%"] read file f["` + file + `"] as evt1 return distinct p, f`)
		if err != nil {
			t.Fatal(err)
		}
		return q
	}

	q := build("%/etc/passwd%")
	a, src, err := en.CompileQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	if src != tbql.Format(q) || a.Query != q {
		t.Fatalf("CompileQuery returned %q over %p, want Format(q) over q", src, a.Query)
	}
	if got, err := en.Compile(src); err != nil || got != a {
		t.Fatalf("Compile of the returned text = %p (err %v), want CompileQuery's entry %p", got, err, a)
	}
	if again, _, _ := en.CompileQuery(build("%/etc/passwd%")); again != a {
		t.Fatal("a repeat of the query missed its cache entry")
	}

	first, err := en.Compile(tbql.Format(build("%passwd%")))
	if err != nil {
		t.Fatal(err)
	}
	if got, _, _ := en.CompileQuery(build("%passwd%")); got != first {
		t.Fatal("CompileQuery analyzed a text Compile had cached")
	}
	res, _, err := en.Execute(nil, first)
	if err != nil || res.Set.Len() != 1 {
		t.Fatalf("the cached query runs to %v (err %v), want the one read", res, err)
	}

	bad := build("%/etc/passwd%")
	bad.Return.Items = []tbql.Attr{{EntityID: "nobody"}}
	if _, src, err := en.CompileQuery(bad); err == nil || src != tbql.Format(bad) {
		t.Fatalf("CompileQuery of an unknown return entity = %q, %v; want its text and an error", src, err)
	}
	if a, err := en.Compile(tbql.Format(bad)); err == nil {
		t.Fatalf("a query that failed analysis was cached: %p", a)
	}
}
