package engine

import (
	"fmt"
	"sort"
	"sync"
	"testing"

	"threatraptor/internal/audit"
	"threatraptor/internal/tbql"
)

// shapeTemplates are TBQL texts of one shape each, with the value
// literals left as format verbs; shapeVariants fill them in. The first
// template joins two event patterns; the second mixes an IN list, an int
// <> and a single-hop path pattern (graph backend, anchor prefilter).
var shapeTemplates = []string{
	`proc p1[%q] read file f1[%q] as evt1
proc p1 write file f2[%q] as evt2
with evt1 before evt2
return distinct p1, f1, f2`,
	`proc p1[exename in (%q, "/bin/cp") && pid != %d] read file f1[%q] as evt1
proc p1 ->[write] file f2[%q] as evt2
return distinct p1, f1, f2`,
}

var shapeVariants = [][][]any{
	{
		{"%/bin/tar%", "%/etc/passwd%", "%/tmp/upload.tar%"},
		{"%/bin/bzip2%", "%/tmp/upload.tar%", "%/tmp/upload.tar.bz2%"},
		{"%/usr/bin/gpg%", "%upload.tar.bz2%", "%/tmp/upload%"},
		{"%bin%", "%", "%tmp%"},
		{"%/no/such%", "%/etc/passwd%", "%/tmp/upload.tar%"},
	},
	{
		{"/bin/tar", 1, "%/etc/passwd%", "%/tmp/upload.tar%"},
		{"/bin/bzip2", 5002, "%/tmp/upload.tar%", "%.bz2"},
		{"/usr/bin/gpg", 7, "%upload.tar.bz2", "/tmp/upload%"},
		{"/bin/tar", 5001, "%/etc/passwd%", "%/tmp/upload.tar%"},
	},
}

// sortedRowStrings renders a result's rows as sorted strings.
func sortedRowStrings(res *Result) []string {
	var out []string
	for _, row := range res.Set.Strings() {
		out = append(out, fmt.Sprint(row))
	}
	sort.Strings(out)
	return out
}

// referenceResult joins a's data queries the slow way: each pattern's
// statement or traversal printed with a's literals inlined and run
// through the backends' parsers, unscheduled, then referenceJoin.
func referenceResult(t *testing.T, en *Engine, a *tbql.Analyzed) *Result {
	t.Helper()
	plan := en.planFor(a, en.Store.Snapshot(), false)
	results := make([]PatternRows, len(a.Query.Patterns))
	for i := range results {
		results[i] = PatternRows{Idx: i, Rows: literalPatternRows(t, en.Store, a, plan, PatternQuery{Idx: i}),
			HasEvent: !plan.pats[i].meta.VarLen}
	}
	res, _, err := referenceJoin(nil, a, returnColumns(a), en.Store.Snapshot().EntityAttr, results)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestLiteralVariantsShareOneShape pins the shape cache: the literal
// variants of one TBQL text build exactly one shape plan, and executed
// interleaved (A, B, A, C, B, …) through it each returns the rows and
// matched events of the reference join over its own literal-bearing
// filters.
func TestLiteralVariantsShareOneShape(t *testing.T) {
	store, _ := dataLeakStore(t, 300)
	for ti, tmpl := range shapeTemplates {
		en := &Engine{Store: store}
		variants := shapeVariants[ti]
		order := []int{0, 1, 0}
		for i := 2; i < len(variants); i++ {
			order = append(order, i, i-1)
		}
		nonEmpty := 0
		for _, vi := range order {
			src := fmt.Sprintf(tmpl, variants[vi]...)
			res, _, err := en.Hunt(nil, src)
			if err != nil {
				t.Fatalf("%v\n%s", err, src)
			}
			a, _ := en.Compile(src)
			want := referenceResult(t, en, a)
			if got, w := sortedRowStrings(res), sortedRowStrings(want); fmt.Sprint(got) != fmt.Sprint(w) {
				t.Fatalf("variant %d: rows %v, reference %v\n%s", vi, got, w, src)
			}
			if got, w := sortedIDs(res.MatchedEvents), sortedIDs(want.MatchedEvents); fmt.Sprint(got) != fmt.Sprint(w) {
				t.Fatalf("variant %d: matched events %v, reference %v\n%s", vi, got, w, src)
			}
			if res.Set.Len() > 0 {
				nonEmpty++
			}
		}
		if nonEmpty < 2 {
			t.Fatalf("template %d: only %d executions matched anything", ti, nonEmpty)
		}
		if len(en.shapes) != 1 || len(en.plans) != len(variants) {
			t.Fatalf("template %d: %d shape plans and %d query plans for %d variants, want 1 and %d",
				ti, len(en.shapes), len(en.plans), len(variants), len(variants))
		}
	}
}

// TestStandingQueriesOfOneShapeKeepOwnViews pins that materialized views
// belong to the analyzed query, not its shape: two standing queries of
// one shape with different literals each deliver only their own new
// answers, and dropping one's views leaves the other's in place.
func TestStandingQueriesOfOneShapeKeepOwnViews(t *testing.T) {
	full, _ := dataLeakStore(t, 300)
	live, floor := appendHalves(t, full)
	tar := analyzed(t, fmt.Sprintf(shapeTemplates[0], shapeVariants[0][0]...))
	bzip := analyzed(t, fmt.Sprintf(shapeTemplates[0], shapeVariants[0][1]...))
	if tar.Shape != bzip.Shape {
		t.Fatal("the two standing queries must share a shape")
	}
	en := &Engine{Store: live}
	recompute := &Engine{Store: live, ViewHighWater: -1}
	check := func(a *tbql.Analyzed, f int64) []string {
		t.Helper()
		got, want := deltaRows(t, en, a, f), deltaRows(t, recompute, a, f)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("floor %d: views %v, recompute %v", f, got, want)
		}
		return got
	}
	if len(check(tar, 1)) == 0 || len(check(bzip, 1)) == 0 {
		t.Fatal("both standing queries must match the attack")
	}
	check(tar, floor)
	check(bzip, floor)
	if len(en.shapes) != 1 {
		t.Fatalf("%d shape plans, want 1", len(en.shapes))
	}
	pt, pb := en.plans[tar], en.plans[bzip]
	if pt.state().views[0] == nil || pb.state().views[0] == nil || pt.state().views[0] == pb.state().views[0] {
		t.Fatal("each standing query must hold views of its own")
	}

	// A new write of /tmp/upload.tar by tar completes a new tar binding
	// (its old read of /etc/passwd comes before it) and none of bzip2's.
	var extra audit.Event
	for i := range live.Log.Events {
		ev := &live.Log.Events[i]
		if ev.Op == audit.OpWrite && live.Log.Subject(ev).Proc.ExeName == "/bin/tar" && live.Log.Object(ev).File.Name == "/tmp/upload.tar" {
			extra = audit.Event{SubjectID: ev.SubjectID, ObjectID: ev.ObjectID, Op: ev.Op,
				StartTime: live.Snapshot().MaxTime + 1_000_000, EndTime: live.Snapshot().MaxTime + 1_000_001}
		}
	}
	if extra.Op != audit.OpWrite {
		t.Fatal("no tar write of /tmp/upload.tar in the log")
	}
	next := live.NextEventID()
	if err := live.AppendBatch(nil, []audit.Event{extra}); err != nil {
		t.Fatal(err)
	}
	if got := check(tar, next); len(got) == 0 {
		t.Fatal("tar's standing query missed its new answer")
	}
	if got := check(bzip, next); len(got) != 0 {
		t.Fatalf("bzip2's standing query delivered tar's answer: %v", got)
	}

	before := en.Views()
	en.DropViews(tar)
	if pt.state().views[0] != nil {
		t.Fatal("DropViews kept the dropped query's views")
	}
	if pb.state().views[0] == nil || pb.state().views[0].upTo == 0 {
		t.Fatal("DropViews on one query released another query's views of the same shape")
	}
	check(bzip, next)
	if vs := en.Views(); vs.Materializations != before.Materializations {
		t.Fatalf("the surviving query rematerialized: %d -> %d", before.Materializations, vs.Materializations)
	}
}

// TestConcurrentLiteralVectorsOfOneShape races hunts over two literal
// vectors of one shape on a cold engine, so the shape's lazy compilation
// (relational statements, anchor prefilters, the join program) and the
// per-execution binding of its value slots run concurrently; every hunt
// must return its vector's own rows.
func TestConcurrentLiteralVectorsOfOneShape(t *testing.T) {
	store, _ := dataLeakStore(t, 300)
	for ti, tmpl := range shapeTemplates {
		var srcs []string
		var want [][]string
		for _, v := range shapeVariants[ti][:2] {
			src := fmt.Sprintf(tmpl, v...)
			res, _, err := (&Engine{Store: store}).Hunt(nil, src)
			if err != nil {
				t.Fatal(err)
			}
			srcs, want = append(srcs, src), append(want, sortedRowStrings(res))
		}
		if fmt.Sprint(want[0]) == fmt.Sprint(want[1]) {
			t.Fatalf("template %d: the two vectors must answer differently", ti)
		}
		en := &Engine{Store: store}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 40; i++ {
					k := (g + i) % 2
					res, _, err := en.Hunt(nil, srcs[k])
					if err != nil {
						t.Error(err)
						return
					}
					if got := sortedRowStrings(res); fmt.Sprint(got) != fmt.Sprint(want[k]) {
						t.Errorf("template %d vector %d: %v, want %v", ti, k, got, want[k])
						return
					}
				}
			}(g)
		}
		wg.Wait()
	}
}

// TestCacheEvictsOneEntryAtATime pins the caches' overflow: a full query
// cache and a full shape cache each make room for a new entry by
// evicting one entry, never by wiping, and the clock spares an entry hit
// at least once per revolution of its hand — a shape included, when the
// hits are its query plan's and every other shape is new.
func TestCacheEvictsOneEntryAtATime(t *testing.T) {
	en := &Engine{Store: tinyStore(t)}
	hunt := func(i int) *queryPlan {
		t.Helper()
		src := fmt.Sprintf(`proc p["%%/bin/tar%%"] read file f as evt%d return p, f`, i)
		if _, _, err := en.Hunt(nil, src); err != nil {
			t.Fatal(err)
		}
		a, _ := en.Compile(src)
		return en.plans[a]
	}
	// Each text is hunted once, which does not mark its entry, so the
	// first overflow evicts the oldest; an entry hunted again between two
	// passes of the hand stays.
	for i := 0; i <= maxCachedQueryPlans; i++ {
		hunt(i)
	}
	hot := hunt(1)
	for i := maxCachedQueryPlans + 1; i < 4*maxCachedQueryPlans; i++ {
		hunt(i)
		if len(en.plans) != maxCachedQueryPlans || len(en.texts) != maxCachedQueryPlans || len(en.shapes) != maxCachedQueryPlans {
			t.Fatalf("after %d hunts: %d plans, %d texts, %d shapes, want %d each",
				i+1, len(en.plans), len(en.texts), len(en.shapes), maxCachedQueryPlans)
		}
		if i%64 == 0 && hunt(1) != hot {
			t.Fatalf("after %d hunts the clock evicted an entry hit within each revolution of its hand", i+1)
		}
		if en.shapes[hot.key] != hot.shapePlan {
			t.Fatalf("after %d hunts the clock evicted the shape of a query plan hit within each revolution of its hand", i+1)
		}
	}
}
