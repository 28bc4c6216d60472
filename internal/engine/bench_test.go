package engine

import (
	"fmt"
	"strings"
	"testing"

	"threatraptor/internal/audit"
	"threatraptor/internal/cases"
	"threatraptor/internal/extract"
	"threatraptor/internal/reduction"
	"threatraptor/internal/relational"
	"threatraptor/internal/relational/sqltext"
	"threatraptor/internal/synth"
	"threatraptor/internal/tbql"
)

// benchStore loads the generated data_leak case at the given scale.
func benchStore(b *testing.B, scale float64) *Store {
	b.Helper()
	gen, err := cases.ByID("data_leak").Generate(scale)
	if err != nil {
		b.Fatal(err)
	}
	store, err := NewStore(gen.Log)
	if err != nil {
		b.Fatal(err)
	}
	return store
}

func benchAnalyzed(b *testing.B) *tbql.Analyzed {
	b.Helper()
	q, err := tbql.Parse(dataLeakTBQL)
	if err != nil {
		b.Fatal(err)
	}
	a, err := tbql.Analyze(q)
	if err != nil {
		b.Fatal(err)
	}
	return a
}

// BenchmarkExecuteScheduled measures the scheduled TBQL hot path
// (Section III-F / RQ4) on the data_leak case at scale 1.0.
func BenchmarkExecuteScheduled(b *testing.B) {
	store := benchStore(b, 1.0)
	en := &Engine{Store: store}
	a := benchAnalyzed(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := en.Execute(nil, a); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExecuteUnscheduled is the scheduling ablation on the same
// workload (declaration order, no constraint feeding).
func BenchmarkExecuteUnscheduled(b *testing.B) {
	store := benchStore(b, 1.0)
	en := &Engine{Store: store, DisableScheduling: true}
	a := benchAnalyzed(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := en.Execute(nil, a); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreLoadEngine measures NewStore: batch-loading the reduced
// log into the columnar relational backend and the graph arena.
func BenchmarkStoreLoadEngine(b *testing.B) {
	gen, err := cases.ByID("data_leak").Generate(1.0)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewStore(gen.Log); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompile measures the compilation spine itself on the data_leak
// query: "cold" lowers the analyzed query to IR and compiles every
// pattern's single runtime-pruned physical plan from a cold engine; "hit"
// measures the steady-state cost of reaching the compiled plans through
// the caches (what every execution pays before running a single data
// query); "variant" reaches them for a query the cache has not seen
// whose shape it has: each op plans a literal variant of the query (its
// first pattern's file filter changed), cycling through twice as many
// variants, analyzed before the timer, as the query cache holds, so
// every op builds a query plan onto the cached shape plan. One plan now
// serves every extras shape the scheduler produces and every literal
// vector of a shape, so cold compile work scales with neither.
func BenchmarkCompile(b *testing.B) {
	store := benchStore(b, 1.0)
	a := benchAnalyzed(b)
	compileAll := func(en *Engine, a *tbql.Analyzed) {
		plan := en.planFor(a, en.Store.Snapshot(), false)
		for i := range plan.pats {
			if plan.pats[i].meta.UsesGraph {
				continue
			}
			if _, err := plan.pats[i].prepared(en.Store, plan.bounds); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			compileAll(&Engine{Store: store}, a)
		}
	})
	b.Run("hit", func(b *testing.B) {
		en := &Engine{Store: store}
		compileAll(en, a)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			compileAll(en, a)
		}
	})
	b.Run("variant", func(b *testing.B) {
		variants := make([]*tbql.Analyzed, 2*maxCachedQueryPlans)
		for i := range variants {
			variants[i] = parse(b, strings.Replace(dataLeakTBQL, "%/etc/passwd%", fmt.Sprintf("%%/etc/passwd%d%%", i), 1))
			if variants[i].Shape != a.Shape {
				b.Fatal("a literal variant changed the query's shape")
			}
		}
		en := &Engine{Store: store}
		compileAll(en, a)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			compileAll(en, variants[i%len(variants)])
		}
	})
}

// instancesStore loads n time-shifted instances of a case, each replayed
// with its own seed on its own host (the hunt benchmark's store shape):
// the instances' entities are distinct, so a pattern matches n times.
func instancesStore(tb testing.TB, caseID string, n int, scale float64) *Store {
	ids := make([]string, n)
	for i := range ids {
		ids[i] = caseID
	}
	return replayStore(tb, scale, ids...)
}

// replayStore loads one time-shifted instance per listed case, the i-th
// replayed with its case's seed + i on host "h<i>".
func replayStore(tb testing.TB, scale float64, caseIDs ...string) *Store {
	tb.Helper()
	parser := audit.NewParser()
	cursor := int64(1_700_000_000_000_000)
	for i, id := range caseIDs {
		c := *cases.ByID(id)
		c.Seed += int64(i)
		recs, _, _ := c.Simulate(scale)
		shift := cursor - recs[0].Time
		for j := range recs {
			recs[j].Time += shift
			recs[j].Host = fmt.Sprintf("h%d", i)
			if err := parser.Feed(&recs[j]); err != nil {
				tb.Fatal(err)
			}
		}
		cursor = recs[len(recs)-1].Time + 2_000_000
	}
	log := parser.Log()
	reduction.Reduce(log, reduction.DefaultConfig())
	store, err := NewStore(log)
	if err != nil {
		tb.Fatal(err)
	}
	return store
}

// caseHunt synthesizes a case report's TBQL query in the given mode.
func caseHunt(b testing.TB, caseID string, mode synth.Mode) *tbql.Analyzed {
	b.Helper()
	graph := extract.New(extract.DefaultOptions()).Extract(cases.ByID(caseID).Report).Graph
	q, _, err := synth.Synthesize(graph, synth.Options{Mode: mode})
	if err != nil {
		b.Fatal(err)
	}
	a, err := tbql.Analyze(q)
	if err != nil {
		b.Fatal(err)
	}
	return a
}

// benchHunt runs a hunt b.N times, reporting its join bindings per op,
// and returns one execution's Stats.
func benchHunt(b *testing.B, store *Store, a *tbql.Analyzed) Stats {
	en := &Engine{Store: store}
	res, st, err := en.Execute(nil, a)
	if err != nil || res.Set.Len() == 0 {
		b.Fatalf("rows %v, err %v", res, err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := en.Execute(nil, a); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(st.JoinBindings), "bindings/op")
	return st
}

// BenchmarkVarLenHunt measures a var-length hunt (the hunt pool's
// busybox-to-C2 flow, up to six hops) over eight vpnfilter instances. Its
// return is distinct, so the graph expands the hop by bounded BFS, one
// offer per reachable node; rows/op (pattern rows) and edges/op (graph
// edges traversed) show the work the trail DFS would multiply.
func BenchmarkVarLenHunt(b *testing.B) {
	store := instancesStore(b, "vpnfilter", 8, 1.0)
	st := benchHunt(b, store, analyzed(b, varLenPool[2]))
	b.ReportMetric(float64(st.PatternRows), "rows/op")
	b.ReportMetric(float64(st.Graph.EdgesTraversed), "edges/op")
}

// BenchmarkEntityLike measures an entity LIKE filter — TBQL's default
// string filter, the shape of every unbound pattern's entities level and
// graph anchor prefilter — on a pinned snapshot of 32 data_leak
// instances. selective matches a handful of rows, which the exename
// index's matching keys feed; unselective keeps most process rows, so the
// level runs its scan instead, on the caller's goroutine. rows/op and
// scanned/op are the statement's result rows and relational rows scanned.
func BenchmarkEntityLike(b *testing.B) {
	store := instancesStore(b, "data_leak", 32, 4.0)
	for _, leg := range []struct{ name, where string }{
		{"selective", "exename LIKE '%/bin/tar%'"},
		{"unselective", "kind = 'proc' AND exename LIKE '%/%'"},
	} {
		b.Run(leg.name, func(b *testing.B) {
			stmt, err := sqltext.Parse("SELECT id FROM entities WHERE " + leg.where)
			if err != nil {
				b.Fatal(err)
			}
			pr, err := store.Rel.Prepare(stmt)
			if err != nil {
				b.Fatal(err)
			}
			params := relational.Params{Snap: &store.Snapshot().Rel}
			rs, st, err := pr.QueryCtx(nil, &params)
			if err != nil || rs.Len() == 0 {
				b.Fatalf("rows %d, err %v", rs.Len(), err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := pr.QueryCtx(nil, &params); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(rs.Len()), "rows/op")
			b.ReportMetric(float64(st.RowsScanned), "scanned/op")
		})
	}
}

// BenchmarkJoinFanout measures the join on the tc_theia_4 hunt over eight
// time-shifted instances: its first pattern shares no entity with the
// other two, so an enumeration cross-products the instances (181 800
// bindings for one distinct row); the distinct walk's memo reaches 1 592.
func BenchmarkJoinFanout(b *testing.B) {
	benchHunt(b, instancesStore(b, "tc_theia_4", 8, 1.0), caseHunt(b, "tc_theia_4", synth.ModeEventPatterns))
}

// BenchmarkPathAnchor measures a length-1-path hunt (graph data queries)
// on eight data_leak instances: each pattern's predicated subject anchors
// on the IDs its entity prefilter returns instead of testing the predicate
// on every process node.
func BenchmarkPathAnchor(b *testing.B) {
	benchHunt(b, instancesStore(b, "data_leak", 8, 1.0), caseHunt(b, "data_leak", synth.ModeLength1Paths))
}

// BenchmarkAttrExprHunt measures hunts whose attribute expressions use
// TBQL's !, || and && (the paper's ⟨attr_exp⟩): each compiles to the
// batch kernels' NOT/OR/AND combinators, whose scratch selections come
// from the pooled execution state, so allocs/op must not grow with the
// operators.
func BenchmarkAttrExprHunt(b *testing.B) {
	store := benchStore(b, 4.0)
	for _, leg := range []struct{ name, src string }{
		{"not", `proc p[!"%chrome%"] read file f["%passwd%"] return distinct p, f`},
		{"or-and", `proc p["%tar%" || "%bzip%"] read || write file f[!"%tmp%" && "%a%"] return distinct p, f`},
	} {
		b.Run(leg.name, func(b *testing.B) {
			q, err := tbql.Parse(leg.src)
			if err != nil {
				b.Fatal(err)
			}
			a, err := tbql.Analyze(q)
			if err != nil {
				b.Fatal(err)
			}
			benchHunt(b, store, a)
		})
	}
}
