package engine

import (
	"testing"

	"threatraptor/internal/cases"
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
// query). One plan now serves every extras shape the scheduler produces,
// so cold compile work no longer scales with the shapes a workload
// touches (previously up to eight lazily-compiled variants per pattern).
func BenchmarkCompile(b *testing.B) {
	store := benchStore(b, 1.0)
	a := benchAnalyzed(b)
	compileAll := func(en *Engine) {
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
			compileAll(&Engine{Store: store})
		}
	})
	b.Run("hit", func(b *testing.B) {
		en := &Engine{Store: store}
		compileAll(en)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			compileAll(en)
		}
	})
}
