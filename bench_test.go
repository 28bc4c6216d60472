package threatraptor

// One benchmark per table/figure of the paper's evaluation section. Run:
//
//	go test -bench=. -benchmem
//
// The experiment harness (cmd/experiments) prints the tables themselves;
// these benchmarks measure the steady-state cost of each table's hot path.

import (
	"fmt"
	"strings"
	"testing"

	"threatraptor/internal/cases"
	"threatraptor/internal/engine"
	"threatraptor/internal/extract"
	"threatraptor/internal/openie"
	"threatraptor/internal/reduction"
	"threatraptor/internal/synth"
	"threatraptor/internal/tbql"
)

func dataLeakCase(b *testing.B, scale float64) (*cases.Case, *cases.GeneratedLog) {
	b.Helper()
	c := cases.ByID("data_leak")
	gen, err := c.Generate(scale)
	if err != nil {
		b.Fatal(err)
	}
	return c, gen
}

func dataLeakAnalyzed(b *testing.B) (*engine.Engine, *tbql.Analyzed, *tbql.Analyzed) {
	b.Helper()
	c, gen := dataLeakCase(b, 1.0)
	store, err := engine.NewStore(gen.Log)
	if err != nil {
		b.Fatal(err)
	}
	graph := extract.New(extract.DefaultOptions()).Extract(c.Report).Graph
	qa, _, err := synth.Synthesize(graph, synth.Options{})
	if err != nil {
		b.Fatal(err)
	}
	aa, err := tbql.Analyze(qa)
	if err != nil {
		b.Fatal(err)
	}
	qc, _, err := synth.Synthesize(graph, synth.Options{Mode: synth.ModeLength1Paths})
	if err != nil {
		b.Fatal(err)
	}
	ac, err := tbql.Analyze(qc)
	if err != nil {
		b.Fatal(err)
	}
	return &engine.Engine{Store: store}, aa, ac
}

// BenchmarkTable5Extraction measures ThreatRaptor's threat behavior
// extraction over all 18 case reports (Table V's subject).
func BenchmarkTable5Extraction(b *testing.B) {
	ex := extract.New(extract.DefaultOptions())
	all := cases.All()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range all {
			ex.Extract(c.Report)
		}
	}
}

// BenchmarkTable5OpenIEBaseline measures the Stanford-Open-IE-style
// baseline on the same reports.
func BenchmarkTable5OpenIEBaseline(b *testing.B) {
	ie := openie.NewClauseIE(true)
	all := cases.All()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range all {
			ie.Extract(c.Report)
		}
	}
}

// BenchmarkTable6Hunt measures the end-to-end hunt (extract → synthesize →
// execute) on the data_leak case (Table VI's subject).
func BenchmarkTable6Hunt(b *testing.B) {
	c, gen := dataLeakCase(b, 1.0)
	sys := New(DefaultOptions())
	if err := sys.LoadLog(gen.Log); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sys.HuntOSCTI(nil, c.Report); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHuntOSCTI measures the whole report-to-rows pipeline
// (extract, synthesize, compile, execute) on the data_leak store.
// verbatim repeats the data_leak report, whose query the engine has
// cached. perturbed substitutes one of the report's IOCs per request, as
// the cti-burst workload does for 70% of its requests, cycling through
// more distinct reports than the compiled-query cache holds: each
// synthesized query is new to the cache (its shape is not).
func BenchmarkHuntOSCTI(b *testing.B) {
	c, gen := dataLeakCase(b, 1.0)
	sys := New(DefaultOptions())
	if err := sys.LoadLog(gen.Log); err != nil {
		b.Fatal(err)
	}
	if _, res, err := sys.HuntOSCTI(nil, c.Report); err != nil || res.Set.Len() != 1 {
		b.Fatalf("the data_leak report must find its attack: %v", err)
	}
	iocs := []string{"/bin/tar", "/etc/passwd", "/bin/bzip2", "/tmp/upload.tar.bz2", "/usr/bin/gpg", "/usr/bin/curl", "192.168.29.128"}
	perturbed := make([]string, 1024)
	for i := range perturbed {
		old := iocs[i%len(iocs)]
		sub := fmt.Sprintf("%s-%06x", old, i)
		if strings.Count(old, ".") == 3 {
			sub = fmt.Sprintf("192.168.%d.%d", 1+i/250, 1+i%250)
		}
		perturbed[i] = strings.ReplaceAll(c.Report, old, sub)
	}
	for _, leg := range []struct {
		name    string
		reports []string
	}{{"verbatim", []string{c.Report}}, {"perturbed", perturbed}} {
		b.Run(leg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := sys.HuntOSCTI(nil, leg.reports[i%len(leg.reports)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable7Stages measures the three pipeline stages on the Figure 2
// report (Table VII's subject).
func BenchmarkTable7Stages(b *testing.B) {
	c := cases.ByID("data_leak")
	ex := extract.New(extract.DefaultOptions())
	b.Run("extract", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ex.Extract(c.Report)
		}
	})
	graph := ex.Extract(c.Report).Graph
	b.Run("synthesize", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := synth.Synthesize(graph, synth.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTable8QueryExecution measures the four query forms of RQ4 on
// the data_leak store.
func BenchmarkTable8QueryExecution(b *testing.B) {
	en, aa, ac := dataLeakAnalyzed(b)
	b.Run("tbql-scheduled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := en.Execute(nil, aa); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sql-monolithic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := en.ExecuteMonolithicSQL(nil, aa); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("tbql-len1-path", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := en.Execute(nil, ac); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cypher-monolithic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := en.ExecuteMonolithicCypher(nil, aa); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTable8SchedulerAblation isolates the scheduler's contribution:
// the same per-pattern plan with pruning-score ordering and constraint
// feeding disabled.
func BenchmarkTable8SchedulerAblation(b *testing.B) {
	en, aa, _ := dataLeakAnalyzed(b)
	naive := &engine.Engine{Store: en.Store, DisableScheduling: true}
	b.Run("scheduled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := en.Execute(nil, aa); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("unscheduled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := naive.Execute(nil, aa); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFuzzyHunt measures Table IX's fuzzy search mode and the
// Poirot baseline end to end through System.FuzzyHunt (parse, node-level
// alignment, graph alignment over the store's pinned snapshot) on
// data_leak ×32, ≥ 60 k events: large enough that per-call work over the
// whole store, not the query, sets the cost.
func BenchmarkFuzzyHunt(b *testing.B) {
	c, gen := dataLeakCase(b, 32)
	sys := New(DefaultOptions())
	if err := sys.LoadLog(gen.Log); err != nil {
		b.Fatal(err)
	}
	query, err := sys.SynthesizeQuery(sys.ExtractBehaviorGraph(c.Report).Graph)
	if err != nil {
		b.Fatal(err)
	}
	for _, leg := range []struct {
		name       string
		exhaustive bool
	}{{"exhaustive", true}, {"poirot", false}} {
		b.Run(leg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				als, err := sys.FuzzyHunt(nil, query, leg.exhaustive)
				if err != nil {
					b.Fatal(err)
				}
				if len(als) == 0 {
					b.Fatal("no alignment")
				}
			}
		})
	}
}

// BenchmarkTable10Conciseness measures query compilation (the formatter
// and the SQL/Cypher compilers that Table X counts).
func BenchmarkTable10Conciseness(b *testing.B) {
	en, aa, _ := dataLeakAnalyzed(b)
	b.Run("tbql-format", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tbql.Format(aa.Query)
		}
	})
	b.Run("sql-compile", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := engine.CompileMonolithicSQL(en.Store, aa); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cypher-compile", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := engine.CompileMonolithicCypher(en.Store, aa); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDataReduction measures the Section III-B reduction pass
// (ablation knob: the merge threshold).
func BenchmarkDataReduction(b *testing.B) {
	c := cases.ByID("data_leak")
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		gen, err := c.Generate(1.0) // Generate includes reduction; rebuild raw
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		reduction.Reduce(gen.Log, reduction.DefaultConfig())
	}
}

// BenchmarkStoreLoad measures loading a reduced log into both backends.
func BenchmarkStoreLoad(b *testing.B) {
	_, gen := dataLeakCase(b, 1.0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.NewStore(gen.Log); err != nil {
			b.Fatal(err)
		}
	}
}
