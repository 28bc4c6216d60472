package engine

import (
	"runtime"
	"testing"

	"threatraptor/internal/audit"
	"threatraptor/internal/cases"
	"threatraptor/internal/extract"
	"threatraptor/internal/relational"
	"threatraptor/internal/synth"
	"threatraptor/internal/tbql"
)

// TestExecutionPathEquivalence guards the storage/executor refactor: the
// scheduled plan, the unscheduled ablation, and the monolithic SQL and
// Cypher plans — lowered straight from the analyzed query, an independent
// reference on each backend — must return identical result sets (compared
// as sorted rows) for the TBQL query synthesized from every generated
// case's report. Each monolithic plan's printed text must also parse and
// return the same rows through the backend's parser-fed entry point.
func TestExecutionPathEquivalence(t *testing.T) {
	for _, c := range cases.All() {
		c := c
		t.Run(c.ID, func(t *testing.T) {
			gen, err := c.Generate(0.5)
			if err != nil {
				t.Fatal(err)
			}
			store, err := NewStore(gen.Log)
			if err != nil {
				t.Fatal(err)
			}
			graph := extract.New(extract.DefaultOptions()).Extract(c.Report).Graph
			q, _, err := synth.Synthesize(graph, synth.Options{})
			if err != nil {
				t.Fatal(err)
			}
			a, err := tbql.Analyze(q)
			if err != nil {
				t.Fatal(err)
			}

			sched := &Engine{Store: store}
			res, _, err := sched.Execute(nil, a)
			if err != nil {
				t.Fatalf("scheduled: %v", err)
			}
			want := res.Set.Strings()

			unsched := &Engine{Store: store, DisableScheduling: true}
			ures, _, err := unsched.Execute(nil, a)
			if err != nil {
				t.Fatalf("unscheduled: %v", err)
			}
			if !sameRows(want, ures.Set.Strings()) {
				t.Errorf("unscheduled differs:\n%v\n%v", want, ures.Set.Strings())
			}

			cres, _, err := sched.ExecuteMonolithicCypher(nil, a)
			if err != nil {
				t.Fatalf("monolithic Cypher: %v", err)
			}
			if !sameRows(want, cres.Strings()) {
				t.Errorf("monolithic Cypher differs:\n%v\n%v", want, cres.Strings())
			}
			cy, err := CompileMonolithicCypher(store, a)
			if err != nil {
				t.Fatal(err)
			}
			if trs, err := store.Graph.Query(cy); err != nil {
				t.Errorf("printed monolithic Cypher: %v\n%s", err, cy)
			} else if !sameRows(cres.Strings(), trs.Strings()) {
				t.Errorf("printed monolithic Cypher differs:\n%v\n%v", cres.Strings(), trs.Strings())
			}

			mres, _, err := sched.ExecuteMonolithicSQL(nil, a)
			if err != nil {
				// Variable-length path patterns cannot compile to one SQL
				// statement; that is the documented monolithic limitation,
				// not an equivalence failure.
				if !HasVarLenPath(a) {
					t.Fatalf("monolithic SQL: %v", err)
				}
				return
			}
			if !sameRows(want, mres.Strings()) {
				t.Errorf("monolithic SQL differs:\n%v\n%v", want, mres.Strings())
			}
			sql, err := CompileMonolithicSQL(store, a)
			if err != nil {
				t.Fatal(err)
			}
			if trs, err := store.Rel.Query(sql); err != nil {
				t.Errorf("printed monolithic SQL: %v\n%s", err, sql)
			} else if !sameRows(mres.Strings(), trs.Strings()) {
				t.Errorf("printed monolithic SQL differs:\n%v\n%v", mres.Strings(), trs.Strings())
			}
		})
	}
}

// TestBatchSizeEquivalence sweeps the vectorized executor's batch size
// across degenerate (1), tiny, and whole-table settings — so the case
// tables land on 0, 1, exactly-one-batch, batch±1, and many-batch
// boundaries — and forces the sharded scan path, asserting every
// configuration returns exactly the default configuration's results on
// the scheduled and monolithic SQL plans.
func TestBatchSizeEquivalence(t *testing.T) {
	origBS, origShard := relational.BatchSize, relational.ShardMinRows
	defer func() {
		relational.BatchSize = origBS
		relational.ShardMinRows = origShard
	}()
	// The forced-sharding configuration needs GOMAXPROCS > 1 to actually
	// take the sharded path; make that true on single-CPU machines too.
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}

	store, _ := dataLeakStore(t, 400)
	a := analyzed(t, dataLeakTBQL)

	execAll := func(en *Engine) [][][]string {
		t.Helper()
		res, _, err := en.Execute(nil, a)
		if err != nil {
			t.Fatal(err)
		}
		mres, _, err := en.ExecuteMonolithicSQL(nil, a)
		if err != nil {
			t.Fatal(err)
		}
		return [][][]string{res.Set.Strings(), mres.Strings()}
	}

	want := execAll(&Engine{Store: store})
	if len(want[0]) == 0 {
		t.Fatal("default execution returned no rows; boundary sweep would be vacuous")
	}
	configs := []struct {
		name     string
		batch    int
		shardMin int
	}{
		{"batch1", 1, 1 << 30},
		{"batch2", 2, 1 << 30},
		{"batch7", 7, 1 << 30},
		{"batch64", 64, 1 << 30},
		{"wholeTable", 1 << 20, 1 << 30},
		{"sharded", 64, 64},
	}
	for _, cfg := range configs {
		relational.BatchSize = cfg.batch
		relational.ShardMinRows = cfg.shardMin
		// Fresh engine: plans cache fine (batch size is read per
		// execution), but a fresh one also exercises re-planning.
		got := execAll(&Engine{Store: store})
		for path := range want {
			if !sameRows(want[path], got[path]) {
				t.Errorf("%s path %d differs from default:\n%v\n%v",
					cfg.name, path, want[path], got[path])
			}
		}
	}
}

// TestHashJoinSelfLoopPatterns regression-tests the 2-pattern hash join
// when both patterns use one variable as subject and object: up to four
// shared column pairs arise, which must not overflow the join key.
func TestHashJoinSelfLoopPatterns(t *testing.T) {
	sim := audit.NewSimulator(99, 1_700_000_000_000_000)
	parent := audit.Proc{PID: 100, Exe: "/bin/parent", User: "u", Group: "g"}
	child := audit.Proc{PID: 101, Exe: "/bin/child", User: "u", Group: "g"}
	sim.StartProcess(parent, child)
	sim.Advance(1_000_000)
	sim.EndProcess(child)
	parser := audit.NewParser()
	for _, r := range sim.Records() {
		if err := parser.Feed(&r); err != nil {
			t.Fatal(err)
		}
	}
	store, err := NewStore(parser.Log())
	if err != nil {
		t.Fatal(err)
	}
	en := &Engine{Store: store}
	src := `proc p start proc p as e1
proc p end proc p as e2
return distinct p`
	res, _, err := en.Hunt(nil, src)
	if err != nil {
		t.Fatal(err)
	}
	// Both patterns force subject == object; only the self-referential
	// end event (subject == object == child) can satisfy its pattern, and
	// the start event never has subject == object, so no binding exists.
	if res.Set.Len() != 0 {
		t.Fatalf("self-loop conjunction should not match: %v", res.Set.Strings())
	}
}
