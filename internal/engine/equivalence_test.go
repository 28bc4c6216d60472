package engine

import (
	"context"
	"fmt"
	"testing"

	"threatraptor/internal/audit"
	"threatraptor/internal/cases"
	"threatraptor/internal/extract"
	"threatraptor/internal/graphdb"
	"threatraptor/internal/graphdb/cyphertext"
	"threatraptor/internal/relational"
	"threatraptor/internal/relational/sqltext"
	"threatraptor/internal/synth"
	"threatraptor/internal/tbql"
)

// TestExecutionPathEquivalence guards the storage/executor refactor: the
// scheduled plan, the unscheduled ablation, and the monolithic SQL and
// Cypher plans — lowered straight from the analyzed query, an independent
// reference on each backend — must return identical result sets (compared
// as sorted rows) for the TBQL query synthesized from every generated
// case's report, in each synthesis mode: event patterns (relational data
// queries), length-1 paths and bounded variable-length paths (graph data
// queries anchored through the entity prefilter). Every mode is also held
// to the unfiltered reference, the scheduled plan with graph patterns
// traversing without the prefilter. Each monolithic
// plan's printed text must also parse and return the same rows through
// the backend's parser-fed entry point.
func TestExecutionPathEquivalence(t *testing.T) {
	// Variable-length paths are bounded at 3 hops (unbounded edge-unique
	// searches over a 0.5-scale case store run for minutes on any plan),
	// and skip the clause-at-a-time monolithic Cypher, whose per-clause
	// path materializations exhaust memory on the larger cases.
	modes := []struct {
		name       string
		opts       synth.Options
		monolithic bool
	}{
		{"event", synth.Options{Mode: synth.ModeEventPatterns}, true},
		{"path1", synth.Options{Mode: synth.ModeLength1Paths}, true},
		{"varlen", synth.Options{Mode: synth.ModeVarLenPaths, MaxPathLen: 3}, false},
	}
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
			for _, m := range modes {
				t.Run(m.name, func(t *testing.T) {
					q, _, err := synth.Synthesize(graph, m.opts)
					if err != nil {
						t.Fatal(err)
					}
					a, err := tbql.Analyze(q)
					if err != nil {
						t.Fatal(err)
					}
					checkPathEquivalence(t, store, a, m.monolithic)
				})
			}
		})
	}
}

func checkPathEquivalence(t *testing.T, store *Store, a *tbql.Analyzed, monolithic bool) {
	t.Helper()
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
	if ref := unfilteredReference(t, store, a); !sameRows(want, ref.Set.Strings()) ||
		fmt.Sprint(sortedIDs(res.MatchedEvents)) != fmt.Sprint(sortedIDs(ref.MatchedEvents)) {
		t.Errorf("unfiltered reference differs:\n%v\n%v", want, ref.Set.Strings())
	}
	if !monolithic {
		return
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
	if trs, _, err := cyphertext.Query(store.Graph, cy); err != nil {
		t.Errorf("printed monolithic Cypher: %v\n%s", err, cy)
	} else if !sameRows(cres.Strings(), trs.Strings()) {
		t.Errorf("printed monolithic Cypher differs:\n%v\n%v", cres.Strings(), trs.Strings())
	}

	mres, _, err := sched.ExecuteMonolithicSQL(nil, a)
	if err != nil {
		// Variable-length path patterns cannot compile to one SQL
		// statement; that is the documented monolithic limitation, not an
		// equivalence failure.
		pats := sched.planFor(a, store.Snapshot(), false).pats
		for i := range pats {
			if pats[i].meta.VarLen {
				return
			}
		}
		t.Fatalf("monolithic SQL: %v", err)
	}
	if !sameRows(want, mres.Strings()) {
		t.Errorf("monolithic SQL differs:\n%v\n%v", want, mres.Strings())
	}
	sql, err := CompileMonolithicSQL(store, a)
	if err != nil {
		t.Fatal(err)
	}
	if trs, _, err := sqltext.Query(store.Rel, sql); err != nil {
		t.Errorf("printed monolithic SQL: %v\n%s", err, sql)
	} else if !sameRows(mres.Strings(), trs.Strings()) {
		t.Errorf("printed monolithic SQL differs:\n%v\n%v", mres.Strings(), trs.Strings())
	}
}

// unfilteredReference runs the scheduled plan over a row source whose
// graph patterns traverse without the anchor prefilter: each anchors on
// its binding set when the scheduler has one, else on every node of its
// label, and tests its predicates in the traversal.
func unfilteredReference(t *testing.T, store *Store, a *tbql.Analyzed) *Result {
	t.Helper()
	en := &Engine{Store: store}
	snap := store.Snapshot()
	plan := en.planFor(a, snap, false)
	src := func(ctx context.Context, q PatternQuery) (PatternRows, Stats, error) {
		pp := &plan.pats[q.Idx]
		if !pp.meta.UsesGraph {
			return en.runPattern(ctx, a, plan, snap, q, nil)
		}
		params := &graphdb.ExecParams{View: &snap.Graph, Vals: a.Lits}
		if q.Subj != nil {
			params.Nodes = append(params.Nodes, graphdb.NodeBinding{Var: "s", IDs: q.Subj})
		}
		if q.Obj != nil {
			params.Nodes = append(params.Nodes, graphdb.NodeBinding{Var: "o", IDs: q.Obj})
		}
		rs, _, err := store.Graph.ExecPrepared(ctx, pp.gp, params)
		if err != nil {
			return PatternRows{}, Stats{}, err
		}
		pr := PatternRows{Idx: q.Idx, HasEvent: len(rs.Columns) == 5}
		for _, row := range rs.Rows {
			if pr.HasEvent {
				pr.Rows = append(pr.Rows, [5]int64{row[0].I, row[1].I, row[2].I, row[3].I, row[4].I})
			} else {
				pr.Rows = append(pr.Rows, [5]int64{0, row[0].I, row[1].I, 0, 0})
			}
		}
		return pr, Stats{}, nil
	}
	res, _, err := en.ExecuteSource(nil, a, snap, src)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestBatchSizeEquivalence sweeps the vectorized executor's batch size
// across degenerate (1), tiny, and whole-table settings — so the case
// tables land on 0, 1, exactly-one-batch, batch±1, and many-batch
// boundaries — asserting every configuration returns exactly the default
// configuration's results on the scheduled and monolithic SQL plans.
func TestBatchSizeEquivalence(t *testing.T) {
	defer func(bs int) { relational.BatchSize = bs }(relational.BatchSize)

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
		name  string
		batch int
	}{
		{"batch1", 1},
		{"batch2", 2},
		{"batch7", 7},
		{"batch64", 64},
		{"wholeTable", 1 << 20},
	}
	for _, cfg := range configs {
		relational.BatchSize = cfg.batch
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

// TestHashJoinSelfLoopPatterns regression-tests the join when both
// patterns use one variable as subject and object (the previous 2-pattern
// hash join overflowed its key on the four shared column pairs; the walk
// probes the bound slot and requires column 1 == column 2).
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
