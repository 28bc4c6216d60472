package engine

import (
	"testing"

	"threatraptor/internal/audit"
	"threatraptor/internal/graphdb"
	"threatraptor/internal/relational"
)

// TestExecutePathsInvokeNoParser pins the logical-plan IR refactor's core
// invariant: no relational or graph query parser runs on any Execute*
// path. Every pattern lowers to a backend plan AST; binding sets and delta
// floors bind as parameters. The text generators exist only behind
// EXPLAIN.
func TestExecutePathsInvokeNoParser(t *testing.T) {
	store, _ := dataLeakStore(t, 200)
	a := analyzed(t, dataLeakTBQL)
	aPath := analyzed(t, `proc p["%/bin/tar%"] ~>(1~3) file f["%upload%"] return distinct p, f`)

	en := &Engine{Store: store}
	enUnsched := &Engine{Store: store, DisableScheduling: true}

	rel0, gr0 := relational.ParseCalls(), graphdb.ParseCalls()

	for _, run := range []func() error{
		func() error { _, _, err := en.Execute(nil, a); return err },
		func() error { _, _, err := enUnsched.Execute(nil, a); return err },
		func() error { _, _, err := en.ExecuteDelta(nil, a, 1); return err },
		func() error { _, _, err := en.ExecuteMonolithicSQL(nil, a); return err },
		func() error { _, _, err := en.ExecuteMonolithicCypher(nil, a); return err },
		func() error { _, _, err := en.Execute(nil, aPath); return err },
		func() error { _, _, err := en.ExecuteDelta(nil, aPath, 1); return err },
		func() error { _, err := en.MatchEventsPerPattern(nil, a); return err },
		func() error { _, _, err := en.Hunt(nil, dataLeakTBQL); return err },
	} {
		if err := run(); err != nil {
			t.Fatal(err)
		}
	}

	if got := relational.ParseCalls(); got != rel0 {
		t.Errorf("execution invoked the SQL parser %d times", got-rel0)
	}
	if got := graphdb.ParseCalls(); got != gr0 {
		t.Errorf("execution invoked the Cypher parser %d times", got-gr0)
	}

	// The EXPLAIN path is the one place text still renders; it must not
	// have been exercised by the executions above, and exercising it now
	// must not require the executor (text renders parse nothing either —
	// parsing only happens if a caller feeds the text back to a backend).
	if _, err := en.Explain(a); err != nil {
		t.Fatal(err)
	}
}

// TestGraphEdgeIDsMatchEventIDs pins the invariant the standing-query
// delta floor relies on in the graph backend: every stored event's graph
// edge element ID equals its audit event ID, for batch-built and
// append-built stores alike. If ingest ever skips, reorders, or merges an
// event ID (or inserts a non-event edge), the graphdb MinEdgeID floor
// would silently misfilter — this test turns that into a loud failure.
func TestGraphEdgeIDsMatchEventIDs(t *testing.T) {
	check := func(name string, s *Store) {
		t.Helper()
		if n, m := s.Graph.NumEdges(), len(s.Log.Events); n != m {
			t.Fatalf("%s: %d edges, %d events", name, n, m)
		}
		for i := range s.Log.Events {
			ev := &s.Log.Events[i]
			e := s.Graph.Edge(ev.ID)
			if e == nil {
				t.Fatalf("%s: event %d has no edge with that element ID", name, ev.ID)
			}
			if id, ok := e.Prop("id"); !ok || id.I != ev.ID {
				t.Fatalf("%s: edge %d carries event id %v", name, ev.ID, id)
			}
			if e.From != ev.SubjectID || e.To != ev.ObjectID {
				t.Fatalf("%s: edge %d endpoints (%d,%d) != event (%d,%d)",
					name, ev.ID, e.From, e.To, ev.SubjectID, ev.ObjectID)
			}
		}
	}
	full, _ := dataLeakStore(t, 200)
	check("batch", full)

	half := len(full.Log.Events) / 2
	liveLog := &audit.Log{Entities: full.Log.Entities,
		Events: append([]audit.Event(nil), full.Log.Events[:half]...)}
	live, err := NewStore(liveLog)
	if err != nil {
		t.Fatal(err)
	}
	if err := live.AppendBatch(nil, append([]audit.Event(nil), full.Log.Events[half:]...)); err != nil {
		t.Fatal(err)
	}
	check("append", live)
}
