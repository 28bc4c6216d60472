package engine

import (
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"threatraptor/internal/audit"
)

// TestProductImportsNoTextParser pins that no query text reaches a
// backend: the SQL and Cypher readers (sqltext, cyphertext) are test
// support, and no package the product builds depends on either. Every
// Execute* and Explain path therefore runs on plan ASTs by construction;
// text exists only where EXPLAIN prints them.
func TestProductImportsNoTextParser(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(goBin, "list", "-deps", ".", "./cmd/...", "./examples/...")
	cmd.Dir = filepath.Join("..", "..")
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	deps := strings.Fields(string(out))
	if !slices.Contains(deps, "threatraptor/internal/engine") {
		t.Fatalf("go list -deps does not list the engine; the dependency scan is broken:\n%s", out)
	}
	for _, pkg := range deps {
		if strings.HasSuffix(pkg, "/sqltext") || strings.HasSuffix(pkg, "/cyphertext") {
			t.Errorf("the product depends on the test-only query reader %s", pkg)
		}
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
