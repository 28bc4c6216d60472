package fuzzy

import (
	"context"
	"errors"
	"math"
	"testing"

	"threatraptor/internal/audit"
	"threatraptor/internal/engine"
	"threatraptor/internal/graphdb"
	"threatraptor/internal/tbql"
)

// buildLog plants the tar->passwd->upload chain plus benign noise.
func buildLog(t testing.TB) *audit.Log {
	t.Helper()
	log := audit.NewLog()
	tar := log.Entities.Intern(audit.NewProcessEntity(100, "/bin/tar", "root", "root", ""))
	passwd := log.Entities.Intern(audit.NewFileEntity("/etc/passwd", "root", "root"))
	up := log.Entities.Intern(audit.NewFileEntity("/tmp/upload.tar", "root", "root"))
	curl := log.Entities.Intern(audit.NewProcessEntity(101, "/usr/bin/curl", "root", "root", ""))
	c2 := log.Entities.Intern(audit.NewNetConnEntity("10.0.0.5", 40000, "192.168.29.128", 443, "tcp"))
	vim := log.Entities.Intern(audit.NewProcessEntity(200, "/usr/bin/vim", "alice", "staff", ""))
	notes := log.Entities.Intern(audit.NewFileEntity("/home/alice/notes.txt", "alice", "staff"))

	log.Append(audit.Event{SubjectID: tar.ID, ObjectID: passwd.ID, Op: audit.OpRead, StartTime: 10, EndTime: 11})
	log.Append(audit.Event{SubjectID: tar.ID, ObjectID: up.ID, Op: audit.OpWrite, StartTime: 20, EndTime: 21})
	log.Append(audit.Event{SubjectID: curl.ID, ObjectID: up.ID, Op: audit.OpRead, StartTime: 30, EndTime: 31})
	log.Append(audit.Event{SubjectID: curl.ID, ObjectID: c2.ID, Op: audit.OpConnect, StartTime: 40, EndTime: 41})
	log.Append(audit.Event{SubjectID: vim.ID, ObjectID: notes.ID, Op: audit.OpWrite, StartTime: 50, EndTime: 51})
	return log
}

// snapshotOf builds a store over log and pins its snapshot.
func snapshotOf(t testing.TB, log *audit.Log) *engine.Snapshot {
	t.Helper()
	store, err := engine.NewStore(log)
	if err != nil {
		t.Fatal(err)
	}
	return store.Snapshot()
}

// search runs s to completion under a context that is never cancelled.
func search(t testing.TB, s *Searcher) []Alignment {
	t.Helper()
	als, err := s.Search(nil)
	if err != nil {
		t.Fatal(err)
	}
	return als
}

func queryGraph(t testing.TB, src string) *QueryGraph {
	t.Helper()
	q, err := tbql.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	a, err := tbql.Analyze(q)
	if err != nil {
		t.Fatal(err)
	}
	qg, err := FromTBQL(a)
	if err != nil {
		t.Fatal(err)
	}
	return qg
}

const exactQuery = `proc p1["%/bin/tar%"] read file f1["%/etc/passwd%"] as e1
proc p1 write file f2["%/tmp/upload.tar%"] as e2
return distinct p1, f1, f2`

func TestExactAlignment(t *testing.T) {
	qg := queryGraph(t, exactQuery)
	s := NewSearcher(snapshotOf(t, buildLog(t)), qg, ModeExhaustive)
	als := search(t, s)
	if len(als) == 0 {
		t.Fatal("no alignment found")
	}
	al := als[0]
	if al.Score < 0.99 {
		t.Fatalf("score = %v, want ~1 for direct matches", al.Score)
	}
	// The aligned entities must be tar/passwd/upload.
	names := map[string]bool{}
	for _, id := range al.NodeMap {
		names[s.Name(id)] = true
	}
	for _, want := range []string{"/bin/tar", "/etc/passwd", "/tmp/upload.tar"} {
		if !names[want] {
			t.Errorf("missing aligned entity %q (got %v)", want, names)
		}
	}
	if len(al.Events) != 2 {
		t.Errorf("events = %v, want the 2 attack events", al.Events)
	}
}

func TestTypoToleranceInNodeAlignment(t *testing.T) {
	// "pass_wd" is a typo for "passwd" — exact search would miss it.
	qg := queryGraph(t, `proc p1["%/bin/tar%"] read file f1["%/etc/pass_wd%"] as e1
return distinct p1, f1`)
	// The TBQL wildcard "_" is stripped with the "%"s, leaving a clean
	// fuzzy pattern. Inject the typo directly instead.
	qg.Nodes[1].Pattern = "/etc/pasword" // two edits from /etc/passwd
	als := search(t, NewSearcher(snapshotOf(t, buildLog(t)), qg, ModeExhaustive))
	if len(als) == 0 {
		t.Fatal("typo in the IOC should still align via Levenshtein")
	}
}

func TestFlowPathSubstitutesForEdge(t *testing.T) {
	// tar -> c2 has no direct event; the flow tar->upload->curl->c2 spans
	// 3 events. The fuzzy mode scores it by attacker influence: one
	// process (curl) on the path scores 1/2.
	qg := queryGraph(t, `proc p1["%/bin/tar%"] connect ip i1["192.168.29.128"] as e1
return distinct p1, i1`)
	s := NewSearcher(snapshotOf(t, buildLog(t)), qg, ModeExhaustive)
	seed := s.componentSeed(make([]bool, len(qg.Nodes)))
	if len(s.Candidates[seed]) != 1 {
		t.Fatalf("seed candidates = %v, want one entity", s.Candidates[seed])
	}
	al := s.expand(context.Background(), seed, s.Candidates[seed][0])
	if al.Score != 0.5 || len(al.Events) != 3 {
		t.Fatalf("flow alignment = score %v over events %v, want 0.5 over the 3 flow events", al.Score, al.Events)
	}
	if als := search(t, s); len(als) != 0 {
		t.Fatalf("a flow scoring 0.5 must fall below the %v threshold: %+v", ScoreThreshold, als)
	}
}

// cancelAfter is a context whose Err reports cancellation from its
// (n+1)-th call on, so a test can cancel a search at a chosen checkpoint.
type cancelAfter struct {
	context.Context
	n int
}

func (c *cancelAfter) Err() error {
	if c.n == 0 {
		return context.Canceled
	}
	c.n--
	return nil
}

// TestSearchCancelsBetweenFlowLevels: the flow BFS checks the context at
// each level, so a cancellation between its first and second level
// surfaces as context.Canceled with no alignments.
func TestSearchCancelsBetweenFlowLevels(t *testing.T) {
	qg := queryGraph(t, `proc p1["%/bin/tar%"] connect ip i1["192.168.29.128"] as e1
return distinct p1, i1`)
	s := NewSearcher(snapshotOf(t, buildLog(t)), qg, ModeExhaustive)
	als, err := s.Search(&cancelAfter{Context: context.Background(), n: 1})
	if !errors.Is(err, context.Canceled) || als != nil {
		t.Fatalf("Search = %d alignments, err %v; want none and context.Canceled", len(als), err)
	}
}

func TestFirstAcceptableStopsEarly(t *testing.T) {
	snap := snapshotOf(t, buildLog(t))
	qg := queryGraph(t, exactQuery)
	ex := NewSearcher(snap, qg, ModeExhaustive)
	exAls := search(t, ex)
	fa := NewSearcher(snap, qg, ModeFirstAcceptable)
	faAls := search(t, fa)
	if len(faAls) > 1 {
		t.Fatalf("first-acceptable must return at most one alignment, got %d", len(faAls))
	}
	if len(faAls) == 1 && len(exAls) >= 1 && fa.Iterations > ex.Iterations {
		t.Fatalf("Poirot mode must not iterate more than exhaustive: %d vs %d",
			fa.Iterations, ex.Iterations)
	}
}

func TestNoAlignmentBelowThreshold(t *testing.T) {
	qg := queryGraph(t, `proc p1["%/bin/nonexistent%"] read file f1["%/no/file%"] as e1
return distinct p1, f1`)
	if als := search(t, NewSearcher(snapshotOf(t, buildLog(t)), qg, ModeExhaustive)); len(als) != 0 {
		t.Fatalf("nothing should align: %+v", als)
	}
}

func TestSimilarity(t *testing.T) {
	if Similarity("/etc/passwd", "/etc/passwd") != 1 {
		t.Error("identical strings")
	}
	if Similarity("/etc/passwd", "passwd") != 1 {
		t.Error("containment must score 1")
	}
	if s := Similarity("/etc/passwd", "/etc/pasword"); s < 0.6 || s >= 1 {
		t.Errorf("typo similarity = %v (must clear the default threshold)", s)
	}
	if s := Similarity("/bin/tar", "192.168.1.1"); s > 0.5 {
		t.Errorf("unrelated similarity = %v", s)
	}
	if Similarity("", "x") != 0 || Similarity("x", "") != 0 {
		t.Error("empty strings score 0")
	}
}

func TestLevenshtein(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0}, {"abc", "", 3}, {"", "ab", 2},
		{"kitten", "sitting", 3}, {"flaw", "lawn", 2}, {"same", "same", 0},
	}
	for _, c := range cases {
		if got := Levenshtein(c.a, c.b); got != c.want {
			t.Errorf("Levenshtein(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// TestProvenanceGraph pins what the Searcher reads of the store's graph:
// entities are its nodes, events its edges in start-time order, and
// VisitEventEdges lists a node's outgoing edges before its incoming ones
// (the direct-hit lookup stops a forward scan at the first incoming edge).
func TestProvenanceGraph(t *testing.T) {
	log := buildLog(t)
	snap := snapshotOf(t, log)
	if snap.Graph.NumNodes() != 7 || snap.Graph.NumEdges() != 5 {
		t.Fatalf("graph = %d nodes %d edges", snap.Graph.NumNodes(), snap.Graph.NumEdges())
	}
	s := NewSearcher(snap, &QueryGraph{Nodes: []QueryNode{{ID: "x"}}}, ModeExhaustive)
	tar := log.Entities.LookupKey("p:/bin/tar#100")
	curl := log.Entities.LookupKey("p:/usr/bin/curl#101")
	if tar == nil || curl == nil {
		t.Fatal("tar or curl missing")
	}
	if got := s.Name(tar.ID); got != "/bin/tar" {
		t.Errorf("Name = %q", got)
	}
	if s.Name(0) != "" || s.Name(int64(len(snap.Entities))+1) != "" {
		t.Error("an ID outside the snapshot must have an empty name")
	}
	// upload is written by tar (t=20), then read by curl (t=30).
	var others []int64
	snap.Graph.VisitEventEdges(log.Events[1].ObjectID, math.MaxInt64, func(ref graphdb.EventEdgeRef) bool {
		others = append(others, ref.Other)
		return true
	})
	if len(others) != 2 || others[0] != tar.ID || others[1] != curl.ID {
		t.Errorf("upload's neighbors = %v, want tar then curl", others)
	}
	// stage2 is started at t=22 and connects at t=30: the outgoing
	// connect comes first although it starts later.
	multi := multiConnLog(t)
	var dirs []bool
	snapshotOf(t, multi).Graph.VisitEventEdges(multi.Events[3].SubjectID, math.MaxInt64, func(ref graphdb.EventEdgeRef) bool {
		dirs = append(dirs, ref.Out)
		return true
	})
	if len(dirs) != 2 || !dirs[0] || dirs[1] {
		t.Errorf("stage2's edge directions = %v, want outgoing then incoming", dirs)
	}
}
