package graphdb_test

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sort"
	"testing"

	. "threatraptor/internal/graphdb"
	"threatraptor/internal/graphdb/cyphertext"
	"threatraptor/internal/relational"
)

// floorGraph builds a small two-label graph with typed event edges whose
// element IDs are dense 1..n, mirroring the engine's event-edge invariant.
func floorGraph(t *testing.T, nProcs, nFiles, nEdges int, rng *rand.Rand) *Graph {
	t.Helper()
	g := NewGraph()
	for i := 0; i < nProcs; i++ {
		g.AddNode("Process", Props{"exename": relational.Str(fmt.Sprintf("/bin/p%d", i%5))})
	}
	for i := 0; i < nFiles; i++ {
		g.AddNode("File", Props{"name": relational.Str(fmt.Sprintf("/tmp/f%d", i%7))})
	}
	for i := 0; i < nEdges; i++ {
		typ := "read"
		if i%3 == 0 {
			typ = "write"
		}
		from := int64(1 + rng.Intn(nProcs))
		to := int64(nProcs + 1 + rng.Intn(nFiles))
		if _, err := g.AddEventEdge(from, to, typ, int64(i+1), int64(1000*(i+1)), int64(1000*(i+1)+1), 10); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// TestEdgeDrivenFloorMatchesAnchorDriven pins the delta fast path: a
// floored single-hop query answered by enumerating the edge-arena suffix
// must return exactly the rows of the anchor-driven walk with the same
// floor (which the multi-pattern shape still uses), under every floor and
// with binding sets attached.
func TestEdgeDrivenFloorMatchesAnchorDriven(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := floorGraph(t, 10, 12, 200, rng)

	q, err := cyphertext.Parse(`MATCH (s:Process)-[e:read]->(o:File) WHERE o.name = '/tmp/f3' RETURN e.id, s.id, o.id`)
	if err != nil {
		t.Fatal(err)
	}
	rows := func(params *ExecParams) []string {
		rs, _, err := g.ExecPrepared(nil, Prepare(q), params)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, r := range rs.Strings() {
			out = append(out, fmt.Sprint(r))
		}
		sort.Strings(out)
		return out
	}
	// The oracle is the unfloored run filtered by edge ID.
	all, _, err := g.ExecPrepared(nil, Prepare(q), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, floor := range []int64{1, 2, 57, 150, 200, 201} {
		got := rows(&ExecParams{MinEdgeID: floor})
		var want []string
		for _, r := range all.Rows {
			if r[0].I >= floor {
				s := make([]string, len(r))
				for i, v := range r {
					s[i] = v.String()
				}
				want = append(want, fmt.Sprint(s))
			}
		}
		sort.Strings(want)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("floor %d: edge-driven %v, want %v", floor, got, want)
		}
	}

	// With node binding sets on top of the floor (the scheduler's shape).
	subj := []int64{2, 3, 9}
	got := rows(&ExecParams{MinEdgeID: 50, Nodes: []NodeBinding{{Var: "s", IDs: subj}}})
	var want []string
	for _, r := range all.Rows {
		if r[0].I >= 50 && slices.Contains(subj, r[1].I) {
			s := make([]string, len(r))
			for i, v := range r {
				s[i] = v.String()
			}
			want = append(want, fmt.Sprint(s))
		}
	}
	sort.Strings(want)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("floor+binding: edge-driven %v, want %v", got, want)
	}
}

// mixedFloorGraph builds a graph of processes and files whose first
// nEdges random typed edges (dense IDs 1..n) run between any two nodes, so
// trails of every length and direction exist. Equal seeds give equal
// prefixes: the graph of the first k edges is the graph as it stood
// before edge k+1 was appended.
func mixedFloorGraph(t *testing.T, nEdges int, seed int64) *Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := NewGraph()
	const nProcs, nFiles = 6, 6
	for i := 0; i < nProcs; i++ {
		g.AddNode("Process", Props{"exename": relational.Str(fmt.Sprintf("/bin/p%d", i))})
	}
	for i := 0; i < nFiles; i++ {
		g.AddNode("File", Props{"name": relational.Str(fmt.Sprintf("/tmp/f%d", i))})
	}
	types := []string{"read", "write", "start"}
	for i := 0; i < nEdges; i++ {
		from := int64(1 + rng.Intn(nProcs+nFiles))
		to := int64(1 + rng.Intn(nProcs+nFiles))
		if _, err := g.AddEventEdge(from, to, types[rng.Intn(len(types))], int64(i+1), int64(1000*(i+1)), int64(1000*(i+1)+1), 10); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// TestMinEdgeIDFloorsEveryPatternShape pins the floor's one rule: a
// floored execution returns exactly the matches that traverse at least one
// edge with ID >= MinEdgeID. Matches are trails, and the trails that use
// only older edges are exactly the matches of the graph as it stood before
// the floor, so the floored rows must be the full rows minus that graph's
// rows, as multisets. The shapes cover the edge-driven single hop, an
// untyped two-hop path, and a typed var-length path whose floored edge may
// be intermediate.
func TestMinEdgeIDFloorsEveryPatternShape(t *testing.T) {
	const nEdges, seed = 60, 5
	queries := []string{
		`MATCH (s:Process)-[e:write]->(o:File) RETURN e.id, s.id, o.id`,
		`MATCH (s:Process)-[*2..2]-(o:File) RETURN s.id, o.id`,
		`MATCH (s:Process)-[*1..2]-(m)-[e:write]->(o:File) RETURN e.id, s.id, o.id`,
	}
	full := mixedFloorGraph(t, nEdges, seed)
	rows := func(g *Graph, q *Query, params *ExecParams) map[string]int {
		rs, _, err := g.ExecPrepared(nil, Prepare(q), params)
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]int{}
		for _, r := range rs.Strings() {
			out[fmt.Sprint(r)]++
		}
		return out
	}
	for _, src := range queries {
		q, err := cyphertext.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		all := rows(full, q, nil)
		fired := 0
		for _, floor := range []int64{1, 2, 20, 41, 60, 61} {
			want := maps.Clone(all)
			for r, n := range rows(mixedFloorGraph(t, int(floor-1), seed), q, nil) {
				if want[r] -= n; want[r] == 0 {
					delete(want, r)
				}
			}
			got := rows(full, q, &ExecParams{MinEdgeID: floor})
			if !maps.Equal(got, want) {
				t.Fatalf("%s floor %d:\n got  %v\n want %v", src, floor, got, want)
			}
			if floor > 1 && len(got) > 0 {
				fired++
			}
		}
		if fired == 0 {
			t.Fatalf("%s: no floor above 1 matched anything; the check is vacuous", src)
		}
	}
}

// TestMinEdgeIDIntermediateEdge pins the case the floor exists for: a
// typed var-length path whose final hop is old and whose only new edge is
// intermediate is a new match, and it stops being one once the floor
// passes that edge.
func TestMinEdgeIDIntermediateEdge(t *testing.T) {
	g := NewGraph()
	tar := g.AddNode("Process", Props{"exename": relational.Str("/bin/tar")})
	curl := g.AddNode("Process", Props{"exename": relational.Str("/usr/bin/curl")})
	ip := g.AddNode("NetConn", Props{"dstip": relational.Str("10.1.1.1")})
	if _, err := g.AddEventEdge(curl, ip, "connect", 1, 1000, 1001, 10); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddEventEdge(tar, curl, "start", 2, 2000, 2001, 10); err != nil {
		t.Fatal(err)
	}
	q, err := cyphertext.Parse(`MATCH (s:Process)-[*1..1]-(m)-[e:connect]->(o:NetConn) RETURN e.id, s.id, o.id`)
	if err != nil {
		t.Fatal(err)
	}
	for floor, want := range map[int64]string{1: "[[1 1 3]]", 2: "[[1 1 3]]", 3: "[]"} {
		rs, _, err := g.ExecPrepared(nil, Prepare(q), &ExecParams{MinEdgeID: floor})
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprint(rs.Strings()); got != want {
			t.Fatalf("floor %d: rows %s, want %s", floor, got, want)
		}
	}
}

// TestSortedLabelIntersectionAnchors pins that anchor enumeration through
// the label-list intersection trims a binding list to the label's nodes.
func TestSortedLabelIntersectionAnchors(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := floorGraph(t, 8, 8, 60, rng)
	q, err := cyphertext.Parse(`MATCH (s:Process)-[e:read]->(o:File) RETURN s.id, o.id`)
	if err != nil {
		t.Fatal(err)
	}
	// Binding list straddling both labels: intersection must trim it to
	// Process IDs (1..8) without changing the result.
	bind := []int64{1, 4, 9, 12, 16}
	objBind := []int64{9, 10, 11, 12, 13, 14, 15, 16, 999, 1000}
	withBinding := func() []string {
		rs, _, err := g.ExecPrepared(nil, Prepare(q), &ExecParams{Nodes: []NodeBinding{
			{Var: "s", IDs: bind}, {Var: "o", IDs: objBind}}})
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, r := range rs.Strings() {
			out = append(out, fmt.Sprint(r))
		}
		sort.Strings(out)
		return out
	}
	got := withBinding()

	// Reference: the same bindings as literal WHERE ID lists, which anchor
	// through idConstraint and check labels per candidate in bindNode.
	rs, _, err := cyphertext.Query(g, `MATCH (s:Process)-[e:read]->(o:File) WHERE s.id IN (1, 4, 9, 12, 16) AND o.id IN (9, 10, 11, 12, 13, 14, 15, 16, 999, 1000) RETURN s.id, o.id`)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, r := range rs.Strings() {
		want = append(want, fmt.Sprint(r))
	}
	sort.Strings(want)
	if len(want) == 0 || fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("sorted-intersection %v != literal-ID reference %v", got, want)
	}
}
