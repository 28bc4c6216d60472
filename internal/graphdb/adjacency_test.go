package graphdb

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"threatraptor/internal/relational"
)

// TestIntersectSortedIDs drives the galloping intersection against the
// map-based oracle on random sorted unique lists of skewed sizes.
func TestIntersectSortedIDs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	uniqueSorted := func(n, max int) []int64 {
		seen := map[int64]bool{}
		for len(seen) < n {
			seen[int64(rng.Intn(max))] = true
		}
		out := make([]int64, 0, n)
		for v := range seen {
			out = append(out, v)
		}
		sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
		return out
	}
	for trial := 0; trial < 200; trial++ {
		a := uniqueSorted(1+rng.Intn(20), 500)
		b := uniqueSorted(1+rng.Intn(400), 500)
		got := intersectSortedIDs(a, b, nil)
		inB := map[int64]bool{}
		for _, v := range b {
			inB[v] = true
		}
		var want []int64
		for _, v := range a {
			if inB[v] {
				want = append(want, v)
			}
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("trial %d: a=%v b=%v got %v want %v", trial, a, b, got, want)
		}
	}
	if got := intersectSortedIDs(nil, []int64{1, 2}, nil); len(got) != 0 {
		t.Fatalf("empty small side: %v", got)
	}
}

// TestOutOfOrderAppendResortsOnlyDirtyLists: edges appended out of time
// order must be re-sorted lazily, and only the touched adjacency lists
// should be dirty — the live-append invariant.
func TestOutOfOrderAppendResortsOnlyDirtyLists(t *testing.T) {
	g := NewGraph()
	a := g.AddNode("Process", Props{"exename": relational.Str("/bin/a")})
	b := g.AddNode("File", Props{"name": relational.Str("/tmp/b")})
	c := g.AddNode("File", Props{"name": relational.Str("/tmp/c")})

	ts := func(us int64) Props {
		return Props{"start_time": relational.Int(us), "end_time": relational.Int(us)}
	}
	// In-order edges to c: its lists must never be marked dirty.
	if _, err := g.AddEdge(a, c, "read", ts(10)); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddEdge(a, c, "read", ts(20)); err != nil {
		t.Fatal(err)
	}
	// Out-of-order edge to b (time 5 after time 10/20 went to a's out list).
	if _, err := g.AddEdge(a, b, "write", ts(5)); err != nil {
		t.Fatal(err)
	}
	if len(g.dirtyOut) != 1 {
		t.Fatalf("dirtyOut = %v, want exactly a's offset", g.dirtyOut)
	}
	if len(g.dirtyIn) != 0 {
		t.Fatalf("dirtyIn = %v, want empty (b got its first edge, c stayed ordered)", g.dirtyIn)
	}
	g.ensureAdjSorted()
	out := g.outOffsets(a)
	for i := 1; i < len(out); i++ {
		if g.edges[out[i-1]].startTime > g.edges[out[i]].startTime {
			t.Fatalf("a's out list unsorted after ensureAdjSorted: %v", out)
		}
	}
	if len(g.dirtyOut) != 0 || len(g.dirtyIn) != 0 {
		t.Fatal("dirty sets must be cleared")
	}
	// A windowed query over the re-sorted adjacency sees the early edge.
	startTime := relational.ColRef{Qualifier: "e", Column: "start_time"}
	q := &Query{
		Patterns: []Pattern{{
			Nodes: []NodePat{{Var: "s", Label: "Process"}, {Var: "o", Label: "File"}},
			Rels:  []RelPat{{Var: "e", Types: []string{"write"}, Dir: DirOut, Min: 1, Max: 1}},
		}},
		Where: relational.BinOp{Op: "and",
			L: relational.BinOp{Op: ">=", L: startTime, R: relational.Lit{V: relational.Int(0)}},
			R: relational.BinOp{Op: "<=", L: startTime, R: relational.Lit{V: relational.Int(7)}}},
		Return: []ReturnItem{{Var: "o", Prop: "name"}},
	}
	if got, want := q.String(), "MATCH (s:Process)-[e:write]->(o:File) WHERE e.start_time >= 0 AND e.start_time <= 7 RETURN o.name"; got != want {
		t.Fatalf("query prints %q, want %q", got, want)
	}
	rs, _, err := g.ExecPrepared(nil, Prepare(q), nil)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() != 1 || rs.Rows[0][0].S != "/tmp/b" {
		t.Fatalf("windowed query after late append = %v", rs.Strings())
	}
}
