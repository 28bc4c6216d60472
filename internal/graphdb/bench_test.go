package graphdb

import (
	"fmt"
	"testing"

	"threatraptor/internal/relational"
)

// chainGraph builds n nodes n0 -> n1 -> ... -> n(n-1) linked by "hop"
// edges in time order.
func chainGraph(n int) *Graph {
	g := NewGraph()
	ids := make([]int64, n)
	for i := 0; i < n; i++ {
		ids[i] = g.AddNode("N", Props{"name": relational.Str(fmt.Sprintf("n%d", i))})
	}
	for i := 0; i+1 < n; i++ {
		g.AddEdge(ids[i], ids[i+1], "hop", Props{"start_time": relational.Int(int64(i))})
	}
	return g
}

// exactDepthQuery prepares the query matching the nodes exactly depth
// hops from n0; arrow is the hop's tail, "->" (outgoing) or "-" (either
// direction). The query is built as an AST and must print as its text.
func exactDepthQuery(t testing.TB, depth int, arrow string) *Prepared {
	dir := DirOut
	if arrow == "-" {
		dir = DirBoth
	}
	q := &Query{
		Patterns: []Pattern{{
			Nodes: []NodePat{{Var: "a", Label: "N", Props: Props{"name": relational.Str("n0")}}, {Var: "x", Label: "N"}},
			Rels:  []RelPat{{Dir: dir, Min: depth, Max: depth}},
		}},
		Return: []ReturnItem{{Var: "x", Prop: "name"}},
	}
	if got, want := q.String(), fmt.Sprintf(
		`MATCH (a:N {name: 'n0'})-[*%d..%d]%s(x:N) RETURN x.name`, depth, depth, arrow); got != want {
		t.Fatalf("query prints %q, want %q", got, want)
	}
	return Prepare(q)
}

// TestVarLenDFSConstantAllocs guards the visited-bitset traversal: the
// per-hop cost of a variable-length DFS must not allocate, so executions
// at depth 8 and depth 64 differ by at most the bitset sizing — with the
// old map-per-hop tracking, the deeper walk paid growing map allocations.
// The direction-agnostic leg walks each node's outgoing and incoming lists
// in turn; a concatenated copy per step would grow with depth.
func TestVarLenDFSConstantAllocs(t *testing.T) {
	g := chainGraph(80)
	g.ensureAdjSorted()
	for _, arrow := range []string{"->", "-"} {
		measure := func(depth int) float64 {
			q := exactDepthQuery(t, depth, arrow)
			// Warm once so lazy structures exist before measuring.
			if _, _, err := g.ExecPrepared(nil, q, nil); err != nil {
				t.Fatal(err)
			}
			return testing.AllocsPerRun(50, func() {
				if _, _, err := g.ExecPrepared(nil, q, nil); err != nil {
					t.Fatal(err)
				}
			})
		}
		shallow := measure(8)
		deep := measure(64)
		if deep-shallow > 4 {
			t.Fatalf("-[*]%s: var-length DFS allocs grow with depth: %v at depth 8 vs %v at depth 64", arrow, shallow, deep)
		}
	}
}

// BenchmarkVarLenDFS measures the edge-unique DFS over a 256-node chain
// (255 hops explored per execution, one anchored traversal).
func BenchmarkVarLenDFS(b *testing.B) {
	g := chainGraph(256)
	g.ensureAdjSorted()
	q := exactDepthQuery(b, 255, "->")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs, _, err := g.ExecPrepared(nil, q, nil)
		if err != nil {
			b.Fatal(err)
		}
		if rs.Len() != 1 {
			b.Fatalf("rows = %d", rs.Len())
		}
	}
}
