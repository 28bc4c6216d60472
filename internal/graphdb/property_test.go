package graphdb_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	. "threatraptor/internal/graphdb"
	"threatraptor/internal/graphdb/cyphertext"
	"threatraptor/internal/relational"
)

// varLenCase is one differential case for variable-length hops: a small
// multigraph (parallel edges, self-loops, two edge types, nodes labelled P
// or Q) and a query whose first hop is variable-length.
type varLenCase struct {
	labels []string // node i+1's label
	edges  [][3]int // from, to (node offsets), type ("a" or "b")
	hop    RelPat   // the variable-length hop
	// dstLabel labels the hop's destination in the plain shape and the
	// final node in the other two.
	dstLabel string
	// shape 0 is "(s:P)-[hop](x)"; shape 1 adds the engine's typed final
	// hop "(s:P)-[hop](m)-[e:a]->(o)"; shape 2 nests a second var-length
	// hop "(s:P)-[hop](m)-[*1..2]->(x)".
	shape int
	// bind, when non-nil, restricts the hop destination's variable to
	// these node IDs through ExecParams (as the engine binds "o").
	bind []int64
	view bool // pin the execution to a captured View
}

// decodeVarLenCase decodes a case from bytes (zero once they run out).
// Sizes are capped so the trail DFS stays small: at most 8 nodes, 12
// edges and 4 hops, unbounded only over at most 6 edges.
func decodeVarLenCase(data []byte) varLenCase {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	var c varLenCase
	n := 1 + next()%8
	for i := 0; i < n; i++ {
		c.labels = append(c.labels, []string{"P", "Q"}[next()&1])
	}
	for i, m := 0, next()%13; i < m; i++ {
		c.edges = append(c.edges, [3]int{next() % n, next() % n, next() & 1})
	}
	c.hop = RelPat{Dir: Direction(next() % 3), Min: next() % 3}
	c.hop.Max = c.hop.Min + next()%3
	if next()%8 == 0 && len(c.edges) <= 6 {
		c.hop.Max = -1
	}
	c.hop.Types = [][]string{nil, {"a"}, {"b", "a"}}[next()%3]
	c.dstLabel = []string{"", "P", "Q"}[next()%3]
	c.shape = next() % 3
	if next()%3 == 0 {
		mask := next()
		c.bind = []int64{}
		for i := 0; i < n; i++ {
			if mask&(1<<(i%8)) != 0 {
				c.bind = append(c.bind, int64(i+1))
			}
		}
	}
	c.view = next()&1 == 1
	return c
}

func (c varLenCase) graph(t testing.TB) *Graph {
	g := NewGraph()
	for i, label := range c.labels {
		g.AddNode(label, Props{"name": str(fmt.Sprintf("n%d", i))})
	}
	for _, e := range c.edges {
		if _, err := g.AddEdge(int64(e[0]+1), int64(e[1]+1), []string{"a", "b"}[e[2]], nil); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// query returns the case's query under RETURN DISTINCT.
func (c varLenCase) query() *Query {
	ret := func(vars ...string) []ReturnItem {
		items := make([]ReturnItem, len(vars))
		for i, v := range vars {
			items[i] = ReturnItem{Var: v, Prop: "id"}
		}
		return items
	}
	src := NodePat{Var: "s", Label: "P"}
	q := &Query{Distinct: true}
	switch c.shape {
	case 0:
		q.Patterns = []Pattern{{
			Nodes: []NodePat{src, {Var: "x", Label: c.dstLabel}},
			Rels:  []RelPat{c.hop},
		}}
		q.Return = ret("s", "x")
	case 1:
		q.Patterns = []Pattern{{
			Nodes: []NodePat{src, {Var: "m"}, {Var: "o", Label: c.dstLabel}},
			Rels:  []RelPat{c.hop, {Var: "e", Types: []string{"a"}, Dir: DirOut, Min: 1, Max: 1}},
		}}
		q.Return = ret("e", "s", "o")
	default:
		q.Patterns = []Pattern{{
			Nodes: []NodePat{src, {Var: "m"}, {Var: "x", Label: c.dstLabel}},
			Rels:  []RelPat{c.hop, {Dir: DirOut, Min: 1, Max: 2}},
		}}
		q.Return = ret("s", "m", "x")
	}
	return q
}

// checkDistinctMatchesTrails runs the case's query with RETURN DISTINCT
// and without, and fails unless the distinct rows equal the deduplicated
// rows of the trail enumeration. It returns the edges each run traversed.
func checkDistinctMatchesTrails(t testing.TB, c varLenCase) (distinctEdges, trailEdges int) {
	t.Helper()
	g := c.graph(t)
	params := &ExecParams{}
	if c.bind != nil {
		params.Nodes = []NodeBinding{{Var: c.query().Patterns[0].Nodes[1].Var, IDs: c.bind}}
	}
	if c.view {
		params.View = &View{}
		params.View.Capture(g)
	}
	run := func(distinct bool) ([]string, int) {
		q := c.query()
		q.Distinct = distinct
		rs, st, err := g.ExecPrepared(nil, Prepare(q), params)
		if err != nil {
			t.Fatalf("%+v: %v", c, err)
		}
		rows := relational.DedupRows(rs.Rows)
		if distinct && len(rows) != len(rs.Rows) {
			t.Fatalf("%+v: RETURN DISTINCT returned %d rows, %d distinct", c, len(rs.Rows), len(rows))
		}
		out := make([]string, len(rows))
		for i, row := range rows {
			out[i] = fmt.Sprint(row)
		}
		slices.Sort(out)
		return out, st.EdgesTraversed
	}
	got, distinctEdges := run(true)
	want, trailEdges := run(false)
	if !slices.Equal(got, want) {
		t.Fatalf("%+v (query %s):\nDISTINCT rows %v\ntrail rows    %v", c, c.query(), got, want)
	}
	return distinctEdges, trailEdges
}

// TestVarLengthAgainstBFSOracle holds the var-length hop's two expansions
// to each other on random multigraphs: RETURN DISTINCT (bounded BFS where
// reachOK allows it) must return exactly the deduplicated rows of the
// same query without DISTINCT, which enumerates every edge-unique trail.
// It covers every direction, Min 0, 1 and 2, all three query shapes, with
// and without a binding on the hop's destination, live and view-pinned.
func TestVarLengthAgainstBFSOracle(t *testing.T) {
	// The cases build their queries as ASTs; pin one to its Cypher text.
	pinned := varLenCase{hop: RelPat{Dir: DirOut, Min: 1, Max: 3}, dstLabel: "Q"}
	want, err := cyphertext.Parse(`MATCH (s:P)-[*1..3]->(x:Q) RETURN DISTINCT s.id, x.id`)
	if err != nil {
		t.Fatal(err)
	}
	if got := pinned.query(); !reflect.DeepEqual(got, want) {
		t.Fatalf("case query %s\nparsed      %s", got, want)
	}
	rng := rand.New(rand.NewSource(31))
	data := make([]byte, 64)
	fewer := 0
	for dir := DirOut; dir <= DirBoth; dir++ {
		for min := 0; min <= 2; min++ {
			for shape := 0; shape < 3; shape++ {
				for trial := 0; trial < 16; trial++ {
					rng.Read(data)
					c := decodeVarLenCase(data)
					c.hop.Dir, c.hop.Min, c.hop.Max = dir, min, min+rng.Intn(3)
					c.shape = shape
					if trial%2 == 1 && c.bind == nil {
						c.bind = []int64{int64(1 + rng.Intn(len(c.labels)))}
					}
					d, tr := checkDistinctMatchesTrails(t, c)
					if d < tr {
						fewer++
					}
				}
			}
		}
	}
	// The BFS visits each reached node's edges once; the trail DFS visits
	// them once per trail. Some cases must show it, or the BFS never ran.
	if fewer == 0 {
		t.Fatal("no DISTINCT run traversed fewer edges than its trail enumeration")
	}
}

// FuzzVarLenDistinctMatchesTrails is TestVarLengthAgainstBFSOracle with
// the graph, the hop's bounds and the query shape decoded from the fuzz
// input.
func FuzzVarLenDistinctMatchesTrails(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{5, 0, 1, 0, 1, 0, 8, 0, 1, 0, 1, 2, 1, 2, 3, 0, 3, 0, 0, 4, 4, 1, 2, 1, 1, 1, 2, 1, 2, 0, 1})
	f.Add([]byte{3, 1, 0, 1, 6, 0, 0, 0, 0, 1, 1, 1, 2, 1, 2, 2, 0, 0, 2, 2, 1, 1, 0, 7, 3, 2, 0, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDistinctMatchesTrails(t, decodeVarLenCase(data))
	})
}
