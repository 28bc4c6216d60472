package graphdb

import (
	"reflect"
	"testing"

	"threatraptor/internal/relational"
)

func str(s string) Value { return relational.Str(s) }
func num(i int64) Value  { return relational.Int(i) }

// newAttackGraph builds the data_leak chain:
// tar -read-> passwd, tar -write-> upload.tar, bzip2 -read-> upload.tar,
// bzip2 -write-> upload.tar.bz2, gpg -read-> upload.tar.bz2,
// gpg -write-> upload, curl -read-> upload, curl -connect-> 192.168.29.128.
func newAttackGraph(t *testing.T) (*Graph, map[string]int64) {
	t.Helper()
	g := NewGraph()
	ids := map[string]int64{}
	addN := func(name, label string, props Props) {
		props["name"] = str(name)
		ids[name] = g.AddNode(label, props)
	}
	addN("tar", "Process", Props{"exename": str("/bin/tar"), "pid": num(100)})
	addN("passwd", "File", Props{"path": str("/etc/passwd")})
	addN("upload.tar", "File", Props{"path": str("/tmp/upload.tar")})
	addN("bzip2", "Process", Props{"exename": str("/bin/bzip2"), "pid": num(101)})
	addN("upload.tar.bz2", "File", Props{"path": str("/tmp/upload.tar.bz2")})
	addN("gpg", "Process", Props{"exename": str("/usr/bin/gpg"), "pid": num(102)})
	addN("upload", "File", Props{"path": str("/tmp/upload")})
	addN("curl", "Process", Props{"exename": str("/usr/bin/curl"), "pid": num(103)})
	addN("c2", "NetConn", Props{"dstip": str("192.168.29.128")})

	addE := func(from, to, typ string, ts int64) {
		if _, err := g.AddEdge(ids[from], ids[to], typ, Props{"start_time": num(ts)}); err != nil {
			t.Fatal(err)
		}
	}
	addE("tar", "passwd", "read", 10)
	addE("tar", "upload.tar", "write", 20)
	addE("bzip2", "upload.tar", "read", 30)
	addE("bzip2", "upload.tar.bz2", "write", 40)
	addE("gpg", "upload.tar.bz2", "read", 50)
	addE("gpg", "upload", "write", 60)
	addE("curl", "upload", "read", 70)
	addE("curl", "c2", "connect", 80)
	return g, ids
}

func mustQuery(t *testing.T, g *Graph, src string) *ResultSet {
	t.Helper()
	rs, err := g.Query(src)
	if err != nil {
		t.Fatalf("Query(%q): %v", src, err)
	}
	return rs
}

func TestSingleHopMatch(t *testing.T) {
	g, _ := newAttackGraph(t)
	rs := mustQuery(t, g, `MATCH (p:Process)-[e:read]->(f:File) RETURN p.exename, f.path ORDER BY p.exename`)
	want := [][]string{
		{"/bin/bzip2", "/tmp/upload.tar"},
		{"/bin/tar", "/etc/passwd"},
		{"/usr/bin/curl", "/tmp/upload"},
		{"/usr/bin/gpg", "/tmp/upload.tar.bz2"},
	}
	if !reflect.DeepEqual(rs.Strings(), want) {
		t.Fatalf("got %v", rs.Strings())
	}
}

func TestInlinePropsAnchor(t *testing.T) {
	g, _ := newAttackGraph(t)
	rs := mustQuery(t, g, `MATCH (p:Process {exename: '/bin/tar'})-[:write]->(f:File) RETURN f.path`)
	if rs.Len() != 1 || rs.Rows[0][0].S != "/tmp/upload.tar" {
		t.Fatalf("got %v", rs.Strings())
	}
}

func TestWhereLike(t *testing.T) {
	g, _ := newAttackGraph(t)
	rs := mustQuery(t, g, `MATCH (p:Process)-[e]->(o) WHERE p.exename LIKE '%curl%' RETURN o.name ORDER BY o.name`)
	want := [][]string{{"c2"}, {"upload"}}
	if !reflect.DeepEqual(rs.Strings(), want) {
		t.Fatalf("got %v", rs.Strings())
	}
}

func TestEdgePropsInWhere(t *testing.T) {
	g, _ := newAttackGraph(t)
	rs := mustQuery(t, g, `MATCH (p)-[e:read]->(f) WHERE e.start_time > 40 RETURN p.exename ORDER BY p.exename`)
	want := [][]string{{"/usr/bin/curl"}, {"/usr/bin/gpg"}}
	if !reflect.DeepEqual(rs.Strings(), want) {
		t.Fatalf("got %v", rs.Strings())
	}
}

func TestChainedPattern(t *testing.T) {
	g, _ := newAttackGraph(t)
	// tar writes a file that bzip2 reads.
	rs := mustQuery(t, g, `
	  MATCH (p1:Process)-[:write]->(f:File)<-[:read]-(p2:Process)
	  RETURN p1.exename, f.path, p2.exename ORDER BY f.path`)
	want := [][]string{
		{"/usr/bin/gpg", "/tmp/upload", "/usr/bin/curl"},
		{"/bin/tar", "/tmp/upload.tar", "/bin/bzip2"},
		{"/bin/bzip2", "/tmp/upload.tar.bz2", "/usr/bin/gpg"},
	}
	if !reflect.DeepEqual(rs.Strings(), want) {
		t.Fatalf("got %v", rs.Strings())
	}
}

func TestMultiplePatternsJoinOnVariable(t *testing.T) {
	g, _ := newAttackGraph(t)
	rs := mustQuery(t, g, `
	  MATCH (p1:Process {exename: '/bin/tar'})-[:write]->(f:File)
	  MATCH (p2:Process)-[:read]->(f)
	  RETURN p2.exename`)
	if rs.Len() != 1 || rs.Rows[0][0].S != "/bin/bzip2" {
		t.Fatalf("got %v", rs.Strings())
	}
}

func TestVariableLengthPath(t *testing.T) {
	g, _ := newAttackGraph(t)
	// Information flow: from tar to the C2 connection is a 7-hop chain.
	rs := mustQuery(t, g, `
	  MATCH (p:Process {exename: '/bin/tar'})-[*1..7]->(c:NetConn)
	  RETURN DISTINCT c.dstip`)
	// The chain alternates direction (write forward, read is proc->file),
	// so a strictly directed walk cannot reach the C2 node.
	if rs.Len() != 0 {
		t.Fatalf("directed var-length should not reach c2: %v", rs.Strings())
	}
	// Undirected traversal follows the information flow.
	rs = mustQuery(t, g, `
	  MATCH (p:Process {exename: '/bin/tar'})-[*1..7]-(c:NetConn)
	  RETURN DISTINCT c.dstip`)
	if rs.Len() != 1 || rs.Rows[0][0].S != "192.168.29.128" {
		t.Fatalf("got %v", rs.Strings())
	}
}

func TestVariableLengthBounds(t *testing.T) {
	g := NewGraph()
	// Linear chain a -> b -> c -> d.
	var prev int64
	var ids []int64
	for i, name := range []string{"a", "b", "c", "d"} {
		id := g.AddNode("N", Props{"name": str(name)})
		ids = append(ids, id)
		if i > 0 {
			if _, err := g.AddEdge(prev, id, "next", nil); err != nil {
				t.Fatal(err)
			}
		}
		prev = id
	}
	_ = ids
	cases := []struct {
		q    string
		want []string
	}{
		{`MATCH (s:N {name: 'a'})-[*]->(x) RETURN x.name ORDER BY x.name`, []string{"b", "c", "d"}},
		{`MATCH (s:N {name: 'a'})-[*2..3]->(x) RETURN x.name ORDER BY x.name`, []string{"c", "d"}},
		{`MATCH (s:N {name: 'a'})-[*2]->(x) RETURN x.name`, []string{"c"}},
		{`MATCH (s:N {name: 'a'})-[*..2]->(x) RETURN x.name ORDER BY x.name`, []string{"b", "c"}},
		{`MATCH (s:N {name: 'a'})-[*3..]->(x) RETURN x.name`, []string{"d"}},
	}
	for _, c := range cases {
		rs := mustQuery(t, g, c.q)
		var got []string
		for _, r := range rs.Strings() {
			got = append(got, r[0])
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s\n got %v, want %v", c.q, got, c.want)
		}
	}
}

func TestVariableLengthTyped(t *testing.T) {
	g := NewGraph()
	a := g.AddNode("N", Props{"name": str("a")})
	b := g.AddNode("N", Props{"name": str("b")})
	c := g.AddNode("N", Props{"name": str("c")})
	g.AddEdge(a, b, "read", nil)
	g.AddEdge(b, c, "write", nil)
	rs := mustQuery(t, g, `MATCH (s:N {name: 'a'})-[:read*1..3]->(x) RETURN x.name`)
	if rs.Len() != 1 || rs.Rows[0][0].S != "b" {
		t.Fatalf("typed var-length must stop at type change: %v", rs.Strings())
	}
}

func TestVariableLengthCycleTermination(t *testing.T) {
	g := NewGraph()
	a := g.AddNode("N", Props{"name": str("a")})
	b := g.AddNode("N", Props{"name": str("b")})
	g.AddEdge(a, b, "x", nil)
	g.AddEdge(b, a, "x", nil) // cycle
	rs := mustQuery(t, g, `MATCH (s:N {name: 'a'})-[*]->(x) RETURN x.name ORDER BY x.name`)
	// Edge-unique traversal: a->b, a->b->a. Both reachable, then stop.
	want := [][]string{{"a"}, {"b"}}
	if !reflect.DeepEqual(rs.Strings(), want) {
		t.Fatalf("got %v", rs.Strings())
	}
}

func TestTypeAlternation(t *testing.T) {
	g, _ := newAttackGraph(t)
	rs := mustQuery(t, g, `MATCH (p:Process {exename: '/usr/bin/curl'})-[e:read|connect]->(o) RETURN o.name ORDER BY o.name`)
	want := [][]string{{"c2"}, {"upload"}}
	if !reflect.DeepEqual(rs.Strings(), want) {
		t.Fatalf("got %v", rs.Strings())
	}
}

func TestDistinctAndLimit(t *testing.T) {
	g, _ := newAttackGraph(t)
	rs := mustQuery(t, g, `MATCH (p:Process)-[e]->(o) RETURN DISTINCT p.exename ORDER BY p.exename LIMIT 2`)
	want := [][]string{{"/bin/bzip2"}, {"/bin/tar"}}
	if !reflect.DeepEqual(rs.Strings(), want) {
		t.Fatalf("got %v", rs.Strings())
	}
}

func TestAddNodeWithID(t *testing.T) {
	g := NewGraph()
	if err := g.AddNodeWithID(1, "F", Props{"name": str("x")}); err != nil {
		t.Fatal(err)
	}
	if n := g.Node(1); n == nil || n.Label != "F" {
		t.Fatalf("node 1 = %+v", n)
	}
	if id := g.AddNode("F", nil); id != 2 {
		t.Fatalf("AddNode must take the next dense ID, got %d", id)
	}
	for _, id := range []int64{0, 1, 2, 4, 42} {
		if err := g.AddNodeWithID(id, "F", nil); err == nil {
			t.Fatalf("ID %d is not the next ID (3): want an error", id)
		}
	}
	if g.NumNodes() != 2 || g.Node(3) != nil {
		t.Fatalf("a refused insert must leave the graph unchanged: %d nodes", g.NumNodes())
	}
	if err := g.AddNodeWithID(3, "G", nil); err != nil {
		t.Fatal(err)
	}
	if v, ok := g.Node(1).Prop("name"); !ok || v.S != "x" {
		t.Fatalf("node 1 name = %v %v", v, ok)
	}
	if _, ok := g.Node(3).Prop("name"); ok {
		t.Fatal("a node without attributes has none")
	}
}

func TestQueryErrors(t *testing.T) {
	g, _ := newAttackGraph(t)
	for _, q := range []string{
		`RETURN x`,         // no MATCH
		`MATCH (p) RETURN`, // empty return
		`MATCH (p)-[e]->(o) WHERE q.x = 1 RETURN p.name`,  // unknown var
		`MATCH (p)-[e]->(o) RETURN z.name`,                // unknown return var
		`MATCH (p)-[*2..1]->(o) RETURN p.name`,            // invalid bounds
		`MATCH (p RETURN p.name`,                          // malformed
		`MATCH (p)-[e]->(o) RETURN p.name ORDER BY o.bad`, // order key not projected
		`MATCH (p)-[e]->(o) RETURN p.name extra`,          // trailing garbage
	} {
		if _, err := g.Query(q); err == nil {
			t.Errorf("Query(%q) should fail", q)
		}
	}
}

func TestEdgeEndpointsValidated(t *testing.T) {
	g := NewGraph()
	if _, err := g.AddEdge(1, 2, "x", nil); err == nil {
		t.Fatal("edge to missing nodes must fail")
	}
}

func TestSameVarTwiceInPattern(t *testing.T) {
	g := NewGraph()
	a := g.AddNode("N", Props{"name": str("a")})
	b := g.AddNode("N", Props{"name": str("b")})
	g.AddEdge(a, b, "x", nil)
	g.AddEdge(b, a, "y", nil)
	// (v)-[:x]->(w)-[:y]->(v): cycle back to the same node.
	rs := mustQuery(t, g, `MATCH (v:N)-[:x]->(w:N)-[:y]->(v) RETURN v.name, w.name`)
	if !reflect.DeepEqual(rs.Strings(), [][]string{{"a", "b"}}) {
		t.Fatalf("got %v", rs.Strings())
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
	rs, err := g.Query("MATCH (s:Process)-[e:write]->(o:File) WHERE e.start_time >= 0 AND e.start_time <= 7 RETURN o.name")
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() != 1 || rs.Rows[0][0].S != "/tmp/b" {
		t.Fatalf("windowed query after late append = %v", rs.Strings())
	}
}
