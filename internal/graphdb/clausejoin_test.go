package graphdb_test

import (
	"reflect"
	"sort"
	"testing"

	. "threatraptor/internal/graphdb"
	"threatraptor/internal/graphdb/cyphertext"
)

// clauseQuery parses a query and switches on the clause-at-a-time plan.
func clauseQuery(t *testing.T, g *Graph, src string) *ResultSet {
	t.Helper()
	q, err := cyphertext.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	q.ClauseAtATime = true
	rs, _, err := g.ExecPrepared(nil, Prepare(q), nil)
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

func sortedRows(rs *ResultSet) [][]string {
	rows := rs.Strings()
	sort.Slice(rows, func(a, b int) bool {
		return strSliceLess(rows[a], rows[b])
	})
	return rows
}

func strSliceLess(a, b []string) bool {
	for i := range a {
		if i >= len(b) {
			return false
		}
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// TestClauseAtATimeEquivalence verifies the Neo4j-style plan returns the
// same rows as the pipelined matcher on multi-MATCH queries.
func TestClauseAtATimeEquivalence(t *testing.T) {
	g, _ := newAttackGraph(t)
	queries := []string{
		`MATCH (p1:Process)-[e1:write]->(f:File) MATCH (p2:Process)-[e2:read]->(f) WHERE p1.exename LIKE '%tar%' RETURN DISTINCT p1.exename, f.path, p2.exename`,
		`MATCH (p:Process)-[e1:read]->(f1:File) MATCH (p)-[e2:write]->(f2:File) WHERE e1.start_time < e2.start_time RETURN DISTINCT p.exename, f1.path, f2.path`,
		`MATCH (p1:Process)-[e1:read]->(f1:File) MATCH (p2:Process)-[e2:connect]->(c:NetConn) WHERE p1.exename = p2.exename RETURN DISTINCT p1.exename, c.dstip`,
	}
	for _, src := range queries {
		q, err := cyphertext.Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		pipelined, _, err := g.ExecPrepared(nil, Prepare(q), nil)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		clause := clauseQuery(t, g, src)
		if !reflect.DeepEqual(sortedRows(pipelined), sortedRows(clause)) {
			t.Errorf("plans disagree for %s:\npipelined: %v\nclause:    %v",
				src, sortedRows(pipelined), sortedRows(clause))
		}
	}
}

// TestClauseAtATimeDoesMoreWork confirms the cost model: clause-at-a-time
// materializes every clause with a label scan, so it traverses more edges
// than the pipelined plan when filters are selective.
func TestClauseAtATimeDoesMoreWork(t *testing.T) {
	g, _ := newAttackGraph(t)
	src := `MATCH (p1:Process)-[e1:read]->(f1:File) WHERE p1.exename LIKE '%tar%' MATCH (p1)-[e2:write]->(f2:File) RETURN DISTINCT p1.exename, f2.path`
	q, err := cyphertext.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	_, pipeStats, err := g.ExecPrepared(nil, Prepare(q), nil)
	if err != nil {
		t.Fatal(err)
	}
	q2, _ := cyphertext.Parse(src)
	q2.ClauseAtATime = true
	_, clauseStats, err := g.ExecPrepared(nil, Prepare(q2), nil)
	if err != nil {
		t.Fatal(err)
	}
	if clauseStats.EdgesTraversed < pipeStats.EdgesTraversed {
		t.Errorf("clause-at-a-time should traverse at least as many edges: %d vs %d",
			clauseStats.EdgesTraversed, pipeStats.EdgesTraversed)
	}
}

func TestClauseAtATimeResidualConjuncts(t *testing.T) {
	g, _ := newAttackGraph(t)
	// The temporal constraint spans clauses: it must be residual-filtered
	// after the join, not dropped.
	rs := clauseQuery(t, g, `MATCH (p:Process)-[e1:read]->(f1:File) MATCH (p)-[e2:write]->(f2:File) WHERE e2.start_time < e1.start_time RETURN DISTINCT p.exename`)
	// In the attack graph every read precedes the same process's write, so
	// the reversed constraint matches nothing.
	if rs.Len() != 0 {
		t.Fatalf("reversed temporal constraint must eliminate all rows: %v", rs.Strings())
	}
}

func TestClauseAtATimeEmptyClause(t *testing.T) {
	g, _ := newAttackGraph(t)
	rs := clauseQuery(t, g, `MATCH (p:Process)-[e1:read]->(f1:File) MATCH (p)-[e2:rename]->(f2:File) RETURN p.exename`)
	if rs.Len() != 0 {
		t.Fatalf("an empty clause empties the join: %v", rs.Strings())
	}
}

func TestClauseAtATimeDistinct(t *testing.T) {
	g, _ := newAttackGraph(t)
	rs := clauseQuery(t, g, `MATCH (p:Process)-[e1:read]->(f1:File) MATCH (p)-[e2]->(o) RETURN DISTINCT p.exename`)
	want := [][]string{{"/bin/bzip2"}, {"/bin/tar"}, {"/usr/bin/curl"}, {"/usr/bin/gpg"}}
	if !reflect.DeepEqual(sortedRows(rs), want) {
		t.Fatalf("got %v", rs.Strings())
	}
}

func TestSinglePatternIgnoresClauseFlag(t *testing.T) {
	g, _ := newAttackGraph(t)
	q, err := cyphertext.Parse(`MATCH (p:Process)-[e:connect]->(c:NetConn) RETURN p.exename`)
	if err != nil {
		t.Fatal(err)
	}
	q.ClauseAtATime = true // single pattern: pipelined path is used
	rs, _, err := g.ExecPrepared(nil, Prepare(q), nil)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() != 1 {
		t.Fatalf("got %v", rs.Strings())
	}
}
