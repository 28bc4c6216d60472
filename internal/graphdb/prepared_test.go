package graphdb_test

import (
	"math/rand"
	"strings"
	"testing"

	. "threatraptor/internal/graphdb"
	"threatraptor/internal/graphdb/cyphertext"
	"threatraptor/internal/relational"
)

// intTuples collects a QueryInts run's tuples.
type intTuples [][]int64

func (r *intTuples) Row(row []int64) { *r = append(*r, append([]int64(nil), row...)) }

// TestQueryIntsMatchesExec holds the int-tuple path to the ResultSet path
// of the same prepared query on random variable-length cases, with and
// without DISTINCT and a WHERE conjunct: the same rows in the same order.
func TestQueryIntsMatchesExec(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	data := make([]byte, 64)
	for trial := 0; trial < 400; trial++ {
		rng.Read(data)
		c := decodeVarLenCase(data)
		g := c.graph(t)
		params := &ExecParams{}
		if c.bind != nil {
			params.Nodes = []NodeBinding{{Var: c.query().Patterns[0].Nodes[1].Var, IDs: c.bind}}
		}
		if c.view {
			params.View = &View{}
			params.View.Capture(g)
		}
		q := c.query()
		q.Distinct = trial%2 == 0
		if trial%3 == 0 {
			q.Where = relational.BinOp{Op: "<>", L: relational.ColRef{Qualifier: "s", Column: "name"}, R: relational.Lit{V: str("n1")}}
		}
		p := Prepare(q)
		rs, _, err := g.ExecPrepared(nil, p, params)
		if err != nil {
			t.Fatal(err)
		}
		var got intTuples
		if _, err := g.QueryInts(nil, p, params, &got); err != nil {
			t.Fatal(err)
		}
		if len(got) != len(rs.Rows) {
			t.Fatalf("%+v (query %s): QueryInts %d rows, ExecPrepared %d", c, q, len(got), len(rs.Rows))
		}
		for i, row := range rs.Rows {
			for j, v := range row {
				if got[i][j] != v.I {
					t.Fatalf("%+v (query %s) row %d: %v vs %v", c, q, i, got[i], row)
				}
			}
		}
	}
}

// TestQueryIntsRejectsStringItems pins that QueryInts fails on a return
// item that reads a string rather than reading it as 0: under DISTINCT,
// distinct names would otherwise collapse into one tuple.
func TestQueryIntsRejectsStringItems(t *testing.T) {
	g := NewGraph()
	s := g.AddNode("P", Props{"name": str("p")})
	for _, name := range []string{"f1", "f2"} {
		o := g.AddNode("F", Props{"name": str(name)})
		if _, err := g.AddEdge(s, o, "read", nil); err != nil {
			t.Fatal(err)
		}
	}
	q, err := cyphertext.Parse("MATCH (s:P)-[e:read]->(o:F) RETURN DISTINCT s.id, o.name")
	if err != nil {
		t.Fatal(err)
	}
	var got intTuples
	if _, err := g.QueryInts(nil, Prepare(q), nil, &got); err == nil || !strings.Contains(err.Error(), "QueryInts") {
		t.Fatalf("rows %v, err %v; want a QueryInts error", got, err)
	}
}

// TestConjunctErrorsSettleAsWholeWhere pins when a WHERE conjunct whose
// evaluation fails (a cross-kind ordering, an unknown variable) fails the
// query: only when a match reaches emit with every other conjunct true —
// exactly what evaluating the whole WHERE on the complete binding gives —
// whatever the conjunct order, and whether the pruning conjunct reads the
// anchor, the hop's destination or nothing at all.
func TestConjunctErrorsSettleAsWholeWhere(t *testing.T) {
	g := NewGraph()
	s := g.AddNode("P", Props{"name": str("abc")})
	for _, name := range []string{"f1", "f2"} {
		o := g.AddNode("F", Props{"name": str(name)})
		if _, err := g.AddEdge(s, o, "read", nil); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		where string
		err   string // "" = no error and no rows
	}{
		{"s.name > 7 AND o.name = 'zzz'", ""},
		{"o.name = 'zzz' AND s.name > 7", ""},
		{"s.name > 7 AND o.name = 'f1'", "cannot compare"},
		{"o.name = 'f1' AND s.name > 7", "cannot compare"},
		{"o.name > 7 AND s.name = 'zzz'", ""},
		{"1 = 2 AND o.name > 7", ""},
		{"o.name > 7 AND 1 = 2", ""},
		{"x.name = 1 AND o.name = 'zzz'", ""},
		{"x.name = 1 AND o.name = 'f2'", "unknown variable"},
		{"o.name = 'f2' AND s.name > 7 AND x.name = 1", "cannot compare"},
		{"o.name = 'f2' AND x.name = 1 AND s.name > 7", "unknown variable"},
		{"e.name > 7 AND o.name = 'f2'", ""}, // an absent attribute is NULL
	} {
		src := "MATCH (s:P)-[e:read]->(o:F) WHERE " + c.where + " RETURN s.id, o.id"
		rs, _, err := cyphertext.Query(g, src)
		switch {
		case c.err == "" && (err != nil || len(rs.Rows) != 0):
			t.Errorf("%s: rows %v, err %v; want no rows, no error", src, rs, err)
		case c.err != "" && (err == nil || !strings.Contains(err.Error(), c.err)):
			t.Errorf("%s: err %v, want %q", src, err, c.err)
		}
	}
}
