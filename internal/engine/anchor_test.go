package engine

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"threatraptor/internal/audit"
	"threatraptor/internal/graphdb"
	"threatraptor/internal/relational"
)

// randomEntityPred draws a predicate over TBQL attribute names: the kind's
// own attributes with literals taken from stored entities (so some match),
// attributes the kind lacks (NULL on both backends), =, <>, <, >=, LIKE
// and IN comparisons (literal on either side), NOT, AND and OR.
func randomEntityPred(rng *rand.Rand, attrs []string, sample func(attr string) relational.Value, depth int) relational.Expr {
	if depth > 0 {
		switch rng.Intn(5) {
		case 0:
			return relational.UnOp{Op: "not", E: randomEntityPred(rng, attrs, sample, depth-1)}
		case 1:
			return relational.BinOp{Op: "and", L: randomEntityPred(rng, attrs, sample, depth-1), R: randomEntityPred(rng, attrs, sample, depth-1)}
		case 2:
			return relational.BinOp{Op: "or", L: randomEntityPred(rng, attrs, sample, depth-1), R: randomEntityPred(rng, attrs, sample, depth-1)}
		}
	}
	attr := attrs[rng.Intn(len(attrs))]
	col := relational.ColRef{Column: attr}
	v := sample(attr)
	switch rng.Intn(6) {
	case 0:
		if v.K == relational.KindString && len(v.S) > 2 {
			return relational.BinOp{Op: "like", L: col, R: relational.Lit{V: relational.Str("%" + v.S[1:len(v.S)-1] + "%")}}
		}
	case 1:
		return relational.InList{E: col, Vals: []relational.Expr{relational.Lit{V: v}, relational.Lit{V: sample(attr)}}, Negate: rng.Intn(2) == 0}
	case 2:
		return relational.BinOp{Op: "=", L: relational.Lit{V: v}, R: col}
	}
	return relational.BinOp{Op: []string{"=", "<>", "<", ">="}[rng.Intn(4)], L: col, R: relational.Lit{V: v}}
}

// TestAnchorPrefilterIsSuperset pins the graph anchor access path's
// soundness condition: for random entity predicates, the IDs the
// relational prefilter returns include every node the graph's WHERE
// accepts (the traversal re-applies the WHERE, so a superset is exact).
func TestAnchorPrefilterIsSuperset(t *testing.T) {
	store, _ := dataLeakStore(t, 200)
	rng := rand.New(rand.NewSource(26))
	ents := store.Log.Entities.All()
	for _, kind := range []audit.EntityKind{audit.EntityProcess, audit.EntityFile} {
		var ofKind []*audit.Entity
		for _, e := range ents {
			if e.Kind == kind {
				ofKind = append(ofKind, e)
			}
		}
		// The kind's attributes plus ones it lacks.
		attrs := []string{"name", "path", "user", "group", "host", "pid", "exename", "cmd", "dstip", "srcport"}
		sample := func(attr string) relational.Value {
			if rng.Intn(8) == 0 {
				return relational.Str(fmt.Sprintf("/absent/%d", rng.Intn(3)))
			}
			v := entityAttrValue(ofKind[rng.Intn(len(ofKind))], attr)
			if v.IsNull() {
				return relational.Int(int64(rng.Intn(5000)))
			}
			return v
		}
		exact, nonEmpty := 0, 0
		const trials = 300
		for trial := 0; trial < trials; trial++ {
			pred := randomEntityPred(rng, attrs, sample, 2)
			prep, err := store.Rel.Prepare(lowerEntityFilter(kind, pred))
			if err != nil {
				t.Fatalf("prepare %s: %v", relational.ExprString(pred), err)
			}
			rs, _, err := prep.QueryCtx(nil, nil)
			if err != nil {
				t.Fatalf("prefilter %s: %v", relational.ExprString(pred), err)
			}
			pre := map[int64]bool{}
			for _, row := range rs.Rows {
				pre[row[0].I] = true
			}
			grs, _, err := store.Graph.ExecPrepared(nil, graphdb.Prepare(&graphdb.Query{
				Patterns: []graphdb.Pattern{{Nodes: []graphdb.NodePat{{Var: "n", Label: labelOf(kind)}}}},
				Where:    qualify(pred, "n", nil),
				Return:   []graphdb.ReturnItem{{Var: "n", Prop: "id"}},
			}), nil)
			if err != nil {
				continue // the graph rejects this shape (e.g. ordering across kinds)
			}
			for _, row := range grs.Rows {
				if !pre[row[0].I] {
					t.Fatalf("%s: graph accepts node %d the prefilter drops", relational.ExprString(pred), row[0].I)
				}
			}
			if len(grs.Rows) == len(pre) {
				exact++
			}
			if len(grs.Rows) > 0 {
				nonEmpty++
			}
		}
		if nonEmpty < trials/10 {
			t.Fatalf("%v: vacuous, %d of %d predicates matched a node", kind, nonEmpty, trials)
		}
		t.Logf("%v: %d/%d predicates matched nodes, prefilter exact on %d", kind, nonEmpty, trials, exact)
	}
}

// TestPathAnchorNoMatchSkipsGraph pins the prefilter's short circuit: a
// path pattern whose subject filter matches no entity returns empty
// without the graph visiting a node. The entities index answers the
// prefilter: its LIKE matches no exename key, so no row is read.
func TestPathAnchorNoMatchSkipsGraph(t *testing.T) {
	store, _ := dataLeakStore(t, 200)
	en := &Engine{Store: store}
	src := `proc p["%/no/such/exe%"] ->[read] file f return p, f`
	res, st, err := en.Hunt(nil, src)
	if err != nil {
		t.Fatal(err)
	}
	out, err := en.Explain(src)
	if err != nil {
		t.Fatal(err)
	}
	indexed := strings.Contains(out, "L0 entities n: index LIKE on exename")
	if res.Set.Len() != 0 || st.Graph.NodesVisited != 0 || st.DataQueries != 1 || !indexed || st.Rel.RowsScanned != 0 {
		t.Fatalf("rows %d, stats %+v: want no rows, no node visited, one data query answered by the entities index\n%s", res.Set.Len(), st, out)
	}
}

// TestEmptiedBindingSetEndsConjunction is the regression test for reading
// an emptied binding set as "unconstrained": e1 and e2 both match, but on
// disjoint files (e1's maxInList+1 files are too many to constrain e2),
// so the conjunction is empty after two data queries and e3, whose only
// constraint would be f's binding set, never runs.
func TestEmptiedBindingSetEndsConjunction(t *testing.T) {
	sim := audit.NewSimulator(7, 1_700_000_000_000_000)
	a := audit.Proc{PID: 10, Exe: "/bin/a", User: "u", Group: "g"}
	b := audit.Proc{PID: 11, Exe: "/bin/b", User: "u", Group: "g"}
	c := audit.Proc{PID: 12, Exe: "/bin/c", User: "u", Group: "g"}
	for i := 1; i <= maxInList+1; i++ {
		sim.ReadFile(a, fmt.Sprintf("/x/a%d", i), 10)
	}
	sim.ReadFile(b, "/x/b1", 10)
	for _, f := range []string{"/x/a1", "/x/b1", "/x/c1"} {
		sim.WriteFile(c, f, 10)
	}
	parser := audit.NewParser()
	for _, r := range sim.Records() {
		if err := parser.Feed(&r); err != nil {
			t.Fatal(err)
		}
	}
	store, err := NewStore(parser.Log())
	if err != nil {
		t.Fatal(err)
	}
	q := analyzed(t, `proc p1["%/bin/a%"] read file f as e1
proc p2["%/bin/b%"] read file f as e2
proc p3 write file f as e3
return distinct p1, p2, p3, f`)
	res, st, err := (&Engine{Store: store}).Execute(nil, q)
	if err != nil {
		t.Fatal(err)
	}
	if st.DataQueries != 2 || st.EmptyPatternID != "e2" {
		t.Fatalf("data queries %d, empty pattern %q: want 2 and e2", st.DataQueries, st.EmptyPatternID)
	}
	ref, _, err := (&Engine{Store: store, DisableScheduling: true}).Execute(nil, q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Set.Len() != 0 || !sameRows(res.Set.Strings(), ref.Set.Strings()) {
		t.Fatalf("rows %v, unscheduled %v", res.Set.Strings(), ref.Set.Strings())
	}
}
