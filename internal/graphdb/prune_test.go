package graphdb

import (
	"fmt"
	"testing"

	"threatraptor/internal/relational"
)

// TestPruneSkipsUnboundConjunctsWithoutAllocating pins the matcher's
// conjunct scheduling: a conjunct over a variable not bound yet is not
// evaluated (it is checked once its last variable binds),
// so enumerating more anchors of a two-variable query — unfloored, and
// floored — costs no more allocations (previously
// every anchor built a "cypher: unknown variable" error).
func TestPruneSkipsUnboundConjunctsWithoutAllocating(t *testing.T) {
	build := func(anchors int) *Graph {
		g := NewGraph()
		for i := 0; i < anchors; i++ {
			g.AddNode("Process", Props{"exename": relational.Str(fmt.Sprintf("/bin/p%d", i))})
		}
		f := g.AddNode("File", Props{"name": relational.Str("/tmp/f1")})
		for i := 0; i < 4; i++ {
			if _, err := g.AddEventEdge(1, f, "read", int64(i+1), int64(1000*(i+1)), int64(1000*(i+1)+1), 10); err != nil {
				t.Fatal(err)
			}
		}
		return g
	}
	q := Prepare(&Query{
		Patterns: []Pattern{{
			Nodes: []NodePat{{Var: "s", Label: "Process"}, {Var: "o", Label: "File"}},
			Rels:  []RelPat{{Var: "e", Types: []string{"read"}, Dir: DirOut, Min: 1, Max: 1}},
		}},
		Where: relational.BinOp{Op: "and",
			L: relational.BinOp{Op: "like", L: relational.ColRef{Qualifier: "s", Column: "exename"}, R: relational.Lit{V: relational.Str("%/bin/p%")}},
			R: relational.BinOp{Op: "=", L: relational.ColRef{Qualifier: "o", Column: "name"}, R: relational.Lit{V: relational.Str("/tmp/f1")}}},
		Return: []ReturnItem{{Var: "s", Prop: "id"}, {Var: "o", Prop: "id"}},
	})
	for _, floored := range []bool{false, true} {
		var allocs [2]float64
		for i, n := range []int{100, 2000} {
			g := build(n)
			var params *ExecParams
			if floored {
				params = &ExecParams{MinEdgeID: 3}
			}
			if rs, _, err := g.ExecPrepared(nil, q, params); err != nil || len(rs.Rows) == 0 {
				t.Fatalf("rows %v, err %v", rs, err)
			}
			allocs[i] = testing.AllocsPerRun(20, func() {
				if _, _, err := g.ExecPrepared(nil, q, params); err != nil {
					t.Fatal(err)
				}
			})
		}
		if allocs[1] > allocs[0]+2 {
			t.Errorf("floored=%v: %.0f allocs at 100 anchors, %.0f at 2000", floored, allocs[0], allocs[1])
		}
	}
}
