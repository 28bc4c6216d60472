package graphdb

import (
	"sort"
	"strconv"
	"strings"

	"threatraptor/internal/relational"
)

// String prints the query as Cypher — the only place Cypher text is
// produced: one MATCH per pattern, then one WHERE. cyphertext.Parse reads
// the output back to the same AST; ClauseAtATime is an execution choice with
// no syntax, and WHERE prints through relational.ExprString (see its
// exceptions).
func (q *Query) String() string { return q.BoundString(nil) }

// String prints the query the Prepared was compiled from.
func (p *Prepared) String() string { return p.q.String() }

// BoundString prints the query with each value slot of its WHERE followed
// by its value in vals (see relational.BoundExprString).
func (q *Query) BoundString(vals []relational.Value) string {
	var sb strings.Builder
	for i, pat := range q.Patterns {
		if i > 0 {
			sb.WriteByte(' ')
		}
		sb.WriteString("MATCH ")
		for j, n := range pat.Nodes {
			if j > 0 {
				writeRel(&sb, pat.Rels[j-1])
			}
			writeNode(&sb, n)
		}
	}
	if q.Where != nil {
		sb.WriteString(" WHERE " + relational.BoundExprString(q.Where, vals))
	}
	sb.WriteString(" RETURN ")
	if q.Distinct {
		sb.WriteString("DISTINCT ")
	}
	for i, item := range q.Return {
		if i > 0 {
			sb.WriteString(", ")
		}
		writeProp(&sb, item.Var, item.Prop)
		if item.As != "" {
			sb.WriteString(" AS " + item.As)
		}
	}
	return sb.String()
}

func writeProp(sb *strings.Builder, v, prop string) {
	sb.WriteString(v)
	if prop != "" {
		sb.WriteString("." + prop)
	}
}

func writeNode(sb *strings.Builder, n NodePat) {
	sb.WriteString("(" + n.Var)
	if n.Label != "" {
		sb.WriteString(":" + n.Label)
	}
	if len(n.Props) > 0 {
		keys := make([]string, 0, len(n.Props))
		for k := range n.Props {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		sb.WriteString(" {")
		for i, k := range keys {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(k + ": " + relational.ExprString(relational.Lit{V: n.Props[k]}))
		}
		sb.WriteString("}")
	}
	sb.WriteString(")")
}

func writeRel(sb *strings.Builder, r RelPat) {
	if r.Dir == DirIn {
		sb.WriteString("<")
	}
	sb.WriteString("-[" + r.Var)
	if len(r.Types) > 0 {
		sb.WriteString(":" + strings.Join(r.Types, "|"))
	}
	if r.IsVarLen() {
		sb.WriteString("*" + strconv.Itoa(r.Min) + "..")
		if r.Max >= 0 {
			sb.WriteString(strconv.Itoa(r.Max))
		}
	}
	sb.WriteString("]-")
	if r.Dir == DirOut {
		sb.WriteString(">")
	}
}
