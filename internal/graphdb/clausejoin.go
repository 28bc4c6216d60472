package graphdb

import (
	"fmt"
	"sort"
	"strings"

	"threatraptor/internal/relational"
)

// execClauseAtATime implements the Neo4j-style plan for multi-pattern
// queries: each pattern is materialized on its own (anchored by a label
// scan or an ID constraint, filtered only by the WHERE conjuncts whose
// variables it binds), and clause results are then joined in declaration
// order on shared variables. Residual conjuncts (those spanning clauses,
// e.g. temporal constraints between event variables) run after the join.
func (g *Graph) execClauseAtATime(q *Query) (*ResultSet, ExecStats, error) {
	var stats ExecStats

	// Partition WHERE conjuncts by the clause whose variables cover them.
	var conjuncts []relational.Expr
	if q.Where != nil {
		conjuncts = flattenConjuncts(q.Where, nil)
	}
	clauseVars := make([]map[string]bool, len(q.Patterns))
	for i, pat := range q.Patterns {
		vars := make(map[string]bool)
		for _, np := range pat.Nodes {
			if np.Var != "" {
				vars[np.Var] = true
			}
		}
		for _, rp := range pat.Rels {
			if rp.Var != "" && !rp.IsVarLen() {
				vars[rp.Var] = true
			}
		}
		clauseVars[i] = vars
	}
	local := make([][]relational.Expr, len(q.Patterns))
	var residual []relational.Expr
	for _, c := range conjuncts {
		vars, err := exprVars(c)
		if err != nil {
			return nil, stats, err
		}
		placed := false
		for i := range q.Patterns {
			if coveredBy(vars, clauseVars[i]) {
				local[i] = append(local[i], c)
				placed = true
				break
			}
		}
		if !placed {
			residual = append(residual, c)
		}
	}

	// Materialize each clause independently.
	results := make([][]binding, len(q.Patterns))
	for i := range q.Patterns {
		rows, cs, err := g.materializeClause(q.Patterns[i], local[i])
		if err != nil {
			return nil, stats, err
		}
		stats.NodesVisited += cs.NodesVisited
		stats.EdgesTraversed += cs.EdgesTraversed
		stats.IndexLookups += cs.IndexLookups
		results[i] = rows
	}

	// Hash-join clause results in declaration order.
	joined := results[0]
	for i := 1; i < len(results); i++ {
		joined = hashJoin(joined, results[i])
		if len(joined) == 0 {
			break
		}
	}

	// Residual filter, projection, distinct, order, limit.
	cols := make([]string, len(q.Return))
	for j, item := range q.Return {
		switch {
		case item.As != "":
			cols[j] = item.As
		case item.Prop != "":
			cols[j] = item.Var + "." + item.Prop
		default:
			cols[j] = item.Var
		}
	}
	rs := &ResultSet{Columns: cols}
	for _, b := range joined {
		resolve := g.bindingResolver(b)
		ok := true
		for _, c := range residual {
			v, err := relational.EvalExpr(c, resolve)
			if err != nil {
				return nil, stats, err
			}
			if !v.Truthy() {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		row := make([]Value, len(q.Return))
		for j, item := range q.Return {
			v, err := resolve(relational.ColRef{Qualifier: item.Var, Column: item.Prop})
			if err != nil {
				return nil, stats, err
			}
			row[j] = v
		}
		rs.Rows = append(rs.Rows, row)
	}
	if q.Distinct {
		rs.Rows = dedupRows(rs.Rows)
	}
	if len(q.OrderBy) > 0 {
		if err := orderRows(rs, q); err != nil {
			return nil, stats, err
		}
	}
	if q.Limit >= 0 && len(rs.Rows) > q.Limit {
		rs.Rows = rs.Rows[:q.Limit]
	}
	return rs, stats, nil
}

// binding maps variable names to element IDs; "n:" keys are nodes and
// "e:" keys are edges.
type binding map[string]int64

// materializeClause runs one pattern standalone and captures every
// complete variable binding.
func (g *Graph) materializeClause(pat Pattern, conjuncts []relational.Expr) ([]binding, ExecStats, error) {
	sub := &Query{Patterns: []Pattern{pat}, Limit: -1}
	m := &matcher{
		g:     g,
		q:     sub,
		nodes: make(map[string]int64),
		edges: make(map[string]int64),
	}
	m.setConjuncts(conjuncts)
	m.bindStore()
	var rows []binding
	m.capture = func() error {
		// Re-check local conjuncts at completion (pruneOK skips any that
		// were not yet evaluable mid-match).
		resolve := m.resolve
		for _, c := range conjuncts {
			v, err := relational.EvalExpr(c, resolve)
			if err != nil {
				return err
			}
			if !v.Truthy() {
				return nil
			}
		}
		b := make(binding, len(m.nodes)+len(m.edges))
		for k, v := range m.nodes {
			b["n:"+k] = v
		}
		for k, v := range m.edges {
			b["e:"+k] = v
		}
		rows = append(rows, b)
		return nil
	}
	if err := m.matchPattern(0, 0); err != nil {
		return nil, m.stats, err
	}
	return rows, m.stats, nil
}

// hashJoin joins two binding sets on their shared variables.
func hashJoin(left, right []binding) []binding {
	if len(left) == 0 || len(right) == 0 {
		return nil
	}
	// Shared keys, from any representative rows.
	var shared []string
	for k := range left[0] {
		if _, ok := right[0][k]; ok {
			shared = append(shared, k)
		}
	}
	sort.Strings(shared)
	key := func(b binding) string {
		var sb strings.Builder
		for _, k := range shared {
			fmt.Fprintf(&sb, "%d|", b[k])
		}
		return sb.String()
	}
	index := make(map[string][]binding, len(left))
	for _, b := range left {
		index[key(b)] = append(index[key(b)], b)
	}
	var out []binding
	for _, rb := range right {
		for _, lb := range index[key(rb)] {
			merged := make(binding, len(lb)+len(rb))
			for k, v := range lb {
				merged[k] = v
			}
			for k, v := range rb {
				merged[k] = v
			}
			out = append(out, merged)
		}
	}
	return out
}

// bindingResolver adapts a joined binding to the expression evaluator.
func (g *Graph) bindingResolver(b binding) func(relational.ColRef) (Value, error) {
	return func(c relational.ColRef) (Value, error) {
		name := c.Qualifier
		if name == "" {
			name = c.Column
		}
		if id, ok := b["n:"+name]; ok {
			n := g.node(id)
			switch c.Column {
			case "", "id":
				return relational.Int(id), nil
			case "label":
				return relational.Str(n.Label), nil
			}
			if c.Qualifier == "" {
				return relational.Int(id), nil
			}
			if v, has := n.Prop(c.Column); has {
				return v, nil
			}
			return relational.Null(), nil
		}
		if id, ok := b["e:"+name]; ok {
			e := g.edgeByID(id)
			switch c.Column {
			case "", "id":
				return relational.Int(id), nil
			case "type":
				return relational.Str(e.Type), nil
			}
			if c.Qualifier == "" {
				return relational.Int(id), nil
			}
			if v, has := e.Prop(c.Column); has {
				return v, nil
			}
			return relational.Null(), nil
		}
		return relational.Null(), fmt.Errorf("cypher: unknown variable %q", name)
	}
}

// exprVars collects the variable qualifiers referenced by an expression.
func exprVars(e relational.Expr) (map[string]bool, error) {
	vars := make(map[string]bool)
	var visit func(relational.Expr) error
	visit = func(e relational.Expr) error {
		switch v := e.(type) {
		case relational.ColRef:
			name := v.Qualifier
			if name == "" {
				name = v.Column
			}
			vars[name] = true
		case relational.Lit:
		case relational.BinOp:
			if err := visit(v.L); err != nil {
				return err
			}
			return visit(v.R)
		case relational.UnOp:
			return visit(v.E)
		case relational.InList:
			if err := visit(v.E); err != nil {
				return err
			}
			for _, x := range v.Vals {
				if err := visit(x); err != nil {
					return err
				}
			}
		default:
			return fmt.Errorf("cypher: unsupported expression %T", e)
		}
		return nil
	}
	if err := visit(e); err != nil {
		return nil, err
	}
	return vars, nil
}

func coveredBy(vars, clause map[string]bool) bool {
	for v := range vars {
		if !clause[v] {
			return false
		}
	}
	return true
}
