package engine

// This file is EXPLAIN and the RQ4 monolithic baselines' text: it prints
// the plan ASTs execution runs through their own printers
// (relational.SelectStmt.String, graphdb.Query.String). Printing parses
// nothing, and no Execute* path prints (a test pins both).

import (
	"strings"

	"threatraptor/internal/relational"
	"threatraptor/internal/tbql"
)

// CompileMonolithicSQL prints the whole query as one giant SQL statement
// (query type (b) in RQ4; see lowerMonolithicStmt), with windows resolved
// against the store's latest published snapshot.
func CompileMonolithicSQL(s *Store, a *tbql.Analyzed) (string, error) {
	stmt, err := lowerMonolithicStmt(s.Snapshot().bounds(), a, tbql.Lower(a))
	if err != nil {
		return "", err
	}
	return stmt.String(), nil
}

// CompileMonolithicCypher prints the whole query as one giant multi-MATCH
// Cypher statement (query type (d) in RQ4; see lowerMonolithicCypher).
func CompileMonolithicCypher(s *Store, a *tbql.Analyzed) (string, error) {
	q, err := lowerMonolithicCypher(s.Snapshot().bounds(), a, tbql.Lower(a))
	if err != nil {
		return "", err
	}
	return q.String(), nil
}

// Explain compiles TBQL source through the compiled-query cache — so a
// hunt of the same text shares the plan and Explain shows exactly what
// that hunt runs — and prints it: each pattern's logical-plan IR and
// compiled backend plan, the scheduled order, and the monolithic RQ4
// baselines. The IR and the compiled plans are the shape's; each value
// slot prints with the query's value bound to it ("?v0 ['%/tmp/x%']").
// It pins the latest published snapshot, so it is safe to call
// concurrently with live ingestion.
func (en *Engine) Explain(src string) (string, error) {
	a, err := en.Compile(src)
	if err != nil {
		return "", err
	}
	plan := en.planFor(a, en.Store.Snapshot(), false)
	var sb strings.Builder
	sb.WriteString("--- per-pattern logical plans (IR) and physical plans ---\n")
	for i := range plan.pats {
		pp := &plan.pats[i]
		sb.WriteString(pp.ir.BoundString(a.Lits) + "\n")
		if pp.meta.UsesGraph {
			sb.WriteString("physical: graph traversal plan\n  " + pp.gq.BoundString(a.Lits) + "\n")
			if pp.ir.Path.SubjPred != nil {
				pr, err := pp.anchorFilter(en.Store)
				if err != nil {
					return "", err
				}
				sb.WriteString("  anchors of an unbound s: " + pr.BoundString(a.Lits) + "\n")
				writeDescribe(&sb, pr)
			}
			continue
		}
		pr, err := pp.prepared(en.Store, plan.bounds)
		if err != nil {
			return "", err
		}
		sb.WriteString("physical: relational plan (runtime-pruned parameters)\n  " + pr.BoundString(a.Lits) + "\n")
		writeDescribe(&sb, pr)
	}
	sb.WriteString("--- scheduled order ---\n")
	for _, idx := range plan.order {
		sb.WriteString(a.Query.Patterns[idx].ID + " ")
	}
	sb.WriteString("\n")
	if pr, err := plan.monolithicSQL(en.Store, a); err == nil {
		sb.WriteString("--- monolithic SQL (RQ4 comparison) ---\n" + pr.String() + "\n")
	}
	if pq, err := plan.monolithicCypher(a); err == nil {
		sb.WriteString("--- monolithic Cypher (RQ4 comparison) ---\n" + pq.String() + "\n")
	}
	return sb.String(), nil
}

// writeDescribe prints a relational plan's per-level Describe lines,
// indented under the statement.
func writeDescribe(sb *strings.Builder, pr *relational.Prepared) {
	sb.WriteString("  " + strings.ReplaceAll(strings.TrimSuffix(pr.Describe(), "\n"), "\n", "\n  ") + "\n")
}
