package engine

// This file is the EXPLAIN/debug path: human-readable SQL and Cypher text
// rendered from analyzed queries so `tbql -explain` (and tests) can show
// what the compiled data queries are equivalent to. Nothing here runs on
// any Execute* path — execution lowers the logical-plan IR straight to
// backend plan ASTs (see lower.go); a test pins that no backend parser is
// ever invoked during execution.

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"threatraptor/internal/relational"
	"threatraptor/internal/tbql"
)

// sqlColumn maps a TBQL attribute name to the relational column name.
func sqlColumn(attr string) string {
	if attr == "group" {
		return "grp"
	}
	return attr
}

// renderSQLExpr renders a resolved TBQL attribute expression as SQL
// against the given table alias.
func renderSQLExpr(e relational.Expr, alias string) string {
	switch v := e.(type) {
	case relational.ColRef:
		return alias + "." + sqlColumn(v.Column)
	case relational.Lit:
		return renderSQLValue(v.V)
	case relational.UnOp:
		return "NOT (" + renderSQLExpr(v.E, alias) + ")"
	case relational.InList:
		var vals []string
		for _, ve := range v.Vals {
			vals = append(vals, renderSQLExpr(ve, alias))
		}
		neg := ""
		if v.Negate {
			neg = "NOT "
		}
		return renderSQLExpr(v.E, alias) + " " + neg + "IN (" + strings.Join(vals, ", ") + ")"
	case relational.BinOp:
		switch v.Op {
		case "and":
			return "(" + renderSQLExpr(v.L, alias) + " AND " + renderSQLExpr(v.R, alias) + ")"
		case "or":
			return "(" + renderSQLExpr(v.L, alias) + " OR " + renderSQLExpr(v.R, alias) + ")"
		case "like":
			return renderSQLExpr(v.L, alias) + " LIKE " + renderSQLExpr(v.R, alias)
		default:
			return renderSQLExpr(v.L, alias) + " " + v.Op + " " + renderSQLExpr(v.R, alias)
		}
	}
	return "1"
}

func renderSQLValue(v relational.Value) string {
	if v.K == relational.KindString {
		return "'" + strings.ReplaceAll(v.S, "'", "''") + "'"
	}
	return v.String()
}

// renderCypherExpr renders an expression against graph property names,
// with the variable name substituted for the qualifier.
func renderCypherExpr(e relational.Expr, variable string) string {
	switch v := e.(type) {
	case relational.ColRef:
		return variable + "." + v.Column
	case relational.Lit:
		return renderCypherValue(v.V)
	case relational.UnOp:
		return "NOT (" + renderCypherExpr(v.E, variable) + ")"
	case relational.InList:
		var vals []string
		for _, ve := range v.Vals {
			vals = append(vals, renderCypherExpr(ve, variable))
		}
		neg := ""
		if v.Negate {
			neg = "NOT "
		}
		return renderCypherExpr(v.E, variable) + " " + neg + "IN (" + strings.Join(vals, ", ") + ")"
	case relational.BinOp:
		switch v.Op {
		case "and":
			return "(" + renderCypherExpr(v.L, variable) + " AND " + renderCypherExpr(v.R, variable) + ")"
		case "or":
			return "(" + renderCypherExpr(v.L, variable) + " OR " + renderCypherExpr(v.R, variable) + ")"
		case "like":
			return renderCypherExpr(v.L, variable) + " LIKE " + renderCypherExpr(v.R, variable)
		default:
			return renderCypherExpr(v.L, variable) + " " + v.Op + " " + renderCypherExpr(v.R, variable)
		}
	}
	return "1"
}

func renderCypherValue(v relational.Value) string {
	if v.K == relational.KindString {
		return "'" + strings.ReplaceAll(v.S, "'", "''") + "'"
	}
	return v.String()
}

// opsCondition renders the operation constraint for an op expression, or
// "" when every operation matches.
func opsCondition(op *tbql.OpExpr, alias string) string {
	if op == nil {
		return ""
	}
	ops := op.Ops()
	if len(ops) >= 9 {
		return ""
	}
	sorted := make([]string, 0, len(ops))
	for o := range ops {
		sorted = append(sorted, "'"+o+"'")
	}
	sort.Strings(sorted)
	if len(sorted) == 1 {
		return alias + ".op = " + sorted[0]
	}
	return alias + ".op IN (" + strings.Join(sorted, ", ") + ")"
}

// timeWindow resolves a TBQL window against a fixed pair of store time
// bounds, returning [lo, hi] in µs. Working from captured bounds keeps
// the text compilers (and through them Engine.Explain) off the live
// Store fields, which only the writer may read.
func (b timeBounds) timeWindow(w *tbql.Window) (int64, int64) {
	switch w.Kind {
	case tbql.WindRange:
		return w.From.UnixMicro(), w.To.UnixMicro()
	case tbql.WindAt:
		lo := w.From.UnixMicro()
		return lo, lo + 24*3600*1_000_000 - 1
	case tbql.WindBefore:
		return b.min, w.To.UnixMicro()
	case tbql.WindAfter:
		return w.From.UnixMicro(), b.max
	case tbql.WindLast:
		return b.max - w.Dur.Microseconds(), b.max
	}
	return b.min, b.max
}

// timeWindow resolves a TBQL window against the store's live time bounds
// (writer-side / static-store callers only).
func (s *Store) timeWindow(w *tbql.Window) (int64, int64) {
	return s.bounds().timeWindow(w)
}

// kindLiteral is the stored "kind" column value for an entity type.
func kindLiteral(t tbql.EntityType) string { return string(t) }

// inList renders "alias.id IN (...)" for a binding set, in sorted order
// for determinism.
func inList(alias string, ids []int64) string {
	var sb strings.Builder
	var scratch [20]byte
	sb.Grow(len(alias) + 10 + len(ids)*8)
	sb.WriteString(alias)
	sb.WriteString(".id IN (")
	for i, id := range ids {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.Write(strconv.AppendInt(scratch[:0], id, 10))
	}
	sb.WriteString(")")
	return sb.String()
}

// sqlPatternParts is the compiled static text of one pattern's SQL data
// query; only the scheduler's per-execution extras vary, so the engine
// compiles the parts once per analyzed query and assembles the final text
// with a couple of appends.
type sqlPatternParts struct {
	conds string // static conjuncts joined with AND
	// subjScore/objScore drive the anchor-side choice, which depends on
	// how many scheduler extras are fed in (see assemble).
	subjScore, objScore int
}

const (
	sqlSelect      = "SELECT e.id, s.id, o.id, e.start_time, e.end_time FROM "
	sqlFromSubject = "entities s, events e, entities o"
	sqlFromObject  = "entities o, events e, entities s"
)

// assemble builds the final query text: static conds plus the scheduler's
// extra constraints, anchored on the more constrained entity side. The
// anchor choice matches the pruning-power estimate the scheduler uses:
// the events table is reached through its subject/object index and the
// far entity through the id index.
func (pp *sqlPatternParts) assemble(extra []string) string {
	from := sqlFromSubject
	if pp.objScore > pp.subjScore+len(extra) {
		from = sqlFromObject
	}
	if len(extra) == 0 {
		return sqlSelect + from + " WHERE " + pp.conds
	}
	var sb strings.Builder
	n := len(sqlSelect) + len(from) + 7 + len(pp.conds)
	for _, ex := range extra {
		n += 5 + len(ex)
	}
	sb.Grow(n)
	sb.WriteString(sqlSelect)
	sb.WriteString(from)
	sb.WriteString(" WHERE ")
	sb.WriteString(pp.conds)
	for _, ex := range extra {
		sb.WriteString(" AND ")
		sb.WriteString(ex)
	}
	return sb.String()
}

// compilePatternSQLParts compiles the static text of one pattern's SQL
// data query (Section III-F): a three-way join of the two entity tables
// with the event table, with all filters in WHERE.
func compilePatternSQLParts(b timeBounds, a *tbql.Analyzed, idx int) sqlPatternParts {
	p := a.Query.Patterns[idx]
	var conds []string
	conds = append(conds,
		"e.subject_id = s.id",
		"e.object_id = o.id",
		"s.kind = 'proc'",
		fmt.Sprintf("o.kind = '%s'", kindLiteral(p.Object.Type)),
	)
	if c := opsCondition(p.Op, "e"); c != "" {
		conds = append(conds, c)
	}
	if f := a.Entities[p.Subject.ID].Filter; f != nil {
		conds = append(conds, renderSQLExpr(f, "s"))
	}
	if f := a.Entities[p.Object.ID].Filter; f != nil {
		conds = append(conds, renderSQLExpr(f, "o"))
	}
	if p.IDFilter != nil {
		conds = append(conds, renderSQLExpr(p.IDFilter, "e"))
	}
	if w := windowOf(a.Query, p); w != nil {
		lo, hi := b.timeWindow(w)
		conds = append(conds, fmt.Sprintf("e.start_time >= %d", lo),
			fmt.Sprintf("e.start_time <= %d", hi))
	}
	return sqlPatternParts{
		conds:     strings.Join(conds, " AND "),
		subjScore: countConjuncts(orTrue(a.Entities[p.Subject.ID].Filter)),
		objScore:  countConjuncts(orTrue(a.Entities[p.Object.ID].Filter)),
	}
}

// CompilePatternSQL compiles one TBQL event pattern into a small SQL data
// query. extra carries the scheduler's added constraints.
func CompilePatternSQL(s *Store, a *tbql.Analyzed, idx int, extra []string) string {
	parts := compilePatternSQLParts(s.bounds(), a, idx)
	return parts.assemble(extra)
}

func orTrue(e relational.Expr) relational.Expr {
	if e == nil {
		return relational.Lit{V: relational.Int(1)}
	}
	return e
}

func windowOf(q *tbql.Query, p *tbql.Pattern) *tbql.Window {
	if p.Window != nil {
		return p.Window
	}
	return q.GlobalWindow
}

// cyPatternParts is the compiled static text of one pattern's Cypher data
// query, assembled with the scheduler's extras per execution.
type cyPatternParts struct {
	match string // MATCH clause
	conds string // static WHERE conjuncts joined with AND ("" when none)
	ret   string // RETURN clause
}

func (pp *cyPatternParts) assemble(extra []string) string {
	var sb strings.Builder
	n := len(pp.match) + 8 + len(pp.conds) + 1 + len(pp.ret)
	for _, ex := range extra {
		n += 5 + len(ex)
	}
	sb.Grow(n)
	sb.WriteString(pp.match)
	if pp.conds != "" || len(extra) > 0 {
		sb.WriteString(" WHERE ")
		sb.WriteString(pp.conds)
		for i, ex := range extra {
			if pp.conds != "" || i > 0 {
				sb.WriteString(" AND ")
			}
			sb.WriteString(ex)
		}
	}
	sb.WriteString(" ")
	sb.WriteString(pp.ret)
	return sb.String()
}

// compilePatternCypherParts compiles the static text of one TBQL pattern
// (event pattern, length-1 path, or variable-length path) as a Cypher
// data query on the graph backend.
func compilePatternCypherParts(b timeBounds, a *tbql.Analyzed, idx int) cyPatternParts {
	p := a.Query.Patterns[idx]
	subjLabel := LabelProcess
	objLabel := labelOf(p.Object.Type.Kind())

	var match string
	edgeVar := "e"
	min, max := 1, 1
	if p.Path != nil {
		min, max = p.Path.MinLen, p.Path.MaxLen
	}
	bounds := func(lo, hi int) string {
		if hi < 0 {
			return fmt.Sprintf("*%d..", lo)
		}
		return fmt.Sprintf("*%d..%d", lo, hi)
	}
	switch {
	case min == 1 && max == 1:
		// Single hop (event pattern or length-1 path).
		match = fmt.Sprintf("MATCH (s:%s)-[e%s]->(o:%s)", subjLabel, typeSuffix(p.Op), objLabel)
	case p.Op != nil:
		// Variable-length information flow with a typed final hop: the
		// intermediate hops are direction-agnostic, the final hop lands on
		// the object.
		hi := max - 1
		if max < 0 {
			hi = -1
		}
		match = fmt.Sprintf("MATCH (s:%s)-[%s]-(m)-[e%s]->(o:%s)",
			subjLabel, bounds(min-1, hi), typeSuffix(p.Op), objLabel)
		edgeVar = "e"
	default:
		match = fmt.Sprintf("MATCH (s:%s)-[%s]-(o:%s)", subjLabel, bounds(min, max), objLabel)
		edgeVar = ""
	}

	var conds []string
	if f := a.Entities[p.Subject.ID].Filter; f != nil {
		conds = append(conds, renderCypherExpr(f, "s"))
	}
	if f := a.Entities[p.Object.ID].Filter; f != nil {
		conds = append(conds, renderCypherExpr(f, "o"))
	}
	if p.IDFilter != nil && edgeVar != "" {
		conds = append(conds, renderCypherExpr(p.IDFilter, edgeVar))
	}
	if w := windowOf(a.Query, p); w != nil && edgeVar != "" {
		lo, hi := b.timeWindow(w)
		conds = append(conds, fmt.Sprintf("e.start_time >= %d", lo),
			fmt.Sprintf("e.start_time <= %d", hi))
	}

	ret := "RETURN s.id, o.id"
	if edgeVar != "" {
		ret = "RETURN e.id, s.id, o.id, e.start_time, e.end_time"
	}
	return cyPatternParts{match: match, conds: strings.Join(conds, " AND "), ret: ret}
}

// CompilePatternCypher compiles one TBQL pattern into a Cypher data
// query. extra carries the scheduler's added constraints.
func CompilePatternCypher(s *Store, a *tbql.Analyzed, idx int, extra []string) string {
	parts := compilePatternCypherParts(s.bounds(), a, idx)
	return parts.assemble(extra)
}

// typeSuffix renders the relationship type constraint ":read|write" for an
// op expression ("" when any op matches).
func typeSuffix(op *tbql.OpExpr) string {
	if op == nil {
		return ""
	}
	ops := op.Ops()
	if len(ops) >= 9 {
		return ""
	}
	sorted := make([]string, 0, len(ops))
	for o := range ops {
		sorted = append(sorted, o)
	}
	sort.Strings(sorted)
	return ":" + strings.Join(sorted, "|")
}

// CompileMonolithicSQL compiles the whole query into one giant SQL
// statement — the naive plan the paper compares against (query type (b) in
// RQ4): every pattern's joins and every filter woven into a single
// FROM/WHERE. The FROM list follows the textbook declarative translation —
// all entity tables, then all event tables — which is what a hand-written
// equivalent query looks like; the weaving of many joins and constraints
// is exactly what the paper blames for the monolithic plan's slowness.
func CompileMonolithicSQL(s *Store, a *tbql.Analyzed) (string, error) {
	return compileMonolithicSQL(s.bounds(), a)
}

func compileMonolithicSQL(b timeBounds, a *tbql.Analyzed) (string, error) {
	q := a.Query
	var from []string
	var conds []string
	seenEnt := make(map[string]bool)
	addEntity := func(id string) {
		if !seenEnt[id] {
			seenEnt[id] = true
			from = append(from, "entities "+id)
		}
	}
	for _, p := range q.Patterns {
		addEntity(p.Subject.ID)
		addEntity(p.Object.ID)
	}
	for i, p := range q.Patterns {
		if p.Path != nil && (p.Path.MinLen != 1 || p.Path.MaxLen != 1) {
			return "", fmt.Errorf("engine: variable-length path patterns cannot compile to SQL")
		}
		ev := fmt.Sprintf("e%d", i+1)
		from = append(from, "events "+ev)
		conds = append(conds,
			fmt.Sprintf("%s.subject_id = %s.id", ev, p.Subject.ID),
			fmt.Sprintf("%s.object_id = %s.id", ev, p.Object.ID),
		)
		if c := opsCondition(p.Op, ev); c != "" {
			conds = append(conds, c)
		}
		if p.IDFilter != nil {
			conds = append(conds, renderSQLExpr(p.IDFilter, ev))
		}
		if w := windowOf(q, p); w != nil {
			lo, hi := b.timeWindow(w)
			conds = append(conds, fmt.Sprintf("%s.start_time >= %d", ev, lo),
				fmt.Sprintf("%s.start_time <= %d", ev, hi))
		}
	}
	for _, id := range a.EntityOrder {
		decl := a.Entities[id]
		conds = append(conds, fmt.Sprintf("%s.kind = '%s'", decl.ID, kindLiteral(decl.Type)))
		if decl.Filter != nil {
			conds = append(conds, renderSQLExpr(decl.Filter, decl.ID))
		}
	}
	for _, rel := range q.Relations {
		c, err := temporalSQL(a, rel)
		if err != nil {
			return "", err
		}
		conds = append(conds, c)
	}
	var proj []string
	for _, item := range a.ReturnItems {
		proj = append(proj, item.EntityID+"."+sqlColumn(item.Attr))
	}
	distinct := ""
	if q.Return.Distinct {
		distinct = "DISTINCT "
	}
	return "SELECT " + distinct + strings.Join(proj, ", ") +
		" FROM " + strings.Join(from, ", ") +
		" WHERE " + strings.Join(conds, " AND "), nil
}

func temporalSQL(a *tbql.Analyzed, rel tbql.Relation) (string, error) {
	if rel.Kind == tbql.RelAttr {
		bin, ok := rel.Attr.(relational.BinOp)
		if !ok {
			return "", fmt.Errorf("engine: unsupported attribute relation")
		}
		l := bin.L.(relational.ColRef)
		r := bin.R.(relational.ColRef)
		return fmt.Sprintf("%s.%s %s %s.%s", l.Qualifier, sqlColumn(l.Column),
			bin.Op, r.Qualifier, sqlColumn(r.Column)), nil
	}
	ai, ok := a.PatternID[rel.A]
	if !ok {
		return "", fmt.Errorf("engine: unknown pattern %q", rel.A)
	}
	bi, ok := a.PatternID[rel.B]
	if !ok {
		return "", fmt.Errorf("engine: unknown pattern %q", rel.B)
	}
	ea, eb := fmt.Sprintf("e%d", ai+1), fmt.Sprintf("e%d", bi+1)
	switch rel.Kind {
	case tbql.RelBefore:
		base := fmt.Sprintf("%s.start_time < %s.start_time", ea, eb)
		if rel.HasDur {
			base += fmt.Sprintf(" AND %s.start_time - %s.start_time >= %d AND %s.start_time - %s.start_time <= %d",
				eb, ea, rel.LoDur.Microseconds(), eb, ea, rel.HiDur.Microseconds())
		}
		return base, nil
	case tbql.RelAfter:
		base := fmt.Sprintf("%s.start_time > %s.start_time", ea, eb)
		if rel.HasDur {
			base += fmt.Sprintf(" AND %s.start_time - %s.start_time >= %d AND %s.start_time - %s.start_time <= %d",
				ea, eb, rel.LoDur.Microseconds(), ea, eb, rel.HiDur.Microseconds())
		}
		return base, nil
	case tbql.RelWithin:
		dur := rel.HiDur.Microseconds()
		if !rel.HasDur {
			return "", fmt.Errorf("engine: within requires a duration range")
		}
		return fmt.Sprintf("(%s.start_time - %s.start_time <= %d AND %s.start_time - %s.start_time <= %d)",
			ea, eb, dur, eb, ea, dur), nil
	}
	return "", fmt.Errorf("engine: unsupported relation kind %v", rel.Kind)
}

// CompileMonolithicCypher compiles the whole query into one giant Cypher
// statement (query type (d) in RQ4), written the way a Neo4j user writes
// it: one MATCH per event pattern with its filters in an adjacent WHERE
// (labels repeated on every occurrence), and the temporal constraints
// conjoined onto the final clause.
func CompileMonolithicCypher(s *Store, a *tbql.Analyzed) (string, error) {
	return compileMonolithicCypher(s.bounds(), a)
}

func compileMonolithicCypher(b timeBounds, a *tbql.Analyzed) (string, error) {
	q := a.Query
	filtered := make(map[string]bool) // entity filters emitted once
	nodeRef := func(id string) string {
		decl := a.Entities[id]
		return fmt.Sprintf("(%s:%s)", id, labelOf(decl.Type.Kind()))
	}
	var clauses []string
	var lastConds []string
	for i, p := range q.Patterns {
		ev := fmt.Sprintf("e%d", i+1)
		subj := nodeRef(p.Subject.ID)
		obj := nodeRef(p.Object.ID)
		var pattern string
		isVar := p.Path != nil && (p.Path.MinLen != 1 || p.Path.MaxLen != 1)
		if isVar {
			hi := ""
			if p.Path.MaxLen >= 0 {
				hi = fmt.Sprintf("%d", p.Path.MaxLen)
			}
			pattern = fmt.Sprintf("%s-[*%d..%s]-%s", subj, p.Path.MinLen, hi, obj)
		} else {
			pattern = fmt.Sprintf("%s-[%s%s]->%s", subj, ev, typeSuffix(p.Op), obj)
		}
		var conds []string
		for _, id := range []string{p.Subject.ID, p.Object.ID} {
			if decl := a.Entities[id]; decl.Filter != nil && !filtered[id] {
				filtered[id] = true
				conds = append(conds, renderCypherExpr(decl.Filter, decl.ID))
			}
		}
		if !isVar {
			if p.IDFilter != nil {
				conds = append(conds, renderCypherExpr(p.IDFilter, ev))
			}
			if w := windowOf(q, p); w != nil {
				lo, hi := b.timeWindow(w)
				conds = append(conds, fmt.Sprintf("%s.start_time >= %d", ev, lo),
					fmt.Sprintf("%s.start_time <= %d", ev, hi))
			}
		}
		clause := "MATCH " + pattern
		if len(conds) > 0 {
			clause += " WHERE " + strings.Join(conds, " AND ")
		}
		clauses = append(clauses, clause)
		lastConds = conds
	}
	// Temporal and attribute relationships go on the final clause.
	var rels []string
	for _, rel := range q.Relations {
		c, err := temporalSQL(a, rel) // comparison syntax is shared
		if err != nil {
			return "", err
		}
		rels = append(rels, c)
	}
	if len(rels) > 0 {
		if len(lastConds) > 0 {
			clauses[len(clauses)-1] += " AND " + strings.Join(rels, " AND ")
		} else {
			clauses[len(clauses)-1] += " WHERE " + strings.Join(rels, " AND ")
		}
	}
	var proj []string
	for _, item := range a.ReturnItems {
		proj = append(proj, item.EntityID+"."+item.Attr)
	}
	distinct := ""
	if q.Return.Distinct {
		distinct = "DISTINCT "
	}
	return strings.Join(clauses, " ") + " RETURN " + distinct + strings.Join(proj, ", "), nil
}

// Explain renders a human-readable compilation report for an analyzed
// query: each pattern's logical-plan IR, the chosen physical plan, and the
// equivalent SQL/Cypher text. This is the only consumer of the text
// generators above — execution never renders or parses query text.
// Explain pins the latest published snapshot and resolves every window
// against its captured bounds, so it is safe to call concurrently with
// live ingestion (no session lock, no read of writer-mutated fields).
func (en *Engine) Explain(a *tbql.Analyzed) (string, error) {
	snap := en.Store.Snapshot()
	plan := en.planFor(a, snap, false)
	var sb strings.Builder
	sb.WriteString("--- per-pattern logical plans (IR) and physical plans ---\n")
	for i := range a.Query.Patterns {
		pp := &plan.pats[i]
		sb.WriteString(pp.ir.String())
		sb.WriteString("\n")
		if pp.meta.UsesGraph {
			parts := compilePatternCypherParts(plan.bounds, a, i)
			sb.WriteString("physical: graph traversal plan\n")
			sb.WriteString("  equivalent Cypher: " + parts.assemble(nil) + "\n")
		} else {
			pr, err := pp.prepared(en.Store, plan.bounds)
			if err != nil {
				return "", err
			}
			parts := compilePatternSQLParts(plan.bounds, a, i)
			sb.WriteString("physical: relational plan (runtime-pruned parameters)\n")
			sb.WriteString(indent(pr.Describe(), "  "))
			sb.WriteString("  equivalent SQL: " + parts.assemble(nil) + "\n")
		}
	}
	sb.WriteString("--- scheduled order ---\n")
	for _, idx := range plan.order {
		fmt.Fprintf(&sb, "%s ", a.Query.Patterns[idx].ID)
	}
	sb.WriteString("\n")
	if sql, err := compileMonolithicSQL(plan.bounds, a); err == nil {
		sb.WriteString("--- monolithic SQL (RQ4 comparison) ---\n" + sql + "\n")
	}
	if cy, err := compileMonolithicCypher(plan.bounds, a); err == nil {
		sb.WriteString("--- monolithic Cypher (RQ4 comparison) ---\n" + cy + "\n")
	}
	return sb.String(), nil
}

func indent(s, prefix string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i, l := range lines {
		lines[i] = prefix + l
	}
	return strings.Join(lines, "\n") + "\n"
}
