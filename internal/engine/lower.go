package engine

// This file lowers the shared logical-plan IR (internal/qir) to the two
// backends' executable plan forms: relational statement ASTs (compiled by
// the relational planner into its physical nested-loop/vectorized plan)
// and graph query ASTs (consumed by the traversal matcher). No SQL or
// Cypher text is rendered and no parser runs anywhere in here — the
// scheduler's binding sets and the standing-query delta floor become
// parameter slots bound at execution. Text exists only where a caller
// prints these ASTs (EXPLAIN, the RQ4 monolithic baselines' Table X).

import (
	"fmt"

	"threatraptor/internal/audit"
	"threatraptor/internal/graphdb"
	"threatraptor/internal/qir"
	"threatraptor/internal/relational"
	"threatraptor/internal/tbql"
)

func colRef(alias, column string) relational.ColRef {
	return relational.ColRef{Qualifier: alias, Column: column}
}

// sqlColumn maps a TBQL attribute name to the relational column name.
func sqlColumn(attr string) string {
	if attr == "group" {
		return "grp"
	}
	return attr
}

func strLit(s string) relational.Lit { return relational.Lit{V: relational.Str(s)} }
func intLit(i int64) relational.Lit  { return relational.Lit{V: relational.Int(i)} }

func binOp(op string, l, r relational.Expr) relational.Expr {
	return relational.BinOp{Op: op, L: l, R: r}
}

// andChain conjoins conds left to right (the planner flattens the tree
// back into this conjunct order).
func andChain(conds []relational.Expr) relational.Expr {
	if len(conds) == 0 {
		return nil
	}
	e := conds[0]
	for _, c := range conds[1:] {
		e = relational.BinOp{Op: "and", L: e, R: c}
	}
	return e
}

// qualify returns pred with every column reference qualified by alias and
// its column name mapped through mapCol (nil = identity).
func qualify(pred relational.Expr, alias string, mapCol func(string) string) relational.Expr {
	switch v := pred.(type) {
	case relational.ColRef:
		col := v.Column
		if mapCol != nil {
			col = mapCol(col)
		}
		return relational.ColRef{Qualifier: alias, Column: col}
	case relational.Lit:
		return v
	case relational.BinOp:
		return relational.BinOp{Op: v.Op, L: qualify(v.L, alias, mapCol), R: qualify(v.R, alias, mapCol)}
	case relational.UnOp:
		return relational.UnOp{Op: v.Op, E: qualify(v.E, alias, mapCol)}
	case relational.InList:
		vals := make([]relational.Expr, len(v.Vals))
		for i, x := range v.Vals {
			vals[i] = qualify(x, alias, mapCol)
		}
		return relational.InList{E: qualify(v.E, alias, mapCol), Vals: vals, Negate: v.Negate}
	}
	return pred
}

// opsCond builds the operation constraint for an alias, or nil when any
// operation matches.
func opsCond(alias string, ops []string) relational.Expr {
	switch len(ops) {
	case 0:
		return nil
	case 1:
		return binOp("=", colRef(alias, "op"), strLit(ops[0]))
	}
	vals := make([]relational.Expr, len(ops))
	for i, op := range ops {
		vals[i] = strLit(op)
	}
	return relational.InList{E: colRef(alias, "op"), Vals: vals}
}

// eventSelect is the data-query projection shared by every event pattern:
// event ID, subject ID, object ID, start and end time.
func eventSelect() []relational.SelectItem {
	return []relational.SelectItem{
		{Expr: colRef("e", "id")},
		{Expr: colRef("s", "id")},
		{Expr: colRef("o", "id")},
		{Expr: colRef("e", "start_time")},
		{Expr: colRef("e", "end_time")},
	}
}

// lowerEventStmt lowers one event pattern's IR to a single relational
// statement AST carrying every parameter constraint as an optional,
// runtime-pruned conjunct: the subject/object binding sets (Optional
// ParamIDs — an unbound list constrains nothing and an index access
// planned from it falls back) and the standing-query delta floor (Prune
// Param — a zero floor deactivates the conjunct). One compiled plan thus
// serves all eight extras shapes the scheduler can produce, where the
// previous design compiled up to eight lazily-materialized variants. The
// join anchors on the statically more constrained entity side.
func lowerEventStmt(b timeBounds, ej *qir.EventJoin) *relational.SelectStmt {
	from := []relational.TableRef{
		{Table: "entities", Alias: "s"},
		{Table: "events", Alias: "e"},
		{Table: "entities", Alias: "o"},
	}
	if ej.ObjConjuncts > ej.SubjConjuncts {
		from[0], from[2] = from[2], from[0]
	}
	return &relational.SelectStmt{
		Select: eventSelect(),
		From:   from,
		Where:  andChain(eventConds(b, ej)),
	}
}

// lowerEventStmtDeltaAnchored lowers the same pattern anchored on the
// events table: the standing-query catch-up plan. With the delta floor at
// level 0, the relational scan-floor optimization starts the events scan
// at the binary-searched first new row (event IDs are dense and
// ascending), and the entities join via id-index probes — so a delta
// round's data query costs O(new events), however large the store is.
func lowerEventStmtDeltaAnchored(b timeBounds, ej *qir.EventJoin) *relational.SelectStmt {
	return &relational.SelectStmt{
		Select: eventSelect(),
		From: []relational.TableRef{
			{Table: "events", Alias: "e"},
			{Table: "entities", Alias: "s"},
			{Table: "entities", Alias: "o"},
		},
		Where: andChain(eventConds(b, ej)),
	}
}

// eventConds builds the WHERE conjuncts shared by both anchorings of an
// event pattern. The delta floor leads so the floor-anchored plan attaches
// it to its level-0 scan. Windows resolve against the caller's fixed
// bounds (the pinned snapshot's, for concurrent executions).
func eventConds(b timeBounds, ej *qir.EventJoin) []relational.Expr {
	conds := []relational.Expr{
		binOp(">=", colRef("e", "id"), relational.Param{Slot: qir.SlotDelta, Prune: true}),
		binOp("=", colRef("e", "subject_id"), colRef("s", "id")),
		binOp("=", colRef("e", "object_id"), colRef("o", "id")),
		binOp("=", colRef("s", "kind"), strLit("proc")),
		binOp("=", colRef("o", "kind"), strLit(ej.ObjKind)),
	}
	if c := opsCond("e", ej.Ops); c != nil {
		conds = append(conds, c)
	}
	if ej.SubjPred != nil {
		conds = append(conds, qualify(ej.SubjPred, "s", sqlColumn))
	}
	if ej.ObjPred != nil {
		conds = append(conds, qualify(ej.ObjPred, "o", sqlColumn))
	}
	if ej.EventPred != nil {
		conds = append(conds, qualify(ej.EventPred, "e", nil))
	}
	if ej.Window != nil {
		lo, hi := ej.Window.Bounds(b.min, b.max)
		conds = append(conds,
			binOp(">=", colRef("e", "start_time"), intLit(lo)),
			binOp("<=", colRef("e", "start_time"), intLit(hi)))
	}
	conds = append(conds,
		relational.ParamIDs{E: colRef("s", "id"), Slot: qir.SlotSubjIDs, Optional: true},
		relational.ParamIDs{E: colRef("o", "id"), Slot: qir.SlotObjIDs, Optional: true})
	return conds
}

// lowerPathQuery lowers one path pattern's IR to a graph traversal plan.
// Binding sets and the delta floor stay out of the plan; they bind per
// execution through graphdb.ExecParams (variables "s", "o", "e").
// distinct is the TBQL return's: the join collapses identical pattern rows
// of a distinct query (joinLevel.setRows), so a var-length plan asks the
// graph for a row set, which lets an unfloored hop expand by bounded BFS
// instead of once per trail. A single hop's rows are unique already (one
// per edge), so its plan skips the graph's deduplication.
func lowerPathQuery(b timeBounds, pm *qir.PathMatch, distinct bool) *graphdb.Query {
	subjLabel := LabelProcess
	objLabel := labelOf(pm.ObjKind)

	var pat graphdb.Pattern
	switch {
	case pm.MinLen == 1 && pm.MaxLen == 1:
		// Single hop (event pattern or length-1 path).
		pat = graphdb.Pattern{
			Nodes: []graphdb.NodePat{{Var: "s", Label: subjLabel}, {Var: "o", Label: objLabel}},
			Rels:  []graphdb.RelPat{{Var: "e", Types: pm.Ops, Dir: graphdb.DirOut, Min: 1, Max: 1}},
		}
	case pm.HasEdgeVar:
		// Variable-length information flow with a typed final hop: the
		// intermediate hops are direction-agnostic, the final hop lands on
		// the object and binds the event variable.
		hi := pm.MaxLen - 1
		if pm.MaxLen < 0 {
			hi = -1
		}
		pat = graphdb.Pattern{
			Nodes: []graphdb.NodePat{{Var: "s", Label: subjLabel}, {Var: "m"}, {Var: "o", Label: objLabel}},
			Rels: []graphdb.RelPat{
				{Dir: graphdb.DirBoth, Min: pm.MinLen - 1, Max: hi},
				{Var: "e", Types: pm.Ops, Dir: graphdb.DirOut, Min: 1, Max: 1},
			},
		}
	default:
		pat = graphdb.Pattern{
			Nodes: []graphdb.NodePat{{Var: "s", Label: subjLabel}, {Var: "o", Label: objLabel}},
			Rels:  []graphdb.RelPat{{Dir: graphdb.DirBoth, Min: pm.MinLen, Max: pm.MaxLen}},
		}
	}

	var conds []relational.Expr
	if pm.SubjPred != nil {
		conds = append(conds, qualify(pm.SubjPred, "s", nil))
	}
	if pm.ObjPred != nil {
		conds = append(conds, qualify(pm.ObjPred, "o", nil))
	}
	if pm.HasEdgeVar {
		if pm.EdgePred != nil {
			conds = append(conds, qualify(pm.EdgePred, "e", nil))
		}
		if pm.Window != nil {
			lo, hi := pm.Window.Bounds(b.min, b.max)
			conds = append(conds,
				binOp(">=", colRef("e", "start_time"), intLit(lo)),
				binOp("<=", colRef("e", "start_time"), intLit(hi)))
		}
	}

	ret := []graphdb.ReturnItem{{Var: "s", Prop: "id"}, {Var: "o", Prop: "id"}}
	if pm.HasEdgeVar {
		ret = []graphdb.ReturnItem{
			{Var: "e", Prop: "id"}, {Var: "s", Prop: "id"}, {Var: "o", Prop: "id"},
			{Var: "e", Prop: "start_time"}, {Var: "e", Prop: "end_time"},
		}
	}
	return &graphdb.Query{
		Patterns: []graphdb.Pattern{pat},
		Where:    andChain(conds),
		Distinct: distinct && (pm.MinLen != 1 || pm.MaxLen != 1),
		Return:   ret,
	}
}

// lowerEntityFilter lowers a graph pattern anchor's entity predicate to a
// scan of the entities table returning the IDs of kind's entities that
// satisfy it: the graph anchor access path. Both backends evaluate
// predicates with the same comparison, LIKE and NULL semantics over the
// same attribute values, and the graph still applies its full WHERE, so
// the IDs need only be a superset of the nodes the traversal accepts.
func lowerEntityFilter(kind audit.EntityKind, pred relational.Expr) *relational.SelectStmt {
	return &relational.SelectStmt{
		Select: []relational.SelectItem{{Expr: colRef("n", "id")}},
		From:   []relational.TableRef{{Table: "entities", Alias: "n"}},
		Where: andChain([]relational.Expr{
			binOp("=", colRef("n", "kind"), strLit(kind.String())),
			qualify(pred, "n", sqlColumn),
		}),
	}
}

// lowerMonolithicStmt lowers the whole query into one statement AST — the
// naive plan the paper compares against (query type (b) in RQ4): every
// pattern's joins and every filter woven into a single FROM/WHERE, entity
// tables first, the textbook declarative translation. Joins, filters, ops
// and temporal relations come straight from the analyzed query, so the
// baseline stays independent of the IR the scheduled plan runs; only
// windows resolve through the pattern's IR (irs, from tbql.Lower) against
// the fixed bounds b.
func lowerMonolithicStmt(b timeBounds, a *tbql.Analyzed, irs []*qir.DataQuery) (*relational.SelectStmt, error) {
	q := a.Query
	var from []relational.TableRef
	var conds []relational.Expr
	seenEnt := make(map[string]bool)
	addEntity := func(id string) {
		if !seenEnt[id] {
			seenEnt[id] = true
			from = append(from, relational.TableRef{Table: "entities", Alias: id})
		}
	}
	for _, p := range q.Patterns {
		addEntity(p.Subject.ID)
		addEntity(p.Object.ID)
	}
	for i, p := range q.Patterns {
		if p.Path != nil && (p.Path.MinLen != 1 || p.Path.MaxLen != 1) {
			return nil, fmt.Errorf("engine: variable-length path patterns cannot compile to SQL")
		}
		ev := fmt.Sprintf("e%d", i+1)
		from = append(from, relational.TableRef{Table: "events", Alias: ev})
		conds = append(conds,
			binOp("=", colRef(ev, "subject_id"), colRef(p.Subject.ID, "id")),
			binOp("=", colRef(ev, "object_id"), colRef(p.Object.ID, "id")),
		)
		if c := opsCond(ev, tbql.LoweredOps(p.Op)); c != nil {
			conds = append(conds, c)
		}
		if p.IDFilter != nil {
			conds = append(conds, qualify(p.IDFilter, ev, nil))
		}
		if w := irs[i].Window(); w != nil {
			lo, hi := w.Bounds(b.min, b.max)
			conds = append(conds,
				binOp(">=", colRef(ev, "start_time"), intLit(lo)),
				binOp("<=", colRef(ev, "start_time"), intLit(hi)))
		}
	}
	for _, id := range a.EntityOrder {
		decl := a.Entities[id]
		conds = append(conds, binOp("=", colRef(decl.ID, "kind"), strLit(string(decl.Type))))
		if decl.Filter != nil {
			conds = append(conds, qualify(decl.Filter, decl.ID, sqlColumn))
		}
	}
	for _, rel := range q.Relations {
		c, err := temporalExpr(a, rel)
		if err != nil {
			return nil, err
		}
		conds = append(conds, c)
	}
	proj := make([]relational.SelectItem, len(a.ReturnItems))
	for i, item := range a.ReturnItems {
		proj[i] = relational.SelectItem{Expr: colRef(item.EntityID, sqlColumn(item.Attr))}
	}
	return &relational.SelectStmt{
		Distinct: q.Return.Distinct,
		Select:   proj,
		From:     from,
		Where:    andChain(conds),
	}, nil
}

// temporalExpr builds the comparison tree of one temporal or attribute
// relationship between pattern event aliases (shared by the monolithic SQL
// and Cypher lowerings, whose comparison semantics are identical).
func temporalExpr(a *tbql.Analyzed, rel tbql.Relation) (relational.Expr, error) {
	if rel.Kind == tbql.RelAttr {
		bin, ok := rel.Attr.(relational.BinOp)
		if !ok {
			return nil, fmt.Errorf("engine: unsupported attribute relation")
		}
		l, okL := bin.L.(relational.ColRef)
		r, okR := bin.R.(relational.ColRef)
		if !okL || !okR {
			return nil, fmt.Errorf("engine: unsupported attribute relation")
		}
		return binOp(bin.Op,
			colRef(l.Qualifier, sqlColumn(l.Column)),
			colRef(r.Qualifier, sqlColumn(r.Column))), nil
	}
	ai, ok := a.PatternID[rel.A]
	if !ok {
		return nil, fmt.Errorf("engine: unknown pattern %q", rel.A)
	}
	bi, ok := a.PatternID[rel.B]
	if !ok {
		return nil, fmt.Errorf("engine: unknown pattern %q", rel.B)
	}
	ea, eb := fmt.Sprintf("e%d", ai+1), fmt.Sprintf("e%d", bi+1)
	start := func(alias string) relational.Expr { return colRef(alias, "start_time") }
	gap := func(later, earlier string) relational.Expr {
		return binOp("-", start(later), start(earlier))
	}
	switch rel.Kind {
	case tbql.RelBefore, tbql.RelAfter:
		op, later, earlier := "<", eb, ea
		if rel.Kind == tbql.RelAfter {
			op, later, earlier = ">", ea, eb
		}
		base := binOp(op, start(ea), start(eb))
		if !rel.HasDur {
			return base, nil
		}
		return andChain([]relational.Expr{
			base,
			binOp(">=", gap(later, earlier), intLit(rel.LoDur.Microseconds())),
			binOp("<=", gap(later, earlier), intLit(rel.HiDur.Microseconds())),
		}), nil
	case tbql.RelWithin:
		if !rel.HasDur {
			return nil, fmt.Errorf("engine: within requires a duration range")
		}
		d := rel.HiDur.Microseconds()
		return binOp("and",
			binOp("<=", gap(ea, eb), intLit(d)),
			binOp("<=", gap(eb, ea), intLit(d))), nil
	}
	return nil, fmt.Errorf("engine: unsupported relation kind %v", rel.Kind)
}

// lowerMonolithicCypher lowers the whole query into one multi-MATCH graph
// query AST (query type (d) in RQ4), the way a Neo4j user writes it: one
// pattern per event pattern, labels repeated on every occurrence, each
// entity filter once, and the temporal constraints conjoined at the end.
// Like lowerMonolithicStmt it reads the analyzed query and resolves only
// windows through irs. The caller selects clause-at-a-time execution.
func lowerMonolithicCypher(b timeBounds, a *tbql.Analyzed, irs []*qir.DataQuery) (*graphdb.Query, error) {
	q := a.Query
	filtered := make(map[string]bool) // entity filters emitted once
	node := func(id string) graphdb.NodePat {
		decl := a.Entities[id]
		return graphdb.NodePat{Var: id, Label: labelOf(decl.Type.Kind())}
	}
	gq := &graphdb.Query{Distinct: q.Return.Distinct}
	var conds []relational.Expr
	for i, p := range q.Patterns {
		ev := fmt.Sprintf("e%d", i+1)
		isVar := p.Path != nil && (p.Path.MinLen != 1 || p.Path.MaxLen != 1)
		var rel graphdb.RelPat
		if isVar {
			rel = graphdb.RelPat{Dir: graphdb.DirBoth, Min: p.Path.MinLen, Max: p.Path.MaxLen}
		} else {
			rel = graphdb.RelPat{Var: ev, Types: tbql.LoweredOps(p.Op), Dir: graphdb.DirOut, Min: 1, Max: 1}
		}
		gq.Patterns = append(gq.Patterns, graphdb.Pattern{
			Nodes: []graphdb.NodePat{node(p.Subject.ID), node(p.Object.ID)},
			Rels:  []graphdb.RelPat{rel},
		})
		for _, id := range []string{p.Subject.ID, p.Object.ID} {
			if decl := a.Entities[id]; decl.Filter != nil && !filtered[id] {
				filtered[id] = true
				conds = append(conds, qualify(decl.Filter, decl.ID, nil))
			}
		}
		if !isVar {
			if p.IDFilter != nil {
				conds = append(conds, qualify(p.IDFilter, ev, nil))
			}
			if w := irs[i].Window(); w != nil {
				lo, hi := w.Bounds(b.min, b.max)
				conds = append(conds,
					binOp(">=", colRef(ev, "start_time"), intLit(lo)),
					binOp("<=", colRef(ev, "start_time"), intLit(hi)))
			}
		}
	}
	for _, rel := range q.Relations {
		c, err := temporalExpr(a, rel)
		if err != nil {
			return nil, err
		}
		conds = append(conds, c)
	}
	gq.Where = andChain(conds)
	for _, item := range a.ReturnItems {
		gq.Return = append(gq.Return, graphdb.ReturnItem{Var: item.EntityID, Prop: item.Attr})
	}
	return gq, nil
}
