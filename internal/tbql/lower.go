package tbql

import (
	"sort"

	"threatraptor/internal/qir"
	"threatraptor/internal/relational"
)

// Lower compiles an analyzed query's patterns into the shared logical-plan
// IR, one DataQuery per pattern. The IR is pure structure: predicate trees
// reference logical attribute names, every value literal is the value
// slot of its position in a.Lits (so the IR of one query serves every
// query of its Shape), windows stay symbolic (the engine resolves
// bounds-sensitive windows against the store when lowering to physical
// plans), and the scheduler's per-execution extras are left to the
// well-known parameter slots.
func Lower(a *Analyzed) []*qir.DataQuery {
	out := make([]*qir.DataQuery, len(a.Query.Patterns))
	for i, p := range a.Query.Patterns {
		dq := &qir.DataQuery{PatternID: p.ID}
		w := lowerWindow(patternWindow(a.Query, p))
		subj := a.Entities[p.Subject.ID].slotted
		obj := a.Entities[p.Object.ID].slotted
		if p.Path != nil {
			dq.Path = &qir.PathMatch{
				MinLen:     p.Path.MinLen,
				MaxLen:     p.Path.MaxLen,
				Ops:        LoweredOps(p.Op),
				ObjKind:    p.Object.Type.Kind(),
				SubjPred:   subj,
				ObjPred:    obj,
				HasEdgeVar: (p.Path.MinLen == 1 && p.Path.MaxLen == 1) || p.Op != nil,
			}
			if dq.Path.HasEdgeVar {
				dq.Path.EdgePred = a.eventSlotted[i]
				dq.Path.Window = w
			}
		} else {
			dq.Event = &qir.EventJoin{
				SubjPred:      subj,
				ObjPred:       obj,
				ObjKind:       string(p.Object.Type),
				Ops:           LoweredOps(p.Op),
				EventPred:     a.eventSlotted[i],
				Window:        w,
				SubjConjuncts: conjunctCount(subj),
				ObjConjuncts:  conjunctCount(obj),
			}
		}
		out[i] = dq
	}
	return out
}

// patternWindow resolves the window that applies to a pattern: its own,
// else the query's global window.
func patternWindow(q *Query, p *Pattern) *Window {
	if p.Window != nil {
		return p.Window
	}
	return q.GlobalWindow
}

// LoweredOps flattens an operation expression to its sorted matching-op
// list, or nil when every operation matches (no constraint needed).
func LoweredOps(op *OpExpr) []string {
	if op == nil {
		return nil
	}
	set := op.Ops()
	if len(set) >= 9 {
		return nil
	}
	ops := make([]string, 0, len(set))
	for o := range set {
		ops = append(ops, o)
	}
	sort.Strings(ops)
	return ops
}

// lowerWindow converts a TBQL window to its symbolic IR form. "at t"
// resolves to the fixed day range here; the bounds-sensitive kinds stay
// symbolic.
func lowerWindow(w *Window) *qir.Window {
	if w == nil {
		return nil
	}
	switch w.Kind {
	case WindRange:
		return &qir.Window{Kind: qir.WindRange, FromUS: w.From.UnixMicro(), ToUS: w.To.UnixMicro()}
	case WindAt:
		lo := w.From.UnixMicro()
		return &qir.Window{Kind: qir.WindRange, FromUS: lo, ToUS: lo + 24*3600*1_000_000 - 1}
	case WindBefore:
		return &qir.Window{Kind: qir.WindBefore, ToUS: w.To.UnixMicro()}
	case WindAfter:
		return &qir.Window{Kind: qir.WindAfter, FromUS: w.From.UnixMicro()}
	case WindLast:
		return &qir.Window{Kind: qir.WindLast, DurUS: w.Dur.Microseconds()}
	}
	return nil
}

// conjunctCount counts top-level AND conjuncts of a filter; a nil filter
// counts as one (the always-true conjunct), matching the scheduler's
// pruning-score convention.
func conjunctCount(e relational.Expr) int {
	if e == nil {
		return 1
	}
	n := 0
	var walk func(relational.Expr)
	walk = func(e relational.Expr) {
		if bin, ok := e.(relational.BinOp); ok && bin.Op == "and" {
			walk(bin.L)
			walk(bin.R)
			return
		}
		n++
	}
	walk(e)
	return n
}
