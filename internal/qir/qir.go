// Package qir defines ThreatRaptor's shared logical-plan intermediate
// representation. TBQL analysis lowers each behavior-query pattern into
// one typed DataQuery — scans with predicate trees, symbolic time-window
// constraints, and path-pattern shapes — and both storage backends consume
// that IR directly: the relational engine lowers it to its physical
// nested-loop/vectorized plan, the graph engine to its traversal plan.
// Nothing on the execution path renders SQL or Cypher text or invokes a
// query parser; EXPLAIN prints the lowered backend plans through their
// own printers (relational.SelectStmt.String, graphdb.Query.String).
//
// Execution-time values that vary between runs of one compiled plan are
// not part of the IR; they are bound per execution through
// relational.Params and graphdb.ExecParams:
//
//   - the scheduler's subject and object binding sets (ID lists) and the
//     standing-query delta floor (an integer) occupy the three well-known
//     parameter slots below;
//   - every value literal of a predicate is a value slot,
//     relational.ValParam{Slot: i}, bound to the i-th value of the
//     analyzed query's literal vector (tbql.Analyzed.Lits). The IR of one
//     query therefore serves every query of its shape, the query with its
//     literals erased (tbql.Analyzed.Shape). Entity kinds, operations,
//     path bounds and windows stay in the IR: they shape the plan.
package qir

import (
	"fmt"
	"strings"

	"threatraptor/internal/audit"
	"threatraptor/internal/relational"
)

// The parameter slots every lowered data query may use. Subject and
// object slots carry sorted unique entity-ID lists; the delta slot carries
// the standing-query event-ID floor.
const (
	SlotSubjIDs = 0 // subject entity binding set
	SlotObjIDs  = 1 // object entity binding set
	SlotDelta   = 2 // minimum event ID (delta join floor)
)

// WindowKind distinguishes how a window's bounds resolve.
type WindowKind uint8

// Window kinds. Only WindRange is independent of the store's time bounds;
// the others are bounds-sensitive, and plans compiled from them must be
// re-lowered when a live append moves the bounds.
const (
	WindRange  WindowKind = iota // fixed [FromUS, ToUS]
	WindBefore                   // [store min, ToUS]
	WindAfter                    // [FromUS, store max]
	WindLast                     // [store max - DurUS, store max]
)

// Window is a symbolic time-window constraint on an event pattern's
// start_time, in µs since epoch.
type Window struct {
	Kind   WindowKind
	FromUS int64
	ToUS   int64
	DurUS  int64
}

// Sensitive reports whether the window's bounds depend on the store's
// min/max event time.
func (w *Window) Sensitive() bool { return w != nil && w.Kind != WindRange }

// Bounds resolves the window against the store's time bounds.
func (w *Window) Bounds(minUS, maxUS int64) (lo, hi int64) {
	switch w.Kind {
	case WindRange:
		return w.FromUS, w.ToUS
	case WindBefore:
		return minUS, w.ToUS
	case WindAfter:
		return w.FromUS, maxUS
	case WindLast:
		return maxUS - w.DurUS, maxUS
	}
	return minUS, maxUS
}

// DataQuery is the logical plan of one TBQL pattern's data query. Exactly
// one of Event and Path is set.
type DataQuery struct {
	// PatternID is the TBQL pattern identifier the query was lowered from.
	PatternID string
	Event     *EventJoin
	Path      *PathMatch
}

// UsesGraph reports whether the query lowers to the graph backend.
func (q *DataQuery) UsesGraph() bool { return q.Path != nil }

// Window returns the query's time-window constraint (nil when none).
func (q *DataQuery) Window() *Window {
	if q.Event != nil {
		return q.Event.Window
	}
	return q.Path.Window
}

// EventJoin is the logical plan of an event pattern: the event scan joined
// to its subject and object entities on the outer-column bindings
// e.subject_id = s.id and e.object_id = o.id, with per-input predicate
// trees. Predicates use unqualified logical attribute names; backend
// lowering qualifies and maps them to physical columns.
type EventJoin struct {
	// SubjPred / ObjPred filter the subject / object entity (nil = true).
	SubjPred relational.Expr
	ObjPred  relational.Expr
	// ObjKind is the object's entity-kind literal (the subject is always
	// a process).
	ObjKind string
	// Ops constrains the event operation, sorted; nil = any operation.
	Ops []string
	// EventPred filters event attributes (canonical column names over the
	// event scan; nil = true).
	EventPred relational.Expr
	// Window bounds the event start_time (nil = none).
	Window *Window
	// SubjConjuncts / ObjConjuncts count declared constraints per side —
	// the selectivity estimate behind the join-anchor choice.
	SubjConjuncts int
	ObjConjuncts  int
}

// PathMatch is the logical plan of a path pattern (including single-hop
// patterns routed to the graph backend): a variable-length traversal from
// the subject process to the object, optionally ending in a typed hop that
// binds the event variable.
type PathMatch struct {
	// MinLen / MaxLen bound the hop count; MaxLen == -1 means unbounded.
	MinLen int
	MaxLen int
	// Ops types the final hop, sorted; nil = any. A typed final hop (or a
	// single-hop pattern) binds the event edge variable.
	Ops []string
	// ObjKind selects the object node's entity kind (label).
	ObjKind audit.EntityKind
	// SubjPred / ObjPred / EdgePred filter the endpoints and the bound
	// event edge (nil = true). EdgePred applies only when HasEdgeVar.
	SubjPred relational.Expr
	ObjPred  relational.Expr
	EdgePred relational.Expr
	// Window bounds the final hop's start_time; applies only when
	// HasEdgeVar (an untyped multi-hop traversal binds no event).
	Window *Window
	// HasEdgeVar reports whether the traversal binds an event edge
	// variable (and so returns event ID and times alongside endpoints).
	HasEdgeVar bool
}

// String renders the IR for EXPLAIN output.
func (q *DataQuery) String() string { return q.BoundString(nil) }

// BoundString renders the IR with each value slot followed by its value
// in vals.
func (q *DataQuery) BoundString(vals []relational.Value) string {
	predSuffix := func(e relational.Expr) string {
		if e == nil {
			return ""
		}
		return " ∧ " + relational.BoundExprString(e, vals)
	}
	var sb strings.Builder
	if q.Event != nil {
		e := q.Event
		fmt.Fprintf(&sb, "event_join %s {\n", q.PatternID)
		fmt.Fprintf(&sb, "  scan events e join entities s on e.subject_id = s.id [param s.id in ?subj]\n")
		fmt.Fprintf(&sb, "                join entities o on e.object_id = o.id [param o.id in ?obj]\n")
		fmt.Fprintf(&sb, "  s: kind = proc%s\n", predSuffix(e.SubjPred))
		fmt.Fprintf(&sb, "  o: kind = %s%s\n", e.ObjKind, predSuffix(e.ObjPred))
		fmt.Fprintf(&sb, "  e: op in %s%s [param e.id >= ?delta]\n", opsString(e.Ops), predSuffix(e.EventPred))
		if e.Window != nil {
			fmt.Fprintf(&sb, "  window: %s\n", e.Window)
		}
		fmt.Fprintf(&sb, "  anchor scores: subj=%d obj=%d\n}", e.SubjConjuncts, e.ObjConjuncts)
		return sb.String()
	}
	p := q.Path
	fmt.Fprintf(&sb, "path_match %s {\n", q.PatternID)
	hi := "∞"
	if p.MaxLen >= 0 {
		hi = fmt.Sprintf("%d", p.MaxLen)
	}
	fmt.Fprintf(&sb, "  traverse proc -> %s, hops %d..%s, final op in %s, edge var: %v [param some edge id >= ?delta]\n",
		p.ObjKind, p.MinLen, hi, opsString(p.Ops), p.HasEdgeVar)
	fmt.Fprintf(&sb, "  s: kind = proc%s [param s.id in ?subj]\n", predSuffix(p.SubjPred))
	fmt.Fprintf(&sb, "  o: kind = %s%s [param o.id in ?obj]\n", p.ObjKind, predSuffix(p.ObjPred))
	if p.HasEdgeVar {
		fmt.Fprintf(&sb, "  e:%s\n", predSuffix(p.EdgePred))
	}
	if p.Window != nil {
		fmt.Fprintf(&sb, "  window: %s\n", p.Window)
	}
	sb.WriteString("}")
	return sb.String()
}

func (w *Window) String() string {
	switch w.Kind {
	case WindRange:
		return fmt.Sprintf("start_time in [%d, %d]", w.FromUS, w.ToUS)
	case WindBefore:
		return fmt.Sprintf("start_time in [store_min, %d]", w.ToUS)
	case WindAfter:
		return fmt.Sprintf("start_time in [%d, store_max]", w.FromUS)
	case WindLast:
		return fmt.Sprintf("start_time in [store_max - %dus, store_max]", w.DurUS)
	}
	return "unbounded"
}

func opsString(ops []string) string {
	if len(ops) == 0 {
		return "(any)"
	}
	return "(" + strings.Join(ops, "|") + ")"
}
