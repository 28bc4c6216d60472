// Package tbql implements the Threat Behavior Query Language of the
// ThreatRaptor paper (Grammar 1, Section III-D): a concise declarative
// language for hunting over system audit logging data. TBQL treats system
// entities (files, processes, network connections) and system events as
// first-class citizens, with explicit constructs for entity/event types,
// event operations, temporal/attribute relationships, and variable-length
// event path patterns.
package tbql

import (
	"time"

	"threatraptor/internal/relational"
)

// EntityType is a TBQL entity keyword.
type EntityType string

// The three entity types.
const (
	EntFile EntityType = "file"
	EntProc EntityType = "proc"
	EntIP   EntityType = "ip"
)

// Query is a parsed TBQL query.
type Query struct {
	// GlobalFilters apply to every event pattern.
	GlobalFilters []relational.Expr
	// GlobalWindow restricts every pattern's time range.
	GlobalWindow *Window
	Patterns     []*Pattern
	Relations    []Relation
	Return       Return
}

// Pattern is one TBQL pattern: an event pattern (Path == nil) or a
// variable-length event path pattern (Path != nil).
type Pattern struct {
	Subject Entity
	// Op is the operation expression of an event pattern, or the optional
	// final-hop operation of a path pattern.
	Op *OpExpr
	// Path is non-nil for the ⟨op_path⟩ syntax.
	Path *PathSpec
	// ID is the pattern identifier declared with "as" ("" when absent).
	ID string
	// IDFilter is the optional attribute filter after the pattern ID.
	IDFilter relational.Expr
	Object   Entity
	Window   *Window
}

// Entity is a typed entity reference with an optional attribute filter.
type Entity struct {
	Type   EntityType
	ID     string
	Filter relational.Expr // nil when absent
}

// PathSpec is the ⟨op_path⟩ rule: '~>' (graph search, any intermediate
// hops) or '->' with explicit length bounds.
type PathSpec struct {
	// MinLen/MaxLen bound the number of hops; MaxLen == -1 means
	// unbounded. The plain '->' form is MinLen == MaxLen == 1.
	MinLen int
	MaxLen int
}

// OpExpr is an operation expression tree over event operation keywords.
type OpExpr struct {
	// Exactly one of the fields below is set.
	Op  string  // leaf: "read", "write", ...
	Not *OpExpr // '!' op_exp
	And [2]*OpExpr
	Or  [2]*OpExpr
}

// opVocabulary is the closed vocabulary of operation keywords.
var opVocabulary = [...]string{"read", "write", "execute", "start", "end", "rename",
	"connect", "send", "receive"}

// Ops returns the set of operation keywords that satisfy the expression,
// evaluated over the closed op vocabulary.
func (o *OpExpr) Ops() map[string]bool {
	out := make(map[string]bool)
	for _, op := range opVocabulary {
		if o.matches(op) {
			out[op] = true
		}
	}
	return out
}

// binary reports whether the expression is a conjunction or disjunction.
func (o *OpExpr) binary() bool { return o.And[0] != nil || o.Or[0] != nil }

// matchesAny reports whether some operation keyword satisfies the
// expression (Ops is non-empty), without building the set.
func (o *OpExpr) matchesAny() bool {
	for _, op := range opVocabulary {
		if o.matches(op) {
			return true
		}
	}
	return false
}

func (o *OpExpr) matches(op string) bool {
	switch {
	case o.Op != "":
		return o.Op == op
	case o.Not != nil:
		return !o.Not.matches(op)
	case o.And[0] != nil:
		return o.And[0].matches(op) && o.And[1].matches(op)
	case o.Or[0] != nil:
		return o.Or[0].matches(op) || o.Or[1].matches(op)
	}
	return false
}

// WindowKind distinguishes the ⟨wind⟩ alternatives.
type WindowKind uint8

// Window kinds.
const (
	WindRange  WindowKind = iota // from ... to ...
	WindAt                       // at t
	WindBefore                   // before t
	WindAfter                    // after t
	WindLast                     // last n unit
)

// Window is a time window filter.
type Window struct {
	Kind WindowKind
	From time.Time
	To   time.Time
	Dur  time.Duration // for WindLast
}

// RelationKind distinguishes the ⟨rel⟩ alternatives.
type RelationKind uint8

// Relation kinds.
const (
	RelBefore RelationKind = iota
	RelAfter
	RelWithin
	RelAttr
)

// Relation is one "with" constraint between patterns: a temporal order
// between two pattern IDs, or an attribute equation between entities.
type Relation struct {
	Kind RelationKind
	A, B string // pattern IDs for temporal kinds
	// Optional duration bounds for before/after/within ("[0-5 min]").
	LoDur, HiDur time.Duration
	HasDur       bool
	// Attr is the attribute relation expression for RelAttr.
	Attr relational.Expr
}

// Return is the projection clause.
type Return struct {
	Distinct bool
	Items    []Attr
}

// Attr is an attribute reference "entityID.attr"; Attr == "" means the
// default attribute of the entity (syntactic sugar).
type Attr struct {
	EntityID string
	Attr     string
}
