package tbql

import (
	"fmt"
	"strconv"
	"strings"
	"unique"

	"threatraptor/internal/audit"
	"threatraptor/internal/relational"
)

// EntityDecl is one logical entity after entity-ID-reuse resolution: the
// same ID used in multiple patterns denotes the same entity, and its
// filters are conjoined.
type EntityDecl struct {
	ID     string
	Type   EntityType
	Filter relational.Expr // nil when unconstrained
	// slotted is Filter with each value literal replaced by its value
	// slot (see Analyzed.Lits).
	slotted relational.Expr
}

// Analyzed is a validated query with all syntactic sugars resolved.
type Analyzed struct {
	Query       *Query
	Entities    map[string]*EntityDecl
	EntityOrder []string       // first-use order
	PatternID   map[string]int // pattern ID -> index into Query.Patterns
	// Return items with default attributes filled in.
	ReturnItems []Attr
	// Lits is the query's literal vector: every value literal of its
	// entity filters (in EntityOrder) and then of its patterns' event
	// filters (in pattern order), each filter's in its tree's pre-order
	// (see slotLits). Lower compiles literal i as the value slot
	// relational.ValParam{Slot: i}, so the one compiled plan of a Shape
	// runs every query of that shape bound with the query's own Lits.
	Lits []relational.Value
	// Shape is the query with its value literals erased (see shapeKey),
	// interned: two queries with equal Shapes differ only in Lits, and
	// comparing or hashing a Shape costs a pointer's worth.
	Shape unique.Handle[string]
	// eventSlotted holds each pattern's event filter with its value
	// literals slotted, by pattern index.
	eventSlotted []relational.Expr
}

// Kind converts a TBQL entity type to the audit entity kind.
func (t EntityType) Kind() audit.EntityKind {
	switch t {
	case EntFile:
		return audit.EntityFile
	case EntProc:
		return audit.EntityProcess
	case EntIP:
		return audit.EntityNetConn
	}
	return audit.EntityInvalid
}

// eventAttrs are the attributes of system events addressable through a
// pattern ID (paper Table III).
var eventAttrs = map[string]string{
	"start_time": "start_time", "starttime": "start_time",
	"end_time": "end_time", "endtime": "end_time",
	"amount": "amount", "data_amount": "amount",
	"failure_code": "failure_code", "failurecode": "failure_code",
	"optype": "op", "op": "op",
}

// errSkipEntity marks a global filter as inapplicable to one entity.
var errSkipEntity = fmt.Errorf("tbql: filter does not apply to this entity")

// Analyze validates q and resolves its syntactic sugars: default
// attributes for bare values and bare return IDs, and entity ID reuse.
func Analyze(q *Query) (*Analyzed, error) {
	a := &Analyzed{
		Query:       q,
		Entities:    make(map[string]*EntityDecl, 2*len(q.Patterns)),
		EntityOrder: make([]string, 0, 2*len(q.Patterns)),
		PatternID:   make(map[string]int, len(q.Patterns)),
		ReturnItems: make([]Attr, 0, len(q.Return.Items)),
	}

	declare := func(e *Entity) error {
		kind := e.Type.Kind()
		filter, err := resolveEntityFilter(e, kind)
		if err != nil {
			return err
		}
		decl, exists := a.Entities[e.ID]
		if !exists {
			a.Entities[e.ID] = &EntityDecl{ID: e.ID, Type: e.Type, Filter: filter}
			a.EntityOrder = append(a.EntityOrder, e.ID)
			return nil
		}
		if decl.Type != e.Type {
			return fmt.Errorf("tbql: entity %s redeclared as %s (was %s)", e.ID, e.Type, decl.Type)
		}
		if filter != nil {
			if decl.Filter == nil {
				decl.Filter = filter
			} else {
				decl.Filter = relational.BinOp{Op: "and", L: decl.Filter, R: filter}
			}
		}
		return nil
	}

	for i, patt := range q.Patterns {
		if patt.Subject.Type != EntProc {
			return nil, fmt.Errorf("tbql: pattern %d: subject entity must be proc (events are initiated by processes)", i+1)
		}
		if err := declare(&patt.Subject); err != nil {
			return nil, err
		}
		if err := declare(&patt.Object); err != nil {
			return nil, err
		}
		if patt.ID == "" {
			patt.ID = "_evt" + strconv.Itoa(i+1)
		}
		if _, dup := a.PatternID[patt.ID]; dup {
			return nil, fmt.Errorf("tbql: duplicate pattern ID %q", patt.ID)
		}
		a.PatternID[patt.ID] = i
		if patt.IDFilter != nil {
			if err := validateEventFilter(patt.IDFilter, patt.ID); err != nil {
				return nil, err
			}
		}
		if patt.Op != nil && !patt.Op.matchesAny() {
			return nil, fmt.Errorf("tbql: pattern %s: operation expression matches no operation", patt.ID)
		}
	}

	// Global attribute filters apply to every declared entity that carries
	// the referenced attribute (e.g. `user = "root"` constrains files and
	// processes alike); qualified filters apply to the named entity only.
	for _, gf := range q.GlobalFilters {
		applied := false
		for _, id := range a.EntityOrder {
			decl := a.Entities[id]
			kind := decl.Type.Kind()
			resolved, err := rewriteExpr(gf, func(c relational.ColRef) (relational.ColRef, error) {
				if c.Qualifier != "" && c.Qualifier != id {
					return c, errSkipEntity
				}
				col := c.Column
				if col == "" {
					col = audit.DefaultAttr(kind)
				}
				if !audit.HasAttr(kind, col) {
					return c, errSkipEntity
				}
				return relational.ColRef{Column: col}, nil
			})
			if err != nil {
				continue // filter does not apply to this entity kind
			}
			applied = true
			if decl.Filter == nil {
				decl.Filter = resolved
			} else {
				decl.Filter = relational.BinOp{Op: "and", L: decl.Filter, R: resolved}
			}
		}
		if !applied {
			return nil, fmt.Errorf("tbql: global filter applies to no declared entity")
		}
	}

	for _, rel := range q.Relations {
		if rel.Kind == RelAttr {
			if err := validateAttrRelation(a, rel.Attr); err != nil {
				return nil, err
			}
			continue
		}
		for _, id := range []string{rel.A, rel.B} {
			pi, ok := a.PatternID[id]
			if !ok {
				return nil, fmt.Errorf("tbql: temporal relation references unknown pattern %q", id)
			}
			if q.Patterns[pi].Path != nil && q.Patterns[pi].Path.MaxLen != 1 {
				return nil, fmt.Errorf("tbql: temporal relation on variable-length path pattern %q", id)
			}
		}
	}

	for _, item := range q.Return.Items {
		decl, ok := a.Entities[item.EntityID]
		if !ok {
			return nil, fmt.Errorf("tbql: return references unknown entity %q", item.EntityID)
		}
		attr := item.Attr
		if attr == "" {
			attr = audit.DefaultAttr(decl.Type.Kind()) // sugar
		}
		if !audit.HasAttr(decl.Type.Kind(), attr) {
			return nil, fmt.Errorf("tbql: entity %s (%s) has no attribute %q", item.EntityID, decl.Type, attr)
		}
		a.ReturnItems = append(a.ReturnItems, Attr{EntityID: item.EntityID, Attr: attr})
	}
	if len(a.ReturnItems) == 0 {
		return nil, fmt.Errorf("tbql: empty return clause")
	}
	a.slotLits()
	a.Shape = unique.Make(a.shapeKey())
	return a, nil
}

// slotLits collects a's literal vector into a.Lits and slots its
// filters: each entity's into its slotted, in EntityOrder, then each
// pattern's event filter into a.eventSlotted, in pattern order. A value
// literal is numbered in its tree's pre-order; this walk is the only
// place that numbering is made, and Lower and shapeKey read its result.
func (a *Analyzed) slotLits() {
	var slot func(e relational.Expr) relational.Expr
	slot = func(e relational.Expr) relational.Expr {
		switch v := e.(type) {
		case relational.Lit:
			if v.V.K == relational.KindNull {
				return v
			}
			a.Lits = append(a.Lits, v.V)
			return relational.ValParam{Slot: len(a.Lits) - 1, Kind: v.V.K}
		case relational.BinOp:
			l := slot(v.L)
			return relational.BinOp{Op: v.Op, L: l, R: slot(v.R)}
		case relational.UnOp:
			return relational.UnOp{Op: v.Op, E: slot(v.E)}
		case relational.InList:
			x := slot(v.E)
			vals := make([]relational.Expr, len(v.Vals))
			for i, ve := range v.Vals {
				vals[i] = slot(ve)
			}
			return relational.InList{E: x, Vals: vals, Negate: v.Negate}
		}
		return e
	}
	for _, id := range a.EntityOrder {
		if d := a.Entities[id]; d.Filter != nil {
			d.slotted = slot(d.Filter)
		}
	}
	a.eventSlotted = make([]relational.Expr, len(a.Query.Patterns))
	for i, p := range a.Query.Patterns {
		if p.IDFilter != nil {
			a.eventSlotted[i] = slot(p.IDFilter)
		}
	}
}

// shapeKey returns the key of everything that shapes a's compiled plan,
// read from its slotted filters: the return clause, the entities in
// first-use order with their kinds and filters, per pattern its
// entities, ID, operation expression, path bounds, resolved window and
// event filter, and the relations (an attribute relation with its
// literals, which the join evaluates). A value slot is written with its
// literal's kind, and an IN list with its length.
func (a *Analyzed) shapeKey() string {
	var k keyWriter
	k.Grow(1024)
	q := a.Query
	if q.Return.Distinct {
		k.WriteString("distinct ")
	}
	for _, it := range a.ReturnItems {
		k.strs(it.EntityID, ".", it.Attr, ",")
	}
	for _, id := range a.EntityOrder {
		k.strs("\n", id, " ", string(a.Entities[id].Type), " ")
		k.expr(a.Entities[id].slotted)
	}
	for i, p := range q.Patterns {
		k.strs("\n", p.Subject.ID, " ", p.Object.ID, " ", p.ID, " ")
		k.op(p.Op)
		if p.Path != nil {
			k.ints('p', int64(p.Path.MinLen), int64(p.Path.MaxLen))
		}
		if w := lowerWindow(patternWindow(q, p)); w != nil {
			k.ints('w', int64(w.Kind), w.FromUS, w.ToUS, w.DurUS)
		}
		k.expr(a.eventSlotted[i])
	}
	for _, rel := range q.Relations {
		k.strs("\nwith ", rel.A, " ", rel.B)
		hasDur := int64(0)
		if rel.HasDur {
			hasDur = 1
		}
		k.ints('r', int64(rel.Kind), hasDur, int64(rel.LoDur), int64(rel.HiDur))
		k.expr(rel.Attr)
	}
	return k.String()
}

// keyWriter writes a shape key.
type keyWriter struct {
	strings.Builder
	buf [20]byte
}

// strs writes each string.
func (k *keyWriter) strs(ss ...string) {
	for _, s := range ss {
		k.WriteString(s)
	}
}

// ints writes tag and each integer.
func (k *keyWriter) ints(tag byte, vs ...int64) {
	k.WriteByte(tag)
	for _, v := range vs {
		k.Write(strconv.AppendInt(k.buf[:0], v, 10))
		k.WriteByte(',')
	}
}

// expr writes e in prefix form, a value slot as its number and kind.
func (k *keyWriter) expr(e relational.Expr) {
	switch v := e.(type) {
	case nil:
	case relational.ColRef:
		k.strs(v.Qualifier, ".", v.Column)
	case relational.ValParam:
		k.ints('?', int64(v.Slot), int64(v.Kind))
	case relational.BinOp:
		k.strs("(", v.Op, " ")
		k.expr(v.L)
		k.WriteByte(' ')
		k.expr(v.R)
		k.WriteByte(')')
	case relational.UnOp:
		k.strs("(", v.Op, " ")
		k.expr(v.E)
		k.WriteByte(')')
	case relational.InList:
		if v.Negate {
			k.WriteString("(notin ")
		} else {
			k.WriteString("(in ")
		}
		k.expr(v.E)
		for _, x := range v.Vals {
			k.WriteByte(' ')
			k.expr(x)
		}
		k.WriteByte(')')
	default:
		k.WriteString(relational.ExprString(e))
	}
}

// op writes an operation expression's tree ("-" for none).
func (k *keyWriter) op(o *OpExpr) {
	switch {
	case o == nil:
		k.WriteByte('-')
	case o.Op != "":
		k.WriteString(o.Op)
	case o.Not != nil:
		k.WriteByte('!')
		k.op(o.Not)
	default:
		pair, sep := o.And, byte('&')
		if o.Or[0] != nil {
			pair, sep = o.Or, '|'
		}
		k.WriteByte('(')
		k.op(pair[0])
		k.WriteByte(sep)
		k.op(pair[1])
		k.WriteByte(')')
	}
	k.WriteByte(' ')
}

// resolveEntityFilter fills default attribute names into bare-value
// comparisons and validates attribute names against the entity kind.
func resolveEntityFilter(e *Entity, kind audit.EntityKind) (relational.Expr, error) {
	if e.Filter == nil {
		return nil, nil
	}
	return rewriteExpr(e.Filter, func(c relational.ColRef) (relational.ColRef, error) {
		if c.Qualifier != "" && c.Qualifier != e.ID {
			return c, fmt.Errorf("tbql: filter on entity %s references %s", e.ID, c.Qualifier)
		}
		col := c.Column
		if col == "" {
			col = audit.DefaultAttr(kind)
		}
		if !audit.HasAttr(kind, col) {
			return c, fmt.Errorf("tbql: entity %s (%s) has no attribute %q", e.ID, e.Type, col)
		}
		return relational.ColRef{Column: col}, nil
	})
}

func validateEventFilter(e relational.Expr, pattID string) error {
	_, err := rewriteExpr(e, func(c relational.ColRef) (relational.ColRef, error) {
		if c.Qualifier != "" && c.Qualifier != pattID {
			return c, fmt.Errorf("tbql: event filter on %s references %s", pattID, c.Qualifier)
		}
		canon, ok := eventAttrs[c.Column]
		if !ok {
			return c, fmt.Errorf("tbql: unknown event attribute %q", c.Column)
		}
		return relational.ColRef{Column: canon}, nil
	})
	return err
}

func validateAttrRelation(a *Analyzed, e relational.Expr) error {
	_, err := rewriteExpr(e, func(c relational.ColRef) (relational.ColRef, error) {
		if c.Qualifier == "" {
			return c, fmt.Errorf("tbql: attribute relation requires qualified attributes")
		}
		decl, ok := a.Entities[c.Qualifier]
		if !ok {
			return c, fmt.Errorf("tbql: attribute relation references unknown entity %q", c.Qualifier)
		}
		if !audit.HasAttr(decl.Type.Kind(), c.Column) {
			return c, fmt.Errorf("tbql: entity %s has no attribute %q", c.Qualifier, c.Column)
		}
		return c, nil
	})
	return err
}

// rewriteExpr maps every column reference through fn, rebuilding the tree.
func rewriteExpr(e relational.Expr, fn func(relational.ColRef) (relational.ColRef, error)) (relational.Expr, error) {
	switch v := e.(type) {
	case relational.ColRef:
		return fn(v)
	case relational.Lit:
		return v, nil
	case relational.BinOp:
		l, err := rewriteExpr(v.L, fn)
		if err != nil {
			return nil, err
		}
		r, err := rewriteExpr(v.R, fn)
		if err != nil {
			return nil, err
		}
		return relational.BinOp{Op: v.Op, L: l, R: r}, nil
	case relational.UnOp:
		x, err := rewriteExpr(v.E, fn)
		if err != nil {
			return nil, err
		}
		return relational.UnOp{Op: v.Op, E: x}, nil
	case relational.InList:
		x, err := rewriteExpr(v.E, fn)
		if err != nil {
			return nil, err
		}
		vals := make([]relational.Expr, len(v.Vals))
		for i, ve := range v.Vals {
			w, err := rewriteExpr(ve, fn)
			if err != nil {
				return nil, err
			}
			vals[i] = w
		}
		return relational.InList{E: x, Vals: vals, Negate: v.Negate}, nil
	}
	return nil, fmt.Errorf("tbql: cannot rewrite %T", e)
}
