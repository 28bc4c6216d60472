package relational

// SQL abstract syntax tree for the supported SELECT subset.

// SelectStmt is a parsed SELECT query.
type SelectStmt struct {
	Distinct bool
	Select   []SelectItem // empty means '*'
	From     []TableRef
	Where    Expr // nil when absent
}

// SelectItem is one projected expression with an optional alias.
type SelectItem struct {
	Expr Expr
	As   string
}

// TableRef is a table in the FROM list with its binding alias.
type TableRef struct {
	Table string
	Alias string // defaults to Table
}

// Expr is a SQL expression node.
type Expr interface{ isExpr() }

// ColRef is a column reference, optionally qualified by a table alias.
type ColRef struct {
	Qualifier string // "" when unqualified
	Column    string
}

// Lit is a literal value.
type Lit struct{ V Value }

// BinOp is a binary operation. Op is one of:
// "=", "<>", "<", "<=", ">", ">=", "like", "and", "or".
type BinOp struct {
	Op   string
	L, R Expr
}

// UnOp is a unary operation; Op is "not".
type UnOp struct {
	Op string
	E  Expr
}

// InList is "expr [NOT] IN (v1, v2, ...)".
type InList struct {
	E      Expr
	Vals   []Expr
	Negate bool
}

// Param is a placeholder for an integer value bound at execution time
// through Params.Ints[Slot]. Parameters never appear in parsed SQL text;
// statement builders (the TBQL engine's logical-plan lowering) insert them
// so one compiled plan serves every execution, with the varying values
// bound per call instead of spliced into a fresh statement.
type Param struct {
	Slot int
	// Prune marks the parameter as an optional constraint: when the bound
	// value is zero, the top-level WHERE conjunct containing this parameter
	// is skipped entirely, as if the statement had been compiled without
	// it. This is how one compiled plan stands in for a family of plan
	// variants ("with floor" / "without floor") — the TBQL engine's
	// standing-query delta floor uses it. Prune applies only to conjuncts;
	// a pruned Param nested deeper in an expression still evaluates as the
	// literal zero.
	Prune bool
}

// ParamIDs is "expr IN <runtime ID list>": membership of an integer
// expression in the sorted unique []int64 bound at Params.Lists[Slot].
// An empty or unbound list matches nothing, like an empty IN list —
// unless Optional is set, in which case an unbound list constrains
// nothing: the conjunct is skipped at execution and an index access
// planned from it falls back to the access the level would otherwise use.
// Optional is how the TBQL engine collapses its per-binding-set plan
// variants into one compiled plan.
type ParamIDs struct {
	E        Expr
	Slot     int
	Optional bool
}

// ValParam is a placeholder for a literal value bound at execution time
// through Params.Vals[Slot]: one compiled plan serves every query that
// differs from it only in the values its predicates compare against (the
// TBQL engine binds a query's literal vector here). Kind is the kind
// every bound value must have; the planner picks kernels and access paths
// by it, and an execution binding a value of another kind fails.
type ValParam struct {
	Slot int
	Kind Kind
}

func (ColRef) isExpr()   {}
func (Lit) isExpr()      {}
func (BinOp) isExpr()    {}
func (UnOp) isExpr()     {}
func (InList) isExpr()   {}
func (Param) isExpr()    {}
func (ParamIDs) isExpr() {}
func (ValParam) isExpr() {}

// MaxParamSlots is the number of parameter slots a statement may use.
const MaxParamSlots = 4

// Params carries one execution's bound parameter values. Lists must be
// sorted unique (the membership and index-probe paths rely on it). The
// zero value binds every integer slot to 0, every list slot to the empty
// list, and no value slot.
type Params struct {
	Ints  [MaxParamSlots]int64
	Lists [MaxParamSlots][]int64
	// Vals binds the statement's value slots: ValParam{Slot: i} reads
	// Vals[i]. Unlike the fixed integer and list slots there may be any
	// number of them.
	Vals []Value
	// Snap, when non-nil, pins the execution to a published table
	// snapshot: every table read resolves through Snap.Table, so the
	// execution sees exactly the rows that existed when the snapshot was
	// captured even while the single writer appends to the live tables.
	// Nil executes against the live tables (the only-writer or
	// externally-locked paths).
	Snap *Snap
}
