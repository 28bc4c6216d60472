package relational

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
)

// This file is the query planner: a parsed SELECT is compiled once into a
// plan of closures that read the columnar storage directly. Column
// references resolve to (level, column-position) at plan time, and each
// WHERE conjunct takes one of two paths: a batch kernel (batch.go) when
// its shape is typed — a column against a same-kind literal, parameter or
// outer column, LIKE, IN, and AND/OR/NOT over such shapes — or, for every
// other shape, EvalExpr over the resolved columns, one row at a time.
// Projection gathers columns (a composite item evaluates through
// EvalExpr too). Execution runs the closures with zero per-row name
// resolution and zero per-row allocation outside result rows. A
// constant a predicate compares against is an operand: a literal, or a
// value slot (ValParam) read from the execution's Params.Vals, so one
// plan serves every literal vector of a statement; what a constant
// derives (a compiled LIKE pattern, an IN list's sorted keys) is resolved
// once per execution (plan.bindVals).

// plan is a fully compiled SELECT, safe for concurrent reuse: all mutable
// execution state lives in execState (pooled across executions).
type plan struct {
	stmt       *SelectStmt
	tables     []*Table
	levelPreds [][]levelPred
	access     []*indexAccess
	// floors[lvl] holds the level's scan-floor conjuncts ("col >= bound"
	// over an int column); the full-scan path starts at the binary-searched
	// first in-range row when the column is ascending-sorted.
	floors [][]scanFloor
	// hashJoins[lvl], set only on full-scanned levels with a usable join
	// equality, is the level's adaptive hash-join candidate (see
	// hashjoin.go).
	hashJoins []*hashJoin
	cols      []string
	project   projFn
	// intProj locates a projection of at most five integer columns (nil
	// for any other projection): QueryInts reads them straight from the
	// int storage.
	intProj []colPos
	// scratch is the number of scratch selections the plan's AND/OR/NOT
	// kernels use (see execState.scratch).
	scratch int
	// valKinds[i] is the kind value slot i must be bound to (KindNull:
	// the statement does not read slot i). likes and ins are the LIKE
	// patterns and IN lists the kernels and key-set accesses read, each
	// resolved per execution into execState.likes / execState.ins.
	valKinds []Kind
	likes    []*likeOp
	ins      []*inList

	statePool sync.Pool
}

// operand is a constant a compiled predicate or access path reads at
// execution: a literal fixed at plan time (slot < 0), or the value bound
// to a ValParam's slot.
type operand struct {
	slot int
	lit  Value
}

func (o operand) get(st *execState) Value {
	if o.slot < 0 {
		return o.lit
	}
	return st.params.Vals[o.slot]
}

// likeOp is a LIKE pattern operand; execState.likes[idx] holds it
// compiled for the current execution.
type likeOp struct {
	idx int
	pat operand
}

// inList is an IN list whose values are all operands of the tested
// column's kind; execState.ins[idx] holds them sorted and de-duplicated
// for the current execution.
type inList struct {
	idx  int
	kind Kind
	ops  []operand
}

// levelPred is one compiled WHERE conjunct attached to a nested-loop
// level: either a batch kernel (vec) or, for shapes no kernel covers, an
// EvalExpr closure applied row at a time (row). Exactly one is set.
type levelPred struct {
	vec *vecPred
	row evalFn
	// active, when non-nil, gates the predicate per execution: an inactive
	// predicate is skipped entirely, as if the statement had been compiled
	// without the conjunct (Optional ParamIDs with no bound list, Prune
	// Param bound to zero).
	active func(st *execState) bool
}

// isActive reports whether the predicate applies to this execution.
func (lp *levelPred) isActive(st *execState) bool {
	return lp.active == nil || lp.active(st)
}

// pruneGate returns the activity gate of a conjunct built around an
// optional parameter, or nil for always-active conjuncts. The gate is the
// runtime stand-in for the compile-time plan variants it replaces: one
// compiled plan carries every optional constraint and each execution keeps
// exactly the bound ones.
func pruneGate(e Expr) func(st *execState) bool {
	gate := func(pm Param) func(st *execState) bool {
		if !pm.Prune {
			return nil
		}
		slot, err := checkSlot(pm.Slot)
		if err != nil {
			return nil
		}
		return func(st *execState) bool { return st.params.Ints[slot] != 0 }
	}
	switch v := e.(type) {
	case ParamIDs:
		if v.Optional {
			slot, err := checkSlot(v.Slot)
			if err == nil {
				return func(st *execState) bool { return len(st.params.Lists[slot]) > 0 }
			}
		}
	case BinOp:
		if pm, ok := v.R.(Param); ok {
			if g := gate(pm); g != nil {
				return g
			}
		}
		if pm, ok := v.L.(Param); ok {
			if g := gate(pm); g != nil {
				return g
			}
		}
	}
	return nil
}

// scanFloor is one "col >= bound" (or "col > bound") conjunct over an int
// column, usable to narrow the level's full scan: when the column's values
// are ascending at execution time (dense event IDs, in-order timestamps),
// rows before the binary-searched first in-range position cannot satisfy
// the conjunct and are skipped wholesale. This is what makes delta-floored
// standing-query scans cost O(delta), not O(store). Purely a scan
// narrowing — the conjunct still runs as a filter, so an unsorted column
// just loses the shortcut, never correctness.
type scanFloor struct {
	col  int
	slot int     // integer parameter slot holding the bound, or -1 when val is used
	val  operand // the bound when slot < 0: a literal or a value slot
	excl bool    // strict ">": the first in-range value is bound+1
}

// execState is the per-execution mutable state: the current row index of
// every nested-loop level, the per-level selection-vector buffers, the
// AND/OR/NOT kernels' scratch selections, and the work counters. States
// are pooled per plan so steady-state executions reuse the buffers.
type execState struct {
	rows  []int32
	sels  [][]int32
	scr   [][]int32
	stats ExecStats
	// tabs are the tables this execution reads, parallel to plan.tables:
	// the captured snapshot copies when params.Snap is set, the live
	// tables otherwise. Bound by bindTabs before the walk starts; every
	// compiled closure reads columns through tabs, never plan.tables.
	tabs []*Table
	// params are this execution's bound parameter values (zero when the
	// statement uses none); copied in by run, cleared on release. Held by
	// value so binding parameters never allocates.
	params Params
	// pendErr carries an EvalExpr predicate's error out of the
	// append-only filter path; descend re-raises it before visiting any
	// row.
	pendErr error
	// visits counts entries into each hash-join-candidate level this
	// execution; hjTabs holds the tables built once the thresholds trip.
	// Both are per-execution: the tables read snapshot-bound columns, so a
	// pooled state must never carry one into the next execution.
	visits []int32
	hjTabs []*hashJoinTable
	// keyed[lvl] is level lvl's key-set access resolved for this
	// execution (see plan.keyedProbe); lists and bits are its scratch:
	// the selected keys' position lists and the merge bitmap (all zero
	// between merges).
	keyed []keyedLevel
	lists [][]int32
	bits  []uint64
	// likes and ins are the plan's LIKE patterns and IN lists resolved
	// for this execution (see plan.bindVals); their buffers are kept
	// across pooled executions.
	likes []likeMatcher
	ins   []inSet
	// sink is the execution's row collector (see plan.newSink); its int
	// DISTINCT set is kept across pooled executions.
	sink rowSink
	// ctx/done drive cooperative cancellation: done caches ctx.Done() so
	// the checkpoint fast path is a nil compare when no context (or a
	// never-cancelled one) is bound. tick amortizes the poll on the probe
	// loops.
	ctx  context.Context
	done <-chan struct{}
	tick uint32
}

// bindCtx attaches a context's cancellation signal to this execution.
func (st *execState) bindCtx(ctx context.Context) {
	if ctx == nil {
		return
	}
	st.ctx = ctx
	st.done = ctx.Done()
}

// checkCancel is the amortized cancellation checkpoint for index-probe
// loops: with no cancellable context bound it is a nil compare; otherwise
// it polls the done channel every 64 iterations.
func (st *execState) checkCancel() error {
	if st.done == nil {
		return nil
	}
	if st.tick++; st.tick&63 != 1 {
		return nil
	}
	select {
	case <-st.done:
		return st.ctx.Err()
	default:
		return nil
	}
}

// selbuf returns level lvl's selection buffer, empty, with capacity for at
// least n rows.
func (st *execState) selbuf(lvl, n int) []int32 {
	if cap(st.sels[lvl]) < n {
		st.sels[lvl] = make([]int32, 0, n)
	}
	return st.sels[lvl][:0]
}

// scratch returns scratch selection slot, empty, with capacity for at
// least n rows. Each AND/OR/NOT kernel owns its slots (reserved at plan
// time by newScratch), so nested kernels never share one.
func (st *execState) scratch(slot, n int) []int32 {
	if cap(st.scr[slot]) < n {
		st.scr[slot] = make([]int32, 0, n)
	}
	return st.scr[slot][:0]
}

func (p *plan) state() *execState {
	if st, ok := p.statePool.Get().(*execState); ok {
		st.stats = ExecStats{}
		st.pendErr = nil
		return st
	}
	return &execState{
		rows:   make([]int32, len(p.tables)),
		sels:   make([][]int32, len(p.tables)),
		scr:    make([][]int32, p.scratch),
		tabs:   make([]*Table, len(p.tables)),
		visits: make([]int32, len(p.tables)),
		hjTabs: make([]*hashJoinTable, len(p.tables)),
		keyed:  make([]keyedLevel, len(p.tables)),
		likes:  make([]likeMatcher, len(p.likes)),
		ins:    make([]inSet, len(p.ins)),
	}
}

// bindVals checks the execution's value slots against the kinds the plan
// was compiled for and resolves the constants derived from them: each
// LIKE pattern compiled, each IN list's keys sorted and de-duplicated.
func (p *plan) bindVals(st *execState) error {
	vals := st.params.Vals
	for slot, k := range p.valKinds {
		if k == KindNull {
			continue
		}
		if slot >= len(vals) {
			return fmt.Errorf("relational: value slot %d is not bound", slot)
		}
		if vals[slot].K != k {
			return fmt.Errorf("relational: value slot %d is bound to %v, the plan reads %v", slot, vals[slot].K, k)
		}
	}
	for i, l := range p.likes {
		st.likes[i] = compileLike(l.pat.get(st).S)
	}
	for i, in := range p.ins {
		st.ins[i].bind(st, in)
	}
	return nil
}

// bindTabs resolves the tables this execution reads: the snapshot copies
// when the parameters pin a snapshot, the live tables otherwise.
func (p *plan) bindTabs(st *execState) {
	if snap := st.params.Snap; snap != nil {
		for i, t := range p.tables {
			st.tabs[i] = snap.Table(t)
		}
		return
	}
	copy(st.tabs, p.tables)
}

func (p *plan) release(st *execState) {
	st.params = Params{}
	for i := range st.tabs {
		st.tabs[i] = nil // do not pin a snapshot past the execution
		st.visits[i] = 0
		st.hjTabs[i] = nil // built over this execution's bound tables
		st.keyed[i].mode = keyedUnresolved
		st.keyed[i].pos = nil // may be an index list of the bound tables
	}
	st.ctx = nil
	st.done = nil
	st.tick = 0
	clear(st.likes) // do not pin the bound patterns
	for i := range st.ins {
		clear(st.ins[i].strs)
	}
	seen := st.sink.seen
	if len(seen) > maxPooledSeen {
		seen = nil
	}
	clear(seen)
	st.sink = rowSink{seen: seen} // do not pin the rows or the caller's sink
	p.statePool.Put(st)
}

// maxPooledSeen caps the int DISTINCT set a pooled state keeps.
const maxPooledSeen = 1 << 16

type evalFn func(st *execState) (Value, error)

// projFn fills dst (of projection width) with the output row for the
// current bindings. Callers hand out slab-backed slices so a batch of
// result rows costs one allocation, not one per row.
type projFn func(st *execState, dst []Value) error

// indexAccess describes a hash-index probe for one nested-loop level.
// Exactly one of keyFn (single probe, evaluated against earlier levels),
// a key set (in: the keys of an IN list of constants, or like: the index
// keys a LIKE pattern matches — only the pattern itself when it has no
// wildcard), or listSlot >= 0 (multi-probe from the parameter list bound
// at execution) is set.
type indexAccess struct {
	col      int
	keyFn    evalFn
	in       *inList
	like     *likeOp
	listSlot int // -1 when not a parameter-list probe
	// optional marks a parameter-list probe planned from an Optional
	// ParamIDs conjunct: an execution with no bound list uses fallback
	// (the access the level would otherwise have, nil = full scan)
	// instead of probing an empty key set.
	optional bool
	fallback *indexAccess
}

// keyed reports whether the access probes a key set fixed for the whole
// execution (an IN list of constants or a LIKE pattern): the executor
// resolves it once per execution and level, in ascending row order (see
// plan.keyedProbe).
func (ia *indexAccess) keyed() bool { return ia.in != nil || ia.like != nil }

// binding resolves aliases and columns for one statement.
type binding struct {
	aliases []string
	tables  []*Table
	byAlias map[string]int
	// scratch counts the scratch selections reserved so far by the
	// compiled AND/OR/NOT kernels.
	scratch int
	// valKinds, likes and ins collect the plan's value slots, LIKE
	// patterns and IN lists (see plan).
	valKinds []Kind
	likes    []*likeOp
	ins      []*inList
}

// declareVals records the kind of every value slot e reads, rejecting a
// negative slot, a slot without a kind, and one slot read as two kinds.
func (b *binding) declareVals(e Expr) error {
	switch v := e.(type) {
	case ValParam:
		if v.Slot < 0 || v.Kind == KindNull {
			return fmt.Errorf("relational: bad value slot %d of kind %v", v.Slot, v.Kind)
		}
		for len(b.valKinds) <= v.Slot {
			b.valKinds = append(b.valKinds, KindNull)
		}
		if k := b.valKinds[v.Slot]; k != KindNull && k != v.Kind {
			return fmt.Errorf("relational: value slot %d read as %v and %v", v.Slot, k, v.Kind)
		}
		b.valKinds[v.Slot] = v.Kind
	case BinOp:
		if err := b.declareVals(v.L); err != nil {
			return err
		}
		return b.declareVals(v.R)
	case UnOp:
		return b.declareVals(v.E)
	case InList:
		for _, x := range v.Vals {
			if err := b.declareVals(x); err != nil {
				return err
			}
		}
		return b.declareVals(v.E)
	case ParamIDs:
		return b.declareVals(v.E)
	}
	return nil
}

// operand resolves a literal or a value slot to an operand and its kind
// (a slot's declared one); ok is false for any other expression.
func (b *binding) operand(e Expr) (o operand, kind Kind, ok bool) {
	switch v := e.(type) {
	case Lit:
		return operand{slot: -1, lit: v.V}, v.V.K, true
	case ValParam:
		return operand{slot: v.Slot}, v.Kind, true
	}
	return operand{}, KindNull, false
}

// newLike registers a LIKE pattern operand for per-execution compiling.
func (b *binding) newLike(pat operand) *likeOp {
	l := &likeOp{idx: len(b.likes), pat: pat}
	b.likes = append(b.likes, l)
	return l
}

// newIn registers an IN list for per-execution resolution when every
// value is an operand of kind, the tested column's (nil otherwise: a
// kernel or probe matches strictly, while IN's equality lets "42" match
// 42).
func (b *binding) newIn(vals []Expr, kind Kind) *inList {
	if kind != KindInt && kind != KindString {
		return nil
	}
	ops := make([]operand, len(vals))
	for i, ve := range vals {
		o, k, ok := b.operand(ve)
		if !ok || k != kind {
			return nil
		}
		ops[i] = o
	}
	in := &inList{idx: len(b.ins), kind: kind, ops: ops}
	b.ins = append(b.ins, in)
	return in
}

func newBinding(db *DB, stmt *SelectStmt) (*binding, error) {
	b := &binding{byAlias: make(map[string]int)}
	add := func(ref TableRef) error {
		tbl := db.Table(ref.Table)
		if tbl == nil {
			return fmt.Errorf("sql: unknown table %q", ref.Table)
		}
		alias := strings.ToLower(ref.Alias)
		if _, dup := b.byAlias[alias]; dup {
			return fmt.Errorf("sql: duplicate table alias %q", ref.Alias)
		}
		b.byAlias[alias] = len(b.tables)
		b.aliases = append(b.aliases, alias)
		b.tables = append(b.tables, tbl)
		return nil
	}
	for _, ref := range stmt.From {
		if err := add(ref); err != nil {
			return nil, err
		}
	}
	if len(b.tables) == 0 {
		return nil, fmt.Errorf("sql: empty FROM clause")
	}
	return b, nil
}

// resolve maps a column reference to (table level, column position).
func (b *binding) resolve(c ColRef) (int, int, error) {
	if c.Qualifier != "" {
		lvl, ok := b.byAlias[strings.ToLower(c.Qualifier)]
		if !ok {
			return 0, 0, fmt.Errorf("sql: unknown alias %q", c.Qualifier)
		}
		col := b.tables[lvl].Schema.IndexOf(strings.ToLower(c.Column))
		if col < 0 {
			return 0, 0, fmt.Errorf("sql: table %s has no column %q", b.tables[lvl].Name, c.Column)
		}
		return lvl, col, nil
	}
	found := -1
	var foundCol int
	for lvl, tbl := range b.tables {
		if col := tbl.Schema.IndexOf(strings.ToLower(c.Column)); col >= 0 {
			if found >= 0 {
				return 0, 0, fmt.Errorf("sql: ambiguous column %q", c.Column)
			}
			found, foundCol = lvl, col
		}
	}
	if found < 0 {
		return 0, 0, fmt.Errorf("sql: unknown column %q", c.Column)
	}
	return found, foundCol, nil
}

// deepestLevel returns the highest table level referenced by e (0 for
// constant expressions).
func (b *binding) deepestLevel(e Expr) (int, error) {
	max := 0
	var visit func(Expr) error
	visit = func(e Expr) error {
		switch v := e.(type) {
		case ColRef:
			lvl, _, err := b.resolve(v)
			if err != nil {
				return err
			}
			if lvl > max {
				max = lvl
			}
		case BinOp:
			if err := visit(v.L); err != nil {
				return err
			}
			return visit(v.R)
		case UnOp:
			return visit(v.E)
		case InList:
			if err := visit(v.E); err != nil {
				return err
			}
			for _, x := range v.Vals {
				if err := visit(x); err != nil {
					return err
				}
			}
		case ParamIDs:
			return visit(v.E)
		}
		return nil
	}
	if err := visit(e); err != nil {
		return 0, err
	}
	return max, nil
}

// plan compiles a parsed SELECT against the database's current tables.
func (db *DB) plan(stmt *SelectStmt) (*plan, error) {
	b, err := newBinding(db, stmt)
	if err != nil {
		return nil, err
	}
	if stmt.Where != nil {
		if err := b.declareVals(stmt.Where); err != nil {
			return nil, err
		}
	}
	for _, item := range stmt.Select {
		if err := b.declareVals(item.Expr); err != nil {
			return nil, err
		}
	}

	var conjuncts []Expr
	if stmt.Where != nil {
		conjuncts = flattenAnd(stmt.Where, conjuncts)
	}

	// Attach each conjunct to the deepest table it references so it is
	// evaluated as early as possible (predicate pushdown).
	levelExprs := make([][]Expr, len(b.tables))
	for _, c := range conjuncts {
		lvl, err := b.deepestLevel(c)
		if err != nil {
			return nil, err
		}
		levelExprs[lvl] = append(levelExprs[lvl], c)
	}

	p := &plan{
		stmt:       stmt,
		tables:     b.tables,
		levelPreds: make([][]levelPred, len(b.tables)),
		access:     make([]*indexAccess, len(b.tables)),
		floors:     make([][]scanFloor, len(b.tables)),
		hashJoins:  make([]*hashJoin, len(b.tables)),
	}
	for lvl := range b.tables {
		ia, err := b.planIndexAccess(lvl, levelExprs[lvl])
		if err != nil {
			return nil, err
		}
		p.access[lvl] = ia
		if ia == nil || ia.keyed() {
			// No index serves this level, or a key set too large to probe
			// leaves it on its scan: a join equality can still escape the
			// per-binding full scan through the adaptive hash join.
			p.hashJoins[lvl] = b.planHashJoin(lvl, levelExprs[lvl])
		}
		for _, e := range levelExprs[lvl] {
			if f, ok := b.planScanFloor(lvl, e); ok {
				p.floors[lvl] = append(p.floors[lvl], f)
			}
			act := pruneGate(e)
			if vp := b.compileVecPred(lvl, e); vp != nil {
				p.levelPreds[lvl] = append(p.levelPreds[lvl], levelPred{vec: vp, active: act})
				continue
			}
			ev, err := b.compileEval(e)
			if err != nil {
				return nil, err
			}
			p.levelPreds[lvl] = append(p.levelPreds[lvl], levelPred{row: ev, active: act})
		}
	}
	p.cols, p.project, err = b.compileProjection(stmt)
	if err != nil {
		return nil, err
	}
	p.intProj = b.intProjection(stmt)
	p.scratch, p.valKinds, p.likes, p.ins = b.scratch, b.valKinds, b.likes, b.ins
	return p, nil
}

// intProjection resolves a projection of at most five integer columns to
// their positions; nil for any other projection.
func (b *binding) intProjection(stmt *SelectStmt) []colPos {
	if len(stmt.Select) == 0 || len(stmt.Select) > len([5]int64{}) {
		return nil
	}
	out := make([]colPos, len(stmt.Select))
	for i, item := range stmt.Select {
		c, ok := item.Expr.(ColRef)
		if !ok {
			return nil
		}
		lvl, col, err := b.resolve(c)
		if err != nil || b.tables[lvl].Schema[col].Kind != KindInt {
			return nil
		}
		out[i] = colPos{lvl, col}
	}
	return out
}

// planInListAccess turns "tbl.col IN (constants...)" into a key-set
// probe over the distinct values (a repeated one would feed its rows
// twice; bindVals de-duplicates them per execution). Every value must
// have the column's kind (see newIn).
func (b *binding) planInListAccess(lvl int, in InList) *indexAccess {
	c, ok := in.E.(ColRef)
	if !ok {
		return nil
	}
	clvl, ccol, err := b.resolve(c)
	if err != nil || clvl != lvl {
		return nil
	}
	if b.tables[lvl].indexes[ccol].Load() == nil {
		return nil
	}
	list := b.newIn(in.Vals, b.tables[lvl].Schema[ccol].Kind)
	if list == nil {
		return nil
	}
	return &indexAccess{col: ccol, in: list, listSlot: -1}
}

// planLikeAccess turns "tbl.col LIKE pattern" over an indexed string
// column, the pattern a string literal or value slot, into a key-set
// probe: each execution tests the pattern once per distinct index key
// and probes the keys it matches. A pattern with no wildcard matches
// only itself, so it probes that one key.
func (b *binding) planLikeAccess(lvl int, bin BinOp) *indexAccess {
	c, ok := bin.L.(ColRef)
	if !ok {
		return nil
	}
	pat, kind, ok := b.operand(bin.R)
	if !ok || kind != KindString {
		return nil
	}
	clvl, ccol, err := b.resolve(c)
	if err != nil || clvl != lvl || b.tables[lvl].Schema[ccol].Kind != KindString {
		return nil
	}
	if b.tables[lvl].indexes[ccol].Load() == nil {
		return nil
	}
	return &indexAccess{col: ccol, like: b.newLike(pat), listSlot: -1}
}

// planParamIDsAccess turns "tbl.col IN <param list>" into a multi-probe
// whose keys are read from the bound parameter list at execution time.
func (b *binding) planParamIDsAccess(lvl int, pi ParamIDs) *indexAccess {
	c, ok := pi.E.(ColRef)
	if !ok {
		return nil
	}
	clvl, ccol, err := b.resolve(c)
	if err != nil || clvl != lvl {
		return nil
	}
	if b.tables[lvl].indexes[ccol].Load() == nil {
		return nil
	}
	slot, err := checkSlot(pi.Slot)
	if err != nil {
		return nil
	}
	return &indexAccess{col: ccol, listSlot: slot, optional: pi.Optional}
}

// planScanFloor recognizes "col >= bound" / "col > bound" conjuncts over
// an int column of this level whose bound is an integer literal, value
// slot or parameter — the shapes the full-scan path can turn into a
// binary-searched scan start when the column is ascending-sorted (see
// scanFloor).
func (b *binding) planScanFloor(lvl int, e Expr) (scanFloor, bool) {
	bin, ok := e.(BinOp)
	if !ok || (bin.Op != ">=" && bin.Op != ">") {
		return scanFloor{}, false
	}
	c, ok := bin.L.(ColRef)
	if !ok {
		return scanFloor{}, false
	}
	clvl, ccol, err := b.resolve(c)
	if err != nil || clvl != lvl || b.tables[lvl].Schema[ccol].Kind != KindInt {
		return scanFloor{}, false
	}
	f := scanFloor{col: ccol, slot: -1, excl: bin.Op == ">"}
	if r, ok := bin.R.(Param); ok {
		slot, err := checkSlot(r.Slot)
		if err != nil {
			return scanFloor{}, false
		}
		f.slot, f.val = slot, operand{slot: -1}
		return f, true
	}
	val, kind, ok := b.operand(bin.R)
	if !ok || kind != KindInt {
		return scanFloor{}, false
	}
	f.val = val
	return f, true
}

// scanStart resolves the scan start of a full-scanned level for this
// execution: the largest lower bound across the level's active floors, or
// 0 when the column order does not admit the shortcut.
func (p *plan) scanStart(st *execState, lvl int) int32 {
	var lo int32
	tbl := st.tabs[lvl]
	for _, f := range p.floors[lvl] {
		var k int64
		if f.slot >= 0 {
			k = st.params.Ints[f.slot]
		} else {
			k = f.val.get(st).I
		}
		if f.excl {
			if k == int64(^uint64(0)>>1) { // MaxInt64: "> max" admits nothing
				return int32(tbl.Len())
			}
			k++
		}
		if pos, ok := tbl.ascLowerBound(f.col, k); ok && pos > lo {
			lo = pos
		}
	}
	return lo
}

// planIndexAccess finds an equality conjunct "tbl.col = key" (or an
// all-constant "tbl.col IN (...)", or a runtime parameter list) usable as
// an index probe at the given level; failing those, the first
// "tbl.col LIKE pattern" over an indexed column (planLikeAccess). An
// Optional parameter-list access is returned with the level's next-best
// access attached as its runtime fallback, so one compiled plan serves
// bound and unbound executions.
func (b *binding) planIndexAccess(lvl int, preds []Expr) (*indexAccess, error) {
	var opt, like *indexAccess
	// pick resolves a usable access against the pending optional one:
	// optional parameter-list accesses are held back (returning nil)
	// while the scan continues for a guaranteed access to use as their
	// runtime fallback; the first guaranteed access wins, carrying the
	// pending optional in front of it when one exists. Guaranteed input
	// therefore always yields a non-nil result.
	pick := func(ia *indexAccess) *indexAccess {
		if ia.listSlot >= 0 && ia.optional {
			if opt == nil {
				opt = ia
			}
			return nil
		}
		if opt != nil {
			opt.fallback = ia
			return opt
		}
		return ia
	}
	tbl := b.tables[lvl]
	for _, p := range preds {
		if in, ok := p.(InList); ok && !in.Negate {
			if ia := b.planInListAccess(lvl, in); ia != nil {
				if got := pick(ia); got != nil {
					return got, nil
				}
			}
			continue
		}
		if pi, ok := p.(ParamIDs); ok {
			if ia := b.planParamIDsAccess(lvl, pi); ia != nil {
				if got := pick(ia); got != nil {
					return got, nil
				}
			}
			continue
		}
		bin, ok := p.(BinOp)
		if ok && bin.Op == "like" && like == nil {
			like = b.planLikeAccess(lvl, bin)
		}
		if !ok || bin.Op != "=" {
			continue
		}
		try := func(colSide, keySide Expr) *indexAccess {
			c, ok := colSide.(ColRef)
			if !ok {
				return nil
			}
			clvl, ccol, err := b.resolve(c)
			if err != nil || clvl != lvl {
				return nil
			}
			keyLvl, err := b.deepestLevel(keySide)
			if err != nil {
				return nil
			}
			_, _, isConst := b.operand(keySide)
			if _, isCol := keySide.(ColRef); !isCol && !isConst {
				return nil
			}
			if keyLvl >= lvl && !isConst {
				return nil
			}
			if tbl.indexes[ccol].Load() == nil || b.kindOf(keySide) != tbl.Schema[ccol].Kind {
				return nil // a probe matches strictly; "=" lets "42" match 42
			}
			keyFn, err := b.compileEval(keySide)
			if err != nil {
				return nil
			}
			return &indexAccess{col: ccol, keyFn: keyFn, listSlot: -1}
		}
		if ia := try(bin.L, bin.R); ia != nil {
			return pick(ia), nil // try() accesses are never optional
		}
		if ia := try(bin.R, bin.L); ia != nil {
			return pick(ia), nil
		}
	}
	if like != nil {
		return pick(like), nil
	}
	return opt, nil
}

// colPos is a column reference resolved at plan time.
type colPos struct{ lvl, col int }

// kindOf returns the kind of a literal, a value slot or a column
// reference (KindNull for anything else).
func (b *binding) kindOf(e Expr) Kind {
	switch v := e.(type) {
	case Lit:
		return v.V.K
	case ValParam:
		return v.Kind
	case ColRef:
		if lvl, col, err := b.resolve(v); err == nil {
			return b.tables[lvl].Schema[col].Kind
		}
	}
	return KindNull
}

// compileEval compiles an expression to a value closure. The leaves that
// projection and index keys read (literals, parameters, value slots,
// columns) read directly; every composite shape evaluates through EvalExpr's semantics
// over column references resolved once here, so an unknown column or
// parameter slot still fails at plan time.
func (b *binding) compileEval(e Expr) (evalFn, error) {
	switch v := e.(type) {
	case Lit:
		val := v.V
		return func(*execState) (Value, error) { return val, nil }, nil
	case Param:
		slot, err := checkSlot(v.Slot)
		if err != nil {
			return nil, err
		}
		return func(st *execState) (Value, error) {
			return Int(st.params.Ints[slot]), nil
		}, nil
	case ValParam:
		slot := v.Slot // bound and kind-checked by bindVals
		return func(st *execState) (Value, error) {
			return st.params.Vals[slot], nil
		}, nil
	case ColRef:
		lvl, col, err := b.resolve(v)
		if err != nil {
			return nil, err
		}
		return func(st *execState) (Value, error) {
			return st.tabs[lvl].cell(int(st.rows[lvl]), col), nil
		}, nil
	}
	refs := make(map[ColRef]colPos)
	if err := b.bindRefs(e, refs); err != nil {
		return nil, err
	}
	return func(st *execState) (Value, error) {
		return evalExpr(e, func(c ColRef) (Value, error) {
			at := refs[c]
			return st.tabs[at.lvl].cell(int(st.rows[at.lvl]), at.col), nil
		}, &st.params)
	}, nil
}

// bindRefs resolves every column reference in e into refs and rejects,
// at plan time, what evalExpr could only reject per row: out-of-range
// parameter slots, unknown operators and unevaluable nodes.
func (b *binding) bindRefs(e Expr, refs map[ColRef]colPos) error {
	switch v := e.(type) {
	case Lit, ValParam:
		return nil
	case ColRef:
		lvl, col, err := b.resolve(v)
		refs[v] = colPos{lvl, col}
		return err
	case Param:
		_, err := checkSlot(v.Slot)
		return err
	case ParamIDs:
		if _, err := checkSlot(v.Slot); err != nil {
			return err
		}
		return b.bindRefs(v.E, refs)
	case UnOp:
		return b.bindRefs(v.E, refs)
	case InList:
		for _, x := range v.Vals {
			if err := b.bindRefs(x, refs); err != nil {
				return err
			}
		}
		return b.bindRefs(v.E, refs)
	case BinOp:
		switch v.Op {
		case "and", "or", "=", "<>", "like", "+", "-", "<", "<=", ">", ">=":
		default:
			return fmt.Errorf("relational: unknown operator %q", v.Op)
		}
		if err := b.bindRefs(v.L, refs); err != nil {
			return err
		}
		return b.bindRefs(v.R, refs)
	}
	return fmt.Errorf("relational: cannot evaluate %T", e)
}

// inSet is an IN list's keys resolved for one execution: sorted and
// de-duplicated, typed by the tested column.
type inSet struct {
	ints []int64
	strs []string
}

func (s *inSet) bind(st *execState, in *inList) {
	s.ints, s.strs = s.ints[:0], s.strs[:0]
	for _, o := range in.ops {
		if v := o.get(st); in.kind == KindInt {
			s.ints = append(s.ints, v.I)
		} else {
			s.strs = append(s.strs, v.S)
		}
	}
	slices.Sort(s.ints)
	s.ints = slices.Compact(s.ints)
	slices.Sort(s.strs)
	s.strs = slices.Compact(s.strs)
}

// containsSorted reports membership in sorted unique keys: a linear scan
// over a short list, a binary search over a long one.
func containsSorted[T orderedCol](keys []T, x T) bool {
	if len(keys) <= 8 {
		for _, k := range keys {
			if k == x {
				return true
			}
		}
		return false
	}
	_, ok := slices.BinarySearch(keys, x)
	return ok
}

// Shapes of a compiled LIKE pattern (likeMatcher.shape).
const (
	likeGeneric uint8 = iota
	likeExact
	likeContains
	likePrefix
	likeSuffix
)

// likeMatcher is a LIKE pattern prepared for matching: the dominant
// shapes ('%sub%', 'pre%', '%suf', exact) lower to stdlib string
// primitives on the pattern's fixed part, every other pattern runs the
// generic matcher. A value, so compiling one per execution allocates
// nothing.
type likeMatcher struct {
	shape uint8
	part  string // the fixed part; the whole pattern for likeGeneric
}

// compileLike classifies a LIKE pattern.
func compileLike(p string) likeMatcher {
	if !strings.ContainsAny(p, "%_") {
		return likeMatcher{likeExact, p}
	}
	if len(p) >= 2 && p[0] == '%' && p[len(p)-1] == '%' {
		if mid := p[1 : len(p)-1]; !strings.ContainsAny(mid, "%_") {
			return likeMatcher{likeContains, mid}
		}
	}
	if p[len(p)-1] == '%' {
		if pre := p[:len(p)-1]; !strings.ContainsAny(pre, "%_") {
			return likeMatcher{likePrefix, pre}
		}
	}
	if p[0] == '%' {
		if suf := p[1:]; !strings.ContainsAny(suf, "%_") {
			return likeMatcher{likeSuffix, suf}
		}
	}
	return likeMatcher{likeGeneric, p}
}

func (m *likeMatcher) match(s string) bool {
	switch m.shape {
	case likeExact:
		return s == m.part
	case likeContains:
		return strings.Contains(s, m.part)
	case likePrefix:
		return strings.HasPrefix(s, m.part)
	case likeSuffix:
		return strings.HasSuffix(s, m.part)
	}
	return likeMatch(s, m.part)
}

// compileProjection builds the output column labels and a compiled row
// projector.
func (b *binding) compileProjection(stmt *SelectStmt) ([]string, projFn, error) {
	if len(stmt.Select) == 0 { // SELECT *
		var cols []string
		type src struct {
			lvl, col int
		}
		var srcs []src
		for lvl, tbl := range b.tables {
			for col, c := range tbl.Schema {
				label := c.Name
				if len(b.tables) > 1 {
					label = b.aliases[lvl] + "." + c.Name
				}
				cols = append(cols, label)
				srcs = append(srcs, src{lvl, col})
			}
		}
		return cols, func(st *execState, dst []Value) error {
			for i, s := range srcs {
				dst[i] = st.tabs[s.lvl].cell(int(st.rows[s.lvl]), s.col)
			}
			return nil
		}, nil
	}
	cols := make([]string, len(stmt.Select))
	fns := make([]evalFn, len(stmt.Select))
	for i, item := range stmt.Select {
		switch {
		case item.As != "":
			cols[i] = item.As
		default:
			if c, ok := item.Expr.(ColRef); ok {
				if c.Qualifier != "" {
					cols[i] = c.Qualifier + "." + c.Column
				} else {
					cols[i] = c.Column
				}
			} else {
				cols[i] = fmt.Sprintf("col%d", i+1)
			}
		}
		fn, err := b.compileEval(item.Expr)
		if err != nil {
			return nil, nil, err
		}
		fns[i] = fn
	}
	return cols, func(st *execState, dst []Value) error {
		for i, fn := range fns {
			v, err := fn(st)
			if err != nil {
				return err
			}
			dst[i] = v
		}
		return nil
	}, nil
}

func flattenAnd(e Expr, acc []Expr) []Expr {
	if bin, ok := e.(BinOp); ok && bin.Op == "and" {
		acc = flattenAnd(bin.L, acc)
		return flattenAnd(bin.R, acc)
	}
	return append(acc, e)
}
