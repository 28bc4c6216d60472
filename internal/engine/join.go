package engine

// This file is the scheduled loop's cross-pattern join: one walk over a
// join program compiled once per queryPlan. Entity variables map to
// integer slots, so a binding is a slot vector rather than a map; each
// level probes its pattern's rows through a sorted-run index on the slots
// bound above it; every relation is checked at the first level where its
// operands are bound; and a level that binds nothing leaves nothing to
// undo — the next row overwrites the slots it set. Under a distinct return
// each non-final level memoizes the walk below it on what that walk can
// observe, so an equal prefix is walked once, not once per binding.

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"threatraptor/internal/relational"
	"threatraptor/internal/tbql"
)

// joinProgram is the execution-independent part of a query's join.
type joinProgram struct {
	nslots   int   // entity slots, numbered in first-use order
	subj     []int // per pattern: the subject's slot
	obj      []int // per pattern: the object's slot
	temporal []temporalRel
	attrs    []attrRel
	ret      []retItem
	distinct bool
}

// temporalRel is a before/after/within relation between patterns a and b
// on their events' start times, durations in µs.
type temporalRel struct {
	a, b   int
	kind   tbql.RelationKind
	hasDur bool
	lo, hi int64
}

// holds reports whether events starting at startA (pattern a) and startB
// (pattern b) satisfy the relation.
func (tr *temporalRel) holds(startA, startB int64) bool {
	d := startB - startA
	switch tr.kind {
	case tbql.RelAfter:
		d = -d
	case tbql.RelWithin:
		return max(d, -d) <= tr.hi
	}
	return d > 0 && (!tr.hasDur || (d >= tr.lo && d <= tr.hi))
}

// ownDir returns +1 when the relation holds for a superset of the other
// pattern's starts as pattern a's start (isA) or b's falls, -1 when as it
// rises, and 0 when neither (within, or a duration).
func (tr *temporalRel) ownDir(isA bool) int8 {
	if tr.kind == tbql.RelWithin || tr.hasDur {
		return 0
	}
	if (tr.kind == tbql.RelBefore) == isA {
		return 1
	}
	return -1
}

// attrRel is an attribute relation over the entities named in names
// (slots[i] is names[i]'s slot).
type attrRel struct {
	expr  relational.Expr
	names []string
	slots []int
}

type retItem struct {
	slot int
	attr string
}

// newJoinProgram compiles a's join: slots, relation operands and the
// projection.
func newJoinProgram(a *tbql.Analyzed) *joinProgram {
	q := a.Query
	slot := make(map[string]int, len(a.EntityOrder))
	for i, id := range a.EntityOrder {
		slot[id] = i
	}
	jp := &joinProgram{
		nslots:   len(a.EntityOrder),
		subj:     make([]int, len(q.Patterns)),
		obj:      make([]int, len(q.Patterns)),
		distinct: q.Return.Distinct,
	}
	for i, p := range q.Patterns {
		jp.subj[i], jp.obj[i] = slot[p.Subject.ID], slot[p.Object.ID]
	}
	for _, rel := range q.Relations {
		if rel.Kind == tbql.RelAttr {
			ar := attrRel{expr: rel.Attr}
			for _, name := range qualifiers(rel.Attr, nil) {
				if !slices.Contains(ar.names, name) {
					ar.names = append(ar.names, name)
					ar.slots = append(ar.slots, slot[name])
				}
			}
			jp.attrs = append(jp.attrs, ar)
			continue
		}
		jp.temporal = append(jp.temporal, temporalRel{
			a: a.PatternID[rel.A], b: a.PatternID[rel.B], kind: rel.Kind,
			hasDur: rel.HasDur, lo: rel.LoDur.Microseconds(), hi: rel.HiDur.Microseconds(),
		})
	}
	for _, item := range a.ReturnItems {
		jp.ret = append(jp.ret, retItem{slot: slot[item.EntityID], attr: item.Attr})
	}
	return jp
}

// qualifiers appends the column qualifiers (entity IDs) e references.
func qualifiers(e relational.Expr, acc []string) []string {
	switch v := e.(type) {
	case relational.ColRef:
		return append(acc, v.Qualifier)
	case relational.BinOp:
		return qualifiers(v.R, qualifiers(v.L, acc))
	case relational.UnOp:
		return qualifiers(v.E, acc)
	case relational.InList:
		acc = qualifiers(v.E, acc)
		for _, x := range v.Vals {
			acc = qualifiers(x, acc)
		}
	}
	return acc
}

// joinLevel is one level of an execution's walk: a pattern's rows, sorted
// by the key columns probed against slots bound above when there are any.
type joinLevel struct {
	rows [][5]int64
	buf  [][5]int64 // owned sorted copy (rows aliases it when used)
	// marks flags the rows that took part in a complete binding.
	marks []bool
	// keyCol[i] (1 subject, 2 object) must equal slot keySlot[i].
	keyCol, keySlot [2]int
	nkey            int
	// bindS / bindO are the slots this level binds from columns 1 / 2
	// (-1 when bound above). selfLoop requires column 1 == column 2.
	bindS, bindO int
	selfLoop     bool
	hasEvent     bool
	// checks lists the relations whose operands are all bound here:
	// i < len(temporal) names temporal[i], else attrs[i-len(temporal)].
	checks []int32
	// Under a distinct return, items lists the return items whose entity
	// this level binds, and cls caches row i's value class of items[x] at
	// cls[i*len(items)+x] (-1 until the row is first visited).
	items []int
	cls   []int32
	// Under a distinct return a non-final level memoizes the walk below it
	// (see descend) on its interface: the classes of the return items
	// bound at or above it (ifItems), the entities of bound slots a deeper
	// probe key or attribute relation reads (ifSlots), and the start times
	// of bound patterns a deeper temporal relation reads (ifTimes, levels).
	// dom is +1 (-1) when every deeper relation reading this level's own
	// start is a before/after without duration that a lower (higher) start
	// satisfies for more rows below; that start then stays out of the key.
	memo                      bool
	ifItems, ifSlots, ifTimes []int32
	dom                       int8
}

// memoEntry is one memoized sub-walk of a level: the interface key at
// memoKeys[off:], the best own start walked in full under dom (any start
// otherwise), and whether that walk reached a complete binding.
type memoEntry struct {
	level, off, next int32
	found            bool
	start            int64
}

// joinWalk is the pooled state of one join execution (part of
// loopScratch): levels, the slot vector, the current row per level, and
// the distinct-tuple set.
type joinWalk struct {
	prog      *joinProgram
	levels    []joinLevel
	levelOf   []int   // per pattern
	slotLevel []int   // per slot: the level that binds it
	ent       []int64 // per slot: the bound entity ID
	cur       []int32 // per level: the current row
	checkBuf  []int32
	attrOf    func(id int64, attr string) relational.Value
	attrNow   *attrRel
	resolve   func(relational.ColRef) (relational.Value, error)
	joined    int

	// Output rows, carved from slab (carved counts them).
	rows   [][]relational.Value
	slab   []relational.Value
	carved int
	// Distinct output. A return item's value class numbers its distinct
	// projected values (classes[j] interns them, vals[j] lists them), so a
	// binding projects to a tuple of classes (itemCls) and equal tuples
	// are equal rows. tuples holds the distinct ones, len(ret) each, found
	// by hash with collision chains.
	classes []map[relational.Value]int32
	vals    [][]relational.Value
	itemCls []int32
	tuples  []int32
	seen    map[uint64]int32 // tuple hash -> newest tuple index + 1
	next    []int32          // per tuple: older tuple with the same hash, or -1
	// The sub-walk memo: entries' keys in a flat slab, found by hash with
	// collision chains (memoSeen holds the newest entry + 1). ifBuf backs
	// the levels' interface lists, keyBuf the key being looked up. exists
	// marks an existence descent, which stops at its first completion.
	memoKeys []int64
	memoEnts []memoEntry
	memoSeen map[uint64]int32
	ifBuf    []int32
	keyBuf   []int64
	exists   bool
	// hits and probes count memo hits and existence descents (the tests
	// read them to show the memo is exercised).
	hits, probes int

	done <-chan struct{}
	ctx  context.Context
	tick uint32
}

// join combines the scheduled loop's per-pattern rows (results, indexed by
// pattern) into complete bindings, enforcing shared entity identity and
// the temporal and attribute relations, then projects the return clause
// (cols labels it). Entity attributes resolve through attrOf — the pinned
// snapshot's resolver. It returns the number of complete bindings the walk
// reached: every binding of a plain return; under a distinct return the
// memo skips the bindings an equal interface already produced.
func (w *joinWalk) join(ctx context.Context, jp *joinProgram, cols []string, attrOf func(int64, string) relational.Value, results []PatternRows) (*Result, int, error) {
	w.prog, w.attrOf, w.joined, w.ctx, w.done = jp, attrOf, 0, ctx, nil
	w.exists, w.hits, w.probes = false, 0, 0
	if ctx != nil {
		w.done = ctx.Done()
	}
	if w.resolve == nil {
		w.resolve = w.resolveAttr
	}
	if err := w.plan(results); err != nil {
		return nil, 0, err
	}
	if _, err := w.level(0); err != nil {
		return nil, w.joined, err
	}
	rs := &relational.ResultSet{Columns: cols}
	if jp.distinct {
		rs.Rows = w.projectTuples()
	} else {
		rs.Rows, w.rows = w.rows, nil
	}
	matched := make(map[int64]bool)
	for k := range w.levels {
		lv := &w.levels[k]
		if !lv.hasEvent {
			continue
		}
		for i, m := range lv.marks {
			if m {
				matched[lv.rows[i][0]] = true
			}
		}
	}
	return &Result{Set: rs, MatchedEvents: matched}, w.joined, nil
}

// plan orders the levels and derives each one's probe keys, bindings and
// relation checks. The first level is the pattern with the fewest rows;
// each next one is the smallest pattern sharing a bound entity, or the
// smallest overall when none does (a cross product).
func (w *joinWalk) plan(results []PatternRows) error {
	jp := w.prog
	n := len(results)
	w.levels = resize(w.levels, n)
	w.levelOf = fill(resize(w.levelOf, n), -1)
	w.slotLevel = fill(resize(w.slotLevel, jp.nslots), -1)
	w.ent = resize(w.ent, jp.nslots)
	w.cur = resize(w.cur, n)
	for k := 0; k < n; k++ {
		best, bestConn := -1, false
		for p := 0; p < n; p++ {
			if w.levelOf[p] >= 0 {
				continue
			}
			conn := w.slotLevel[jp.subj[p]] >= 0 || w.slotLevel[jp.obj[p]] >= 0
			if best < 0 || (conn && !bestConn) ||
				(conn == bestConn && len(results[p].Rows) < len(results[best].Rows)) {
				best, bestConn = p, conn
			}
		}
		w.levelOf[best] = k
		lv := &w.levels[k]
		lv.hasEvent, lv.nkey, lv.bindS, lv.bindO = results[best].HasEvent, 0, -1, -1
		lv.items, lv.memo = lv.items[:0], false
		s, o := jp.subj[best], jp.obj[best]
		if w.slotLevel[s] >= 0 {
			lv.keyCol[0], lv.keySlot[0], lv.nkey = 1, s, 1
		} else {
			lv.bindS, w.slotLevel[s] = s, k
		}
		lv.selfLoop = o == s
		switch {
		case lv.selfLoop:
		case w.slotLevel[o] >= 0:
			lv.keyCol[lv.nkey], lv.keySlot[lv.nkey] = 2, o
			lv.nkey++
		default:
			lv.bindO, w.slotLevel[o] = o, k
		}
		lv.setRows(results[best].Rows, jp.distinct)
	}

	// Each relation is checked at the deepest level among its operands.
	for _, tr := range jp.temporal {
		if !results[tr.a].HasEvent || !results[tr.b].HasEvent {
			return fmt.Errorf("engine: temporal relation on pattern without event times")
		}
	}
	w.checkBuf = w.checkBuf[:0]
	for k := range w.levels {
		start := len(w.checkBuf)
		for i, tr := range jp.temporal {
			if max(w.levelOf[tr.a], w.levelOf[tr.b]) == k {
				w.checkBuf = append(w.checkBuf, int32(i))
			}
		}
		for i := range jp.attrs {
			at := 0
			for _, s := range jp.attrs[i].slots {
				at = max(at, w.slotLevel[s])
			}
			if at == k {
				w.checkBuf = append(w.checkBuf, int32(len(jp.temporal)+i))
			}
		}
		w.levels[k].checks = w.checkBuf[start:len(w.checkBuf):len(w.checkBuf)]
	}

	if jp.distinct {
		w.planDistinct()
	}
	return nil
}

// planDistinct resets the distinct-tuple state and assigns each return
// item to the level that binds its entity.
func (w *joinWalk) planDistinct() {
	jp := w.prog
	w.tuples, w.next = w.tuples[:0], w.next[:0]
	if w.seen == nil {
		w.seen = make(map[uint64]int32)
	}
	clear(w.seen)
	n := len(jp.ret)
	w.itemCls = resize(w.itemCls, n)
	for len(w.classes) < n {
		w.classes = append(w.classes, make(map[relational.Value]int32))
	}
	w.vals = resize(w.vals, n)
	for j := 0; j < n; j++ {
		clear(w.classes[j])
		w.vals[j] = w.vals[j][:0]
	}
	for k := range w.levels {
		lv := &w.levels[k]
		for j, it := range jp.ret {
			if it.slot == lv.bindS || it.slot == lv.bindO {
				lv.items = append(lv.items, j)
			}
		}
		lv.cls = resize(lv.cls, len(lv.rows)*len(lv.items))
		for i := range lv.cls {
			lv.cls[i] = -1
		}
	}
	w.planMemo()
}

// planMemo resets the memo and derives each non-final level's interface
// and dominance direction (see joinLevel).
func (w *joinWalk) planMemo() {
	jp := w.prog
	w.memoKeys, w.memoEnts, w.ifBuf = w.memoKeys[:0], w.memoEnts[:0], w.ifBuf[:0]
	if w.memoSeen == nil {
		w.memoSeen = make(map[uint64]int32)
	}
	clear(w.memoSeen)
	n := len(w.levels)
	for k := range w.levels {
		lv := &w.levels[k]
		lv.memo, lv.dom = k < n-1, 0
		lv.ifItems, lv.ifSlots, lv.ifTimes = nil, nil, nil
		if !lv.memo {
			continue
		}
		start := len(w.ifBuf)
		for j, it := range jp.ret {
			if w.slotLevel[it.slot] <= k {
				w.ifBuf = append(w.ifBuf, int32(j))
			}
		}
		lv.ifItems = w.carveIf(start)

		start = len(w.ifBuf)
		for m := k + 1; m < n; m++ {
			deep := &w.levels[m]
			for _, s := range deep.keySlot[:deep.nkey] {
				if w.slotLevel[s] <= k {
					w.addIf(start, s)
				}
			}
			for _, c := range deep.checks {
				if int(c) < len(jp.temporal) {
					continue
				}
				for _, s := range jp.attrs[int(c)-len(jp.temporal)].slots {
					if w.slotLevel[s] <= k {
						w.addIf(start, s)
					}
				}
			}
		}
		lv.ifSlots = w.carveIf(start)

		start = len(w.ifBuf)
		mixed := false
		for m := k + 1; m < n; m++ {
			for _, c := range w.levels[m].checks {
				if int(c) >= len(jp.temporal) {
					continue
				}
				tr := &jp.temporal[c]
				for _, p := range [2]int{tr.a, tr.b} {
					switch j := w.levelOf[p]; {
					case j < k:
						w.addIf(start, j)
					case j == k:
						d := tr.ownDir(p == tr.a)
						mixed = mixed || d == 0 || (lv.dom != 0 && d != lv.dom)
						lv.dom = d
					}
				}
			}
		}
		if mixed {
			w.addIf(start, k)
			lv.dom = 0
		}
		lv.ifTimes = w.carveIf(start)
	}
}

// addIf appends v to the interface list begun at ifBuf[start] unless it
// is already listed.
func (w *joinWalk) addIf(start, v int) {
	if !slices.Contains(w.ifBuf[start:], int32(v)) {
		w.ifBuf = append(w.ifBuf, int32(v))
	}
}

// carveIf returns the interface list begun at ifBuf[start], capped so a
// later append reallocates instead of overwriting it.
func (w *joinWalk) carveIf(start int) []int32 {
	return w.ifBuf[start:len(w.ifBuf):len(w.ifBuf)]
}

// memoFind builds level k's interface key in keyBuf and returns its entry
// (-1 when there is none) and the key's hash.
func (w *joinWalk) memoFind(k int) (int32, uint64) {
	lv := &w.levels[k]
	key := w.keyBuf[:0]
	for _, j := range lv.ifItems {
		key = append(key, int64(w.itemCls[j]))
	}
	for _, s := range lv.ifSlots {
		key = append(key, w.ent[s])
	}
	for _, j := range lv.ifTimes {
		key = append(key, w.levels[j].rows[w.cur[j]][3])
	}
	w.keyBuf = key
	h := uint64(fnvOffset) ^ uint64(k)
	for _, v := range key {
		h = (h ^ uint64(v)) * fnvPrime
	}
	for e := w.memoSeen[h] - 1; e >= 0; e = w.memoEnts[e].next {
		m := &w.memoEnts[e]
		if int(m.level) == k && slices.Equal(w.memoKeys[m.off:int(m.off)+len(key)], key) {
			return e, h
		}
	}
	return -1, h
}

// memoAdd records keyBuf as a new entry of level k with hash h.
func (w *joinWalk) memoAdd(k int, h uint64, start int64) int32 {
	e := int32(len(w.memoEnts))
	w.memoEnts = append(w.memoEnts, memoEntry{
		level: int32(k), off: int32(len(w.memoKeys)), next: w.memoSeen[h] - 1, start: start,
	})
	w.memoKeys = append(w.memoKeys, w.keyBuf...)
	w.memoSeen[h] = e + 1
	return e
}

// bindClasses records the value classes of the return items lv binds from
// its row i, resolving each (row, item) attribute once.
func (w *joinWalk) bindClasses(lv *joinLevel, i int) {
	n := len(lv.items)
	for x, j := range lv.items {
		c := lv.cls[i*n+x]
		if c < 0 {
			v := w.attrOf(w.ent[w.prog.ret[j].slot], w.prog.ret[j].attr)
			var ok bool
			if c, ok = w.classes[j][v]; !ok {
				c = int32(len(w.vals[j]))
				w.classes[j][v] = c
				w.vals[j] = append(w.vals[j], v)
			}
			lv.cls[i*n+x] = c
		}
		w.itemCls[j] = c
	}
}

// setRows points the level at its rows. A level with probe keys sorts an
// owned copy by key (then by the whole row); under a distinct return the
// copy is sorted whole and identical rows — paths sharing their final
// edge — collapse, which changes neither the projected set nor the
// matched events.
func (lv *joinLevel) setRows(rows [][5]int64, distinct bool) {
	lv.rows = rows
	if lv.nkey > 0 || distinct {
		lv.buf = append(lv.buf[:0], rows...)
		slices.SortFunc(lv.buf, lv.compareRows)
		if distinct {
			lv.buf = slices.Compact(lv.buf)
		}
		lv.rows = lv.buf
	}
	lv.marks = resize(lv.marks, len(lv.rows))
	clear(lv.marks)
}

// compareRows orders rows by the level's key columns, then whole.
func (lv *joinLevel) compareRows(x, y [5]int64) int {
	for i := 0; i < lv.nkey; i++ {
		if c := cmp.Compare(x[lv.keyCol[i]], y[lv.keyCol[i]]); c != 0 {
			return c
		}
	}
	return slices.Compare(x[:], y[:])
}

// cmpKey compares row r's key columns with the bound slot values.
func (lv *joinLevel) cmpKey(r *[5]int64, ent []int64) int {
	for i := 0; i < lv.nkey; i++ {
		if c := cmp.Compare(r[lv.keyCol[i]], ent[lv.keySlot[i]]); c != 0 {
			return c
		}
	}
	return 0
}

// probe returns the run [lo, hi) of rows whose key equals the bound slots.
func (lv *joinLevel) probe(ent []int64) (lo, hi int) {
	lo, hi = 0, len(lv.rows)
	for lo < hi { // first row with key >= bound
		mid := int(uint(lo+hi) >> 1)
		if lv.cmpKey(&lv.rows[mid], ent) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	end := len(lv.rows)
	for hi < end { // first row with key > bound
		mid := int(uint(hi+end) >> 1)
		if lv.cmpKey(&lv.rows[mid], ent) <= 0 {
			hi = mid + 1
		} else {
			end = mid
		}
	}
	return lo, hi
}

// level enumerates level k's rows consistent with the slots bound above,
// descending on each row that passes the level's checks, and reports
// whether any complete binding was reached; a row that reaches one is
// marked. An existence descent returns at its first completion.
func (w *joinWalk) level(k int) (bool, error) {
	if k == len(w.levels) {
		w.emit()
		return true, nil
	}
	lv := &w.levels[k]
	lo, hi := 0, len(lv.rows)
	if lv.nkey > 0 {
		lo, hi = lv.probe(w.ent)
	}
	found := false
	for i := lo; i < hi; i++ {
		if err := w.checkCancel(); err != nil {
			return false, err
		}
		r := &lv.rows[i]
		if lv.selfLoop && r[1] != r[2] {
			continue
		}
		if lv.bindS >= 0 {
			w.ent[lv.bindS] = r[1]
		}
		if lv.bindO >= 0 {
			w.ent[lv.bindO] = r[2]
		}
		w.cur[k] = int32(i)
		if len(lv.items) > 0 {
			w.bindClasses(lv, i)
		}
		ok, err := w.check(lv)
		if err != nil {
			return false, err
		}
		if !ok {
			continue
		}
		if ok, err = w.descend(k); err != nil {
			return false, err
		}
		if ok {
			lv.marks[i], found = true, true
			if w.exists {
				return true, nil
			}
		}
	}
	return found, nil
}

// descend walks the levels below k for the current prefix and reports
// whether it reached a complete binding. A memoizing level first looks up
// its interface key: equal keys mean the same deeper rows complete and the
// same tuples come out, so a hit only reports the recorded outcome (the
// caller marks the prefix). Under dom the key leaves out the level's own
// start and the entry keeps the best start walked in full: a better start
// walks again and replaces it; a worse one can add no tuples and no deeper
// marks, so when the entry completed it runs an existence descent, only to
// learn whether its prefix completes. An existence descent reads the memo
// but never writes it: its walks are partial.
func (w *joinWalk) descend(k int) (bool, error) {
	lv := &w.levels[k]
	if !lv.memo {
		return w.level(k + 1)
	}
	start := lv.rows[w.cur[k]][3]
	e, h := w.memoFind(k)
	if e < 0 {
		if w.exists {
			return w.level(k + 1)
		}
		e = w.memoAdd(k, h, start)
		found, err := w.level(k + 1)
		w.memoEnts[e].found = found
		return found, err
	}
	w.hits++
	m := w.memoEnts[e]
	better := (start < m.start) == (lv.dom > 0)
	switch {
	case lv.dom == 0 || start == m.start:
		return m.found, nil
	case better && !w.exists: // walk the better start in full
		found, err := w.level(k + 1)
		w.memoEnts[e].start, w.memoEnts[e].found = start, found
		return found, err
	case better == m.found: // a superset of a completion, or a subset of none
		return m.found, nil
	case w.exists:
		return w.level(k + 1)
	}
	w.probes++
	w.exists = true
	found, err := w.level(k + 1)
	w.exists = false
	return found, err
}

// check evaluates the relations scheduled at lv.
func (w *joinWalk) check(lv *joinLevel) (bool, error) {
	jp := w.prog
	for _, c := range lv.checks {
		if int(c) < len(jp.temporal) {
			tr := &jp.temporal[c]
			if !tr.holds(w.row(tr.a)[3], w.row(tr.b)[3]) {
				return false, nil
			}
			continue
		}
		w.attrNow = &jp.attrs[int(c)-len(jp.temporal)]
		v, err := relational.EvalExpr(w.attrNow.expr, w.resolve)
		if err != nil {
			return false, err
		}
		if !v.Truthy() {
			return false, nil
		}
	}
	return true, nil
}

// row returns pattern p's current row.
func (w *joinWalk) row(p int) *[5]int64 {
	k := w.levelOf[p]
	return &w.levels[k].rows[w.cur[k]]
}

// resolveAttr resolves an attribute relation's column against the bound
// entity of its qualifier.
func (w *joinWalk) resolveAttr(c relational.ColRef) (relational.Value, error) {
	for i, name := range w.attrNow.names {
		if name == c.Qualifier {
			return w.attrOf(w.ent[w.attrNow.slots[i]], c.Column), nil
		}
	}
	return relational.Null(), fmt.Errorf("engine: unbound entity %s", c.Qualifier)
}

// emit records one complete binding: the projected row or, under a
// distinct return, its tuple of value classes unless an equal tuple was
// already seen. (The levels mark its rows as the walk unwinds.)
func (w *joinWalk) emit() {
	w.joined++
	jp := w.prog
	if !jp.distinct {
		row := w.newRow(len(jp.ret))
		for i, it := range jp.ret {
			row[i] = w.attrOf(w.ent[it.slot], it.attr)
		}
		w.rows = append(w.rows, row)
		return
	}
	n := len(jp.ret)
	h := uint64(fnvOffset)
	for _, c := range w.itemCls {
		h = (h ^ uint64(c)) * fnvPrime
	}
	for t := w.seen[h] - 1; t >= 0; t = w.next[t] {
		if slices.Equal(w.tuples[int(t)*n:int(t+1)*n], w.itemCls) {
			return
		}
	}
	w.next = append(w.next, w.seen[h]-1)
	w.seen[h] = int32(len(w.next))
	w.tuples = append(w.tuples, w.itemCls...)
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// projectTuples turns the distinct class tuples into return rows.
func (w *joinWalk) projectTuples() [][]relational.Value {
	n := len(w.prog.ret)
	out := make([][]relational.Value, 0, len(w.next))
	for t := range w.next {
		row := w.newRow(n)
		for j, c := range w.tuples[t*n : (t+1)*n] {
			row[j] = w.vals[j][c]
		}
		out = append(out, row)
	}
	return out
}

// newRow carves an output row from a slab that grows up to 256 rows per
// allocation (rows escape into the result, so the slab is never reused).
func (w *joinWalk) newRow(width int) []relational.Value {
	if len(w.slab) < width {
		n := min(max(w.carved, 8), 256)
		w.slab = make([]relational.Value, n*width)
	}
	w.carved++
	row := w.slab[:width:width]
	w.slab = w.slab[width:]
	return row
}

// checkCancel is the walk's amortized cancellation checkpoint: it polls
// ctx every 256 rows (a nil context makes it a nil compare).
func (w *joinWalk) checkCancel() error {
	if w.done == nil {
		return nil
	}
	if w.tick++; w.tick&255 != 1 {
		return nil
	}
	select {
	case <-w.done:
		return w.ctx.Err()
	default:
		return nil
	}
}

// maxPooledRows caps the per-level buffers a pooled walk keeps: a hunt
// with a huge pattern does not pin its copy for every later execution.
const maxPooledRows = 1 << 16

// reset drops the walk's references into one execution's rows and result;
// pooled buffers keep their capacity up to maxPooledRows.
func (w *joinWalk) reset() {
	for k := range w.levels {
		lv := &w.levels[k]
		lv.rows = nil
		if cap(lv.buf) > maxPooledRows {
			lv.buf, lv.marks, lv.cls = nil, nil, nil
		}
	}
	if cap(w.tuples) > maxPooledRows {
		w.tuples, w.next, w.seen = nil, nil, nil
	}
	if cap(w.memoKeys) > maxPooledRows || cap(w.memoEnts) > maxPooledRows {
		w.memoKeys, w.memoEnts, w.memoSeen = nil, nil, nil
	}
	for j := range w.vals {
		clear(w.vals[j]) // drop the strings, keep the buffer
	}
	w.prog, w.attrOf, w.attrNow, w.ctx, w.done = nil, nil, nil, nil, nil
	w.rows, w.slab, w.carved = nil, nil, 0
}

func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

func fill(s []int, v int) []int {
	for i := range s {
		s[i] = v
	}
	return s
}
