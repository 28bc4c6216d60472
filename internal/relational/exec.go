package relational

import (
	"context"
	"math/bits"
	"slices"
)

// ExecStats counts the work done by a query execution, for benchmarking
// and for comparing naive monolithic plans against scheduled plans.
type ExecStats struct {
	// RowsScanned counts rows visited: every row of a scanned range, and
	// every position an index probe feeds to its level's filters (a
	// key-set probe's merged positions, once per entry into the level).
	RowsScanned int
	// IndexLookups counts hash index probes that replaced full scans: one
	// per single-key probe, one per key of a parameter-list probe, and
	// one per selected key that holds rows of a key-set probe (a literal
	// IN list, or each distinct key a LIKE pattern matches), counted when
	// the probe is resolved, once per execution and level.
	IndexLookups int
	// HashJoinBuilds counts transient join hash tables built by the
	// adaptive fallback (one full inner pass each; see hashjoin.go).
	HashJoinBuilds int
}

// maxSlabRows caps how many result rows one projection slab holds:
// emitted rows are sub-slices of a shared backing array, so result
// materialization costs one allocation per slab instead of one per row.
// Slabs start small (most data queries emit a handful of rows) and grow
// geometrically toward the cap.
const maxSlabRows = 256

// IntSink receives a data query's rows as integer tuples instead of a
// ResultSet (see Prepared.QueryInts): Row is called once per result row,
// in result order, with the row's projected columns. row is only valid
// for the duration of the call.
type IntSink interface {
	Row(row []int64)
}

// rowSink collects projected result rows, either as Value rows into rs
// (slab-backed batch allocation; streaming DISTINCT drops duplicates as
// they are emitted, with DedupRows' exact hash/equality semantics) or as
// int tuples handed to ints (read straight from the int columns, DISTINCT
// on the tuple).
type rowSink struct {
	rs       *ResultSet
	width    int
	slab     []Value
	slabRows int
	dedup    *dedupSet
	ints     IntSink
	row      [5]int64
	seen     map[[5]int64]struct{} // int mode's DISTINCT; nil without one
}

func (s *rowSink) emit(p *plan, st *execState) error {
	if s.ints != nil {
		var r [5]int64
		for i, c := range p.intProj {
			r[i] = st.tabs[c.lvl].cols[c.col].ints[st.rows[c.lvl]]
		}
		if s.seen != nil {
			if _, dup := s.seen[r]; dup {
				return nil
			}
			s.seen[r] = struct{}{}
		}
		s.row = r
		s.ints.Row(s.row[:len(p.intProj)])
		return nil
	}
	if len(s.slab) < s.width {
		if s.slabRows < maxSlabRows {
			s.slabRows = s.slabRows*8 + 4
			if s.slabRows > maxSlabRows {
				s.slabRows = maxSlabRows
			}
		}
		s.slab = make([]Value, s.width*s.slabRows)
	}
	dst := s.slab[:s.width:s.width]
	if err := p.project(st, dst); err != nil {
		return err
	}
	if s.dedup != nil && s.dedup.seen(dst) {
		return nil // duplicate: the slab space is reused for the next row
	}
	s.slab = s.slab[s.width:]
	s.rs.Rows = append(s.rs.Rows, dst)
	return nil
}

// run executes a compiled plan batch-at-a-time on the caller's
// goroutine: each nested-loop level turns its candidate rows (a dense
// scan range or an index probe's positions) into a selection vector, the
// level's predicates filter it in conjunct order (a kernel per call, an
// EvalExpr predicate row by row), and each surviving row recurses into
// the next level. Full scans feed the filters BatchSize rows at a time.
// The plan is read-only; all mutable state is per-execution, so one plan
// may run on many goroutines concurrently.
//
// With ints set the rows go to ints as int tuples (see Prepared.QueryInts)
// and run returns no ResultSet.
func (p *plan) run(ctx context.Context, params *Params, ints IntSink) (*ResultSet, ExecStats, error) {
	var rs *ResultSet
	if ints == nil {
		rs = &ResultSet{Columns: p.cols}
	}
	st := p.state()
	st.bindCtx(ctx)
	if params != nil {
		st.params = *params
	}
	p.bindTabs(st)
	err := p.bindVals(st)
	if err == nil {
		err = p.walk(st, p.newSink(st, rs, ints), 0)
	}
	stats := st.stats
	p.release(st)
	if err != nil {
		return nil, stats, err
	}
	return rs, stats, nil
}

// newSink sets up st's collector for one walk into rs or ints, with
// streaming DISTINCT when the statement asks for it.
func (p *plan) newSink(st *execState, rs *ResultSet, ints IntSink) *rowSink {
	sink := &st.sink
	seen := sink.seen // an int DISTINCT set kept by the pooled state
	*sink = rowSink{rs: rs, ints: ints, width: len(p.cols)}
	if p.stmt.Distinct {
		if ints == nil {
			sink.dedup = newDedupSet(rs)
		} else if sink.seen = seen; seen == nil {
			sink.seen = make(map[[5]int64]struct{})
		}
	}
	return sink
}

// effAccess resolves the level's access path for this execution: an
// optional parameter-list probe with no bound list falls back to the
// access the level would otherwise use (possibly none — a full scan).
func (p *plan) effAccess(params *Params, lvl int) *indexAccess {
	ia := p.access[lvl]
	if ia != nil && ia.optional && ia.listSlot >= 0 &&
		(params == nil || len(params.Lists[ia.listSlot]) == 0) {
		ia = ia.fallback
	}
	return ia
}

// walk processes nested-loop level lvl: an index probe's positions, or
// its scan from the level's scan floor on.
func (p *plan) walk(st *execState, sink *rowSink, lvl int) error {
	if lvl == len(p.tables) {
		return sink.emit(p, st)
	}
	tbl := st.tabs[lvl]
	if ia := p.effAccess(&st.params, lvl); ia != nil && ia.keyed() {
		if p.keyedProbe(st, lvl, ia) {
			pos := st.keyed[lvl].pos
			st.stats.RowsScanned += len(pos)
			if len(pos) == 0 {
				return nil
			}
			return p.feedPositions(st, sink, lvl, pos)
		}
		// Too large a share of the level to probe: scan it below.
	} else if ia != nil {
		if ia.listSlot >= 0 {
			for _, id := range st.params.Lists[ia.listSlot] {
				if err := st.checkCancel(); err != nil {
					return err
				}
				if err := p.probe(st, sink, lvl, tbl, ia, Int(id)); err != nil {
					return err
				}
			}
			return nil
		}
		key, err := ia.keyFn(st)
		if err != nil {
			return err
		}
		return p.probe(st, sink, lvl, tbl, ia, key)
	}
	if hj := p.hashJoins[lvl]; hj != nil {
		used, err := p.hashJoinLevel(st, sink, lvl, hj)
		if used || err != nil {
			return err
		}
	}
	var lo int32
	if len(p.floors[lvl]) > 0 {
		lo = p.scanStart(st, lvl)
	}
	hi := int32(tbl.Len())
	bs := int32(BatchSize)
	for b := lo; b < hi; b += bs {
		// One cancellation poll per batch: off the per-row path, and the
		// nil-done fast path makes it free when no context is bound.
		if st.done != nil {
			select {
			case <-st.done:
				return st.ctx.Err()
			default:
			}
		}
		end := b + bs
		if end > hi {
			end = hi
		}
		if err := p.scanRange(st, sink, lvl, b, end); err != nil {
			return err
		}
	}
	return nil
}

// keyedScanShare bounds a key-set probe: when the selected keys hold
// more than 1/keyedScanShare of the level's scan range (the rows from
// its scan floor on), the level runs its scan instead, which reads its
// columns in order. On 32 data_leak instances (204 k entities, 2 vCPUs),
// "pid < 0 AND exename LIKE p" broke even with a level-0 scan split
// across both CPUs near half the table and took 0.4× that scan's time at
// 18 %; against the serial scan the probe wins over a wider range still,
// and a quarter keeps it well inside.
const keyedScanShare = 4

// Resolution states of a key-set access (keyedLevel.mode).
const (
	keyedUnresolved = iota
	keyedProbes
	keyedScan
)

// keyedLevel is one level's key-set access resolved for one execution.
// The key set is fixed for the execution (constant keys, a constant LIKE
// pattern, tables bound to one snapshot), so the level matches and
// merges it once, on its first entry, and every later entry feeds the
// same positions.
type keyedLevel struct {
	mode uint8
	// pos are the selected rows in ascending order: the one selected
	// key's index list itself, or buf.
	pos []int32
	// buf is the level's own merge buffer, kept across pooled executions.
	buf []int32
}

// keyedProbe resolves level lvl's key-set access for this execution and
// reports whether the level probes it (false: the level scans). It
// collects the selected keys' position lists (Table.keyLists); when they
// hold at most 1/keyedScanShare of the level's scan range it merges them
// into ascending row order (mergeLists), so the level emits its rows in
// the order its scan would. Every row still runs through all of the
// level's conjuncts, the IN or LIKE included.
func (p *plan) keyedProbe(st *execState, lvl int, ia *indexAccess) bool {
	k := &st.keyed[lvl]
	if k.mode != keyedUnresolved {
		return k.mode == keyedProbes
	}
	tbl := st.tabs[lvl]
	lists, total := tbl.keyLists(ia, st, st.lists[:0])
	span := tbl.Len()
	if len(p.floors[lvl]) > 0 {
		span -= int(p.scanStart(st, lvl))
	}
	switch {
	case total*keyedScanShare > span:
		k.mode = keyedScan
	case len(lists) == 1:
		k.mode, k.pos = keyedProbes, lists[0]
	default:
		k.buf = mergeLists(lists, &st.bits, slices.Grow(k.buf[:0], total), tbl.Len())
		k.mode, k.pos = keyedProbes, k.buf
	}
	if k.mode == keyedProbes {
		st.stats.IndexLookups += len(lists)
	}
	clear(lists) // do not pin index lists in the pooled state
	st.lists = lists[:0]
	return k.mode == keyedProbes
}

// mergeLists appends the union of ascending position lists, all below
// rows, to dst in ascending order: it sets each position's bit in the
// pooled bitmap, then reads the touched words back in order, clearing
// them, so the bitmap is all zero again on return. The cost is the
// positions plus one word per 64 rows of the touched span.
func mergeLists(lists [][]int32, scratch *[]uint64, dst []int32, rows int) []int32 {
	words := (rows + 63) >> 6
	if cap(*scratch) < words {
		*scratch = make([]uint64, words)
	}
	set := (*scratch)[:words]
	lo, hi := words, 0
	for _, l := range lists {
		for _, pos := range l {
			set[pos>>6] |= 1 << (uint(pos) & 63)
		}
		lo, hi = min(lo, int(l[0]>>6)), max(hi, int(l[len(l)-1]>>6)+1)
	}
	for w := lo; w < hi; w++ {
		x := set[w]
		set[w] = 0
		for x != 0 {
			dst = append(dst, int32(w<<6+bits.TrailingZeros64(x)))
			x &= x - 1
		}
	}
	return dst
}

// probe runs one hash-index lookup and feeds the resulting positions
// through the level's filters.
func (p *plan) probe(st *execState, sink *rowSink, lvl int, tbl *Table, ia *indexAccess, key Value) error {
	pos, ok := tbl.lookup(ia.col, key)
	if !ok {
		return nil
	}
	st.stats.IndexLookups++
	st.stats.RowsScanned += len(pos)
	return p.feedPositions(st, sink, lvl, pos)
}

// feedPositions runs a probe's candidate positions (from a hash index or
// a join hash table) through the level's filters and descends.
func (p *plan) feedPositions(st *execState, sink *rowSink, lvl int, pos []int32) error {
	preds := p.levelPreds[lvl]
	// Skip leading inactive predicates (pruned optional parameters).
	for len(preds) > 0 && !preds[0].isActive(st) {
		preds = preds[1:]
	}
	if len(preds) == 0 {
		return p.descend(st, sink, lvl, pos)
	}
	// The positions slice belongs to the index; the first filter reads it
	// and writes survivors into the level's own buffer.
	sel := p.applyPred(st, lvl, preds[0], pos, st.selbuf(lvl, len(pos)))
	sel = p.filterRest(st, lvl, preds[1:], sel)
	return p.descend(st, sink, lvl, sel)
}

// scanRange feeds the dense row range [lo, hi) through the level's
// filters. With no predicates the rows descend directly; otherwise the
// first predicate materializes the surviving selection (a kernel first
// predicate never materializes the identity selection at all).
func (p *plan) scanRange(st *execState, sink *rowSink, lvl int, lo, hi int32) error {
	st.stats.RowsScanned += int(hi - lo)
	preds := p.levelPreds[lvl]
	for len(preds) > 0 && !preds[0].isActive(st) {
		preds = preds[1:]
	}
	if len(preds) == 0 {
		for r := lo; r < hi; r++ {
			st.rows[lvl] = r
			if err := p.walk(st, sink, lvl+1); err != nil {
				return err
			}
		}
		return nil
	}
	sel := st.selbuf(lvl, int(hi-lo))
	if first := preds[0]; first.vec != nil {
		sel, preds = first.vec.filterRange(st, lo, hi, sel), preds[1:]
	} else {
		for r := lo; r < hi; r++ {
			sel = append(sel, r)
		}
	}
	sel = p.filterRest(st, lvl, preds, sel)
	return p.descend(st, sink, lvl, sel)
}

// filterRest applies the remaining active predicates, in conjunct order,
// to the selection in place.
func (p *plan) filterRest(st *execState, lvl int, preds []levelPred, sel []int32) []int32 {
	for i := range preds {
		if len(sel) == 0 || st.pendErr != nil {
			return sel
		}
		if !preds[i].isActive(st) {
			continue
		}
		sel = p.applyPred(st, lvl, preds[i], sel, sel[:0])
	}
	return sel
}

// applyPred filters src into dst (which may alias src's prefix) with one
// predicate: its kernel, or its EvalExpr closure row by row. EvalExpr
// errors are deferred onto the state and re-raised by descend, keeping
// the kernels' append-only signatures.
func (p *plan) applyPred(st *execState, lvl int, pr levelPred, src, dst []int32) []int32 {
	if pr.vec != nil {
		return pr.vec.filterSel(st, src, dst)
	}
	for _, r := range src {
		st.rows[lvl] = r
		v, err := pr.row(st)
		if err != nil {
			st.pendErr = err
			return dst
		}
		if v.Truthy() {
			dst = append(dst, r)
		}
	}
	return dst
}

// descend recurses into the next level for every selected row.
func (p *plan) descend(st *execState, sink *rowSink, lvl int, sel []int32) error {
	if st.pendErr != nil {
		err := st.pendErr
		st.pendErr = nil
		return err
	}
	for _, r := range sel {
		st.rows[lvl] = r
		if err := p.walk(st, sink, lvl+1); err != nil {
			return err
		}
	}
	return nil
}
