package relational

import "sync/atomic"

// This file is the executor's batch kernels: a WHERE conjunct whose shape
// is typed compiles to a kernel that filters a whole selection vector per
// call with tight typed loops over the column vectors. The leaf kernels
// cover a column against a same-kind constant (a literal or value slot),
// integer parameter or outer-level column (=, <>, <, <=, >, >=), LIKE
// with a constant pattern, and IN lists of constants; AND, OR and NOT
// over kernels compose as selection-vector combinators. Every other shape (arithmetic, mixed kinds, same-level
// column pairs, a dict column against an outer column) evaluates through
// EvalExpr instead (plan.go), applied to the surviving selection in the
// same conjunct order. Each kernel selects exactly the rows for which
// EvalExpr is truthy, so the two paths never differ on a row.

// BatchSize is the number of rows a full-table scan feeds through the
// vectorized filters per batch. It is a variable (not a constant) so tests
// can shrink it to force many-batch executions on small tables; production
// code must treat it as read-only.
var BatchSize = 1024

// vecPred is one batch-compilable predicate: filterSel appends to dst the
// rows of sel that satisfy it, filterRange does the same for the dense row
// range [lo, hi). dst may share backing storage with sel (the write index
// never passes the read index), which is how the executor filters a
// selection in place. The rows appended are always a subsequence of the
// input, in input order; the AND/OR/NOT combinators rely on it.
type vecPred struct {
	filterSel   func(st *execState, sel, dst []int32) []int32
	filterRange func(st *execState, lo, hi int32, dst []int32) []int32
}

// colAccess is a column resolved at plan time for the kernels.
type colAccess struct {
	tbl  *Table
	lvl  int
	col  int
	kind Kind
}

func (b *binding) colAccess(c ColRef) (colAccess, bool) {
	lvl, col, err := b.resolve(c)
	if err != nil {
		return colAccess{}, false
	}
	return colAccess{tbl: b.tables[lvl], lvl: lvl, col: col, kind: b.tables[lvl].Schema[col].Kind}, true
}

// intAt and strAt read the column's cell at its level's current row (an
// outer level's, for vecCmpOuter); null reports a NULL cell.
func (a colAccess) intAt(st *execState) (v int64, null bool) {
	row := int(st.rows[a.lvl])
	c := &st.tabs[a.lvl].cols[a.col]
	if len(c.null) > row>>6 && c.null.get(row) {
		return 0, true
	}
	return c.ints[row], false
}

func (a colAccess) strAt(st *execState) (s string, null bool) {
	row := int(st.rows[a.lvl])
	c := &st.tabs[a.lvl].cols[a.col]
	if len(c.null) > row>>6 && c.null.get(row) {
		return "", true
	}
	if c.dict != nil {
		return c.decode(c.codes[row]), false
	}
	return c.strs[row], false
}

// dictOf returns the column's dictionary, or nil for plain columns.
func (a colAccess) dictOf() *dictionary { return a.tbl.cols[a.col].dict }

// nullAt reports whether bit r is set in a bitmap known to cover row r
// (appendRow keeps non-empty bitmaps grown to the full row count). The
// word load is atomic: the writer may set bits for post-snapshot rows in
// the word that also covers the snapshot's tail rows (see bitmap).
func nullAt(nb bitmap, r int32) bool {
	return atomic.LoadUint64(&nb[r>>6])&(1<<(uint(r)&63)) != 0
}

// The generic kernels below are instantiated for int64 and string columns.
// Each comes in a selection-vector and a dense-range variant, and each
// branches once on bitmap presence so the no-NULL loop carries no per-row
// null check. NULL ordering follows the engine convention (NULL sorts
// before every value): < and <= keep NULL rows, =, <>, > and >= drop them.

type orderedCol interface{ ~int32 | ~int64 | ~string }

func filterEq[T orderedCol](col []T, nb bitmap, k T, sel, dst []int32) []int32 {
	if len(nb) == 0 {
		for _, r := range sel {
			if col[r] == k {
				dst = append(dst, r)
			}
		}
		return dst
	}
	for _, r := range sel {
		if !nullAt(nb, r) && col[r] == k {
			dst = append(dst, r)
		}
	}
	return dst
}

func filterEqRange[T orderedCol](col []T, nb bitmap, k T, lo, hi int32, dst []int32) []int32 {
	if len(nb) == 0 {
		for r := lo; r < hi; r++ {
			if col[r] == k {
				dst = append(dst, r)
			}
		}
		return dst
	}
	for r := lo; r < hi; r++ {
		if !nullAt(nb, r) && col[r] == k {
			dst = append(dst, r)
		}
	}
	return dst
}

func filterNe[T orderedCol](col []T, nb bitmap, k T, sel, dst []int32) []int32 {
	if len(nb) == 0 {
		for _, r := range sel {
			if col[r] != k {
				dst = append(dst, r)
			}
		}
		return dst
	}
	for _, r := range sel {
		if !nullAt(nb, r) && col[r] != k {
			dst = append(dst, r)
		}
	}
	return dst
}

func filterNeRange[T orderedCol](col []T, nb bitmap, k T, lo, hi int32, dst []int32) []int32 {
	if len(nb) == 0 {
		for r := lo; r < hi; r++ {
			if col[r] != k {
				dst = append(dst, r)
			}
		}
		return dst
	}
	for r := lo; r < hi; r++ {
		if !nullAt(nb, r) && col[r] != k {
			dst = append(dst, r)
		}
	}
	return dst
}

func filterLt[T orderedCol](col []T, nb bitmap, k T, sel, dst []int32) []int32 {
	if len(nb) == 0 {
		for _, r := range sel {
			if col[r] < k {
				dst = append(dst, r)
			}
		}
		return dst
	}
	for _, r := range sel {
		if nullAt(nb, r) || col[r] < k {
			dst = append(dst, r)
		}
	}
	return dst
}

func filterLtRange[T orderedCol](col []T, nb bitmap, k T, lo, hi int32, dst []int32) []int32 {
	if len(nb) == 0 {
		for r := lo; r < hi; r++ {
			if col[r] < k {
				dst = append(dst, r)
			}
		}
		return dst
	}
	for r := lo; r < hi; r++ {
		if nullAt(nb, r) || col[r] < k {
			dst = append(dst, r)
		}
	}
	return dst
}

func filterLe[T orderedCol](col []T, nb bitmap, k T, sel, dst []int32) []int32 {
	if len(nb) == 0 {
		for _, r := range sel {
			if col[r] <= k {
				dst = append(dst, r)
			}
		}
		return dst
	}
	for _, r := range sel {
		if nullAt(nb, r) || col[r] <= k {
			dst = append(dst, r)
		}
	}
	return dst
}

func filterLeRange[T orderedCol](col []T, nb bitmap, k T, lo, hi int32, dst []int32) []int32 {
	if len(nb) == 0 {
		for r := lo; r < hi; r++ {
			if col[r] <= k {
				dst = append(dst, r)
			}
		}
		return dst
	}
	for r := lo; r < hi; r++ {
		if nullAt(nb, r) || col[r] <= k {
			dst = append(dst, r)
		}
	}
	return dst
}

func filterGt[T orderedCol](col []T, nb bitmap, k T, sel, dst []int32) []int32 {
	if len(nb) == 0 {
		for _, r := range sel {
			if col[r] > k {
				dst = append(dst, r)
			}
		}
		return dst
	}
	for _, r := range sel {
		if !nullAt(nb, r) && col[r] > k {
			dst = append(dst, r)
		}
	}
	return dst
}

func filterGtRange[T orderedCol](col []T, nb bitmap, k T, lo, hi int32, dst []int32) []int32 {
	if len(nb) == 0 {
		for r := lo; r < hi; r++ {
			if col[r] > k {
				dst = append(dst, r)
			}
		}
		return dst
	}
	for r := lo; r < hi; r++ {
		if !nullAt(nb, r) && col[r] > k {
			dst = append(dst, r)
		}
	}
	return dst
}

func filterGe[T orderedCol](col []T, nb bitmap, k T, sel, dst []int32) []int32 {
	if len(nb) == 0 {
		for _, r := range sel {
			if col[r] >= k {
				dst = append(dst, r)
			}
		}
		return dst
	}
	for _, r := range sel {
		if !nullAt(nb, r) && col[r] >= k {
			dst = append(dst, r)
		}
	}
	return dst
}

func filterGeRange[T orderedCol](col []T, nb bitmap, k T, lo, hi int32, dst []int32) []int32 {
	if len(nb) == 0 {
		for r := lo; r < hi; r++ {
			if col[r] >= k {
				dst = append(dst, r)
			}
		}
		return dst
	}
	for r := lo; r < hi; r++ {
		if !nullAt(nb, r) && col[r] >= k {
			dst = append(dst, r)
		}
	}
	return dst
}

// filterCmp dispatches one comparison over a selection by operator. The
// op switch runs once per batch; the chosen kernel loops.
func filterCmp[T orderedCol](col []T, nb bitmap, op string, k T, sel, dst []int32) []int32 {
	switch op {
	case "=":
		return filterEq(col, nb, k, sel, dst)
	case "<>":
		return filterNe(col, nb, k, sel, dst)
	case "<":
		return filterLt(col, nb, k, sel, dst)
	case "<=":
		return filterLe(col, nb, k, sel, dst)
	case ">":
		return filterGt(col, nb, k, sel, dst)
	default:
		return filterGe(col, nb, k, sel, dst)
	}
}

func filterCmpRange[T orderedCol](col []T, nb bitmap, op string, k T, lo, hi int32, dst []int32) []int32 {
	switch op {
	case "=":
		return filterEqRange(col, nb, k, lo, hi, dst)
	case "<>":
		return filterNeRange(col, nb, k, lo, hi, dst)
	case "<":
		return filterLtRange(col, nb, k, lo, hi, dst)
	case "<=":
		return filterLeRange(col, nb, k, lo, hi, dst)
	case ">":
		return filterGtRange(col, nb, k, lo, hi, dst)
	default:
		return filterGeRange(col, nb, k, lo, hi, dst)
	}
}

// colVec fetches a column's current typed vector and bitmap at filter
// time, resolved through the execution's bound tables so a snapshot-pinned
// run reads the frozen headers. Capturing the slices at plan time would go
// stale: cached plans outlive inserts, and append can relocate the vectors.
func intVec(a colAccess, st *execState) ([]int64, bitmap) {
	c := &st.tabs[a.lvl].cols[a.col]
	return c.ints, c.null
}

func strVec(a colAccess, st *execState) ([]string, bitmap) {
	c := &st.tabs[a.lvl].cols[a.col]
	return c.strs, c.null
}

// vecCmpConst builds the kernels for "col OP constant" where both sides
// share one kind; the constant is read once per call.
func vecCmpConst(a colAccess, op string, k operand) *vecPred {
	if a.kind == KindInt {
		return &vecPred{
			filterSel: func(st *execState, sel, dst []int32) []int32 {
				col, nb := intVec(a, st)
				return filterCmp(col, nb, op, k.get(st).I, sel, dst)
			},
			filterRange: func(st *execState, lo, hi int32, dst []int32) []int32 {
				col, nb := intVec(a, st)
				return filterCmpRange(col, nb, op, k.get(st).I, lo, hi, dst)
			},
		}
	}
	return &vecPred{
		filterSel: func(st *execState, sel, dst []int32) []int32 {
			col, nb := strVec(a, st)
			return filterCmp(col, nb, op, k.get(st).S, sel, dst)
		},
		filterRange: func(st *execState, lo, hi int32, dst []int32) []int32 {
			col, nb := strVec(a, st)
			return filterCmpRange(col, nb, op, k.get(st).S, lo, hi, dst)
		},
	}
}

// vecCmpOuter builds the kernels for "col OP outer-column" where the other
// column belongs to an earlier nested-loop level: its value is fixed while
// this level scans, so each batch reads it once and reuses the literal
// kernels. A NULL outer value is handled by the null-combination filters
// below.
func vecCmpOuter(a colAccess, op string, outer colAccess) *vecPred {
	if a.kind == KindInt {
		return &vecPred{
			filterSel: func(st *execState, sel, dst []int32) []int32 {
				col, nb := intVec(a, st)
				k, knull := outer.intAt(st)
				if knull {
					return filterVsNull(nb, op, sel, dst)
				}
				return filterCmp(col, nb, op, k, sel, dst)
			},
			filterRange: func(st *execState, lo, hi int32, dst []int32) []int32 {
				col, nb := intVec(a, st)
				k, knull := outer.intAt(st)
				if knull {
					return filterVsNullRange(nb, op, lo, hi, dst)
				}
				return filterCmpRange(col, nb, op, k, lo, hi, dst)
			},
		}
	}
	return &vecPred{
		filterSel: func(st *execState, sel, dst []int32) []int32 {
			col, nb := strVec(a, st)
			k, knull := outer.strAt(st)
			if knull {
				return filterVsNull(nb, op, sel, dst)
			}
			return filterCmp(col, nb, op, k, sel, dst)
		},
		filterRange: func(st *execState, lo, hi int32, dst []int32) []int32 {
			col, nb := strVec(a, st)
			k, knull := outer.strAt(st)
			if knull {
				return filterVsNullRange(nb, op, lo, hi, dst)
			}
			return filterCmpRange(col, nb, op, k, lo, hi, dst)
		},
	}
}

// filterVsNull applies "col OP NULL" row filtering with Value.Compare's
// NULL ordering (NULL sorts first and compares equal to NULL): = and <>
// never match, < matches nothing, <= keeps exactly the NULL rows, > keeps
// the non-NULL rows, >= keeps everything.
func filterVsNull(nb bitmap, op string, sel, dst []int32) []int32 {
	switch op {
	case ">=":
		return append(dst, sel...)
	case "<=":
		if len(nb) == 0 {
			return dst
		}
		for _, r := range sel {
			if nullAt(nb, r) {
				dst = append(dst, r)
			}
		}
		return dst
	case ">":
		if len(nb) == 0 {
			return append(dst, sel...)
		}
		for _, r := range sel {
			if !nullAt(nb, r) {
				dst = append(dst, r)
			}
		}
		return dst
	default: // "=", "<>", "<"
		return dst
	}
}

func filterVsNullRange(nb bitmap, op string, lo, hi int32, dst []int32) []int32 {
	switch op {
	case ">=":
		for r := lo; r < hi; r++ {
			dst = append(dst, r)
		}
		return dst
	case "<=", ">":
		wantNull := op == "<="
		if len(nb) == 0 {
			if wantNull {
				return dst
			}
			for r := lo; r < hi; r++ {
				dst = append(dst, r)
			}
			return dst
		}
		for r := lo; r < hi; r++ {
			if nullAt(nb, r) == wantNull {
				dst = append(dst, r)
			}
		}
		return dst
	default:
		return dst
	}
}

// vecLike builds the kernels for "col LIKE pattern" with the pattern
// compiled once per execution (compileLike's Contains/HasPrefix/...
// lowering, in execState.likes).
func vecLike(a colAccess, like *likeOp) *vecPred {
	return &vecPred{
		filterSel: func(st *execState, sel, dst []int32) []int32 {
			col, nb := strVec(a, st)
			m := &st.likes[like.idx]
			if len(nb) == 0 {
				for _, r := range sel {
					if m.match(col[r]) {
						dst = append(dst, r)
					}
				}
				return dst
			}
			for _, r := range sel {
				if !nullAt(nb, r) && m.match(col[r]) {
					dst = append(dst, r)
				}
			}
			return dst
		},
		filterRange: func(st *execState, lo, hi int32, dst []int32) []int32 {
			col, nb := strVec(a, st)
			m := &st.likes[like.idx]
			if len(nb) == 0 {
				for r := lo; r < hi; r++ {
					if m.match(col[r]) {
						dst = append(dst, r)
					}
				}
				return dst
			}
			for r := lo; r < hi; r++ {
				if !nullAt(nb, r) && m.match(col[r]) {
					dst = append(dst, r)
				}
			}
			return dst
		},
	}
}

// filterIn and filterInRange are the kernels of "col [NOT] IN
// (constants...)" over the execution's sorted same-kind keys. A NULL
// cell is a member of nothing: it passes exactly when the list is
// negated.
func filterIn[T orderedCol](col []T, nb bitmap, keys []T, negate bool, sel, dst []int32) []int32 {
	if len(nb) == 0 {
		for _, r := range sel {
			if containsSorted(keys, col[r]) != negate {
				dst = append(dst, r)
			}
		}
		return dst
	}
	for _, r := range sel {
		if nullAt(nb, r) {
			if negate {
				dst = append(dst, r)
			}
			continue
		}
		if containsSorted(keys, col[r]) != negate {
			dst = append(dst, r)
		}
	}
	return dst
}

func filterInRange[T orderedCol](col []T, nb bitmap, keys []T, negate bool, lo, hi int32, dst []int32) []int32 {
	if len(nb) == 0 {
		for r := lo; r < hi; r++ {
			if containsSorted(keys, col[r]) != negate {
				dst = append(dst, r)
			}
		}
		return dst
	}
	for r := lo; r < hi; r++ {
		if nullAt(nb, r) {
			if negate {
				dst = append(dst, r)
			}
			continue
		}
		if containsSorted(keys, col[r]) != negate {
			dst = append(dst, r)
		}
	}
	return dst
}

func vecInInt(a colAccess, in *inList, negate bool) *vecPred {
	return &vecPred{
		filterSel: func(st *execState, sel, dst []int32) []int32 {
			col, nb := intVec(a, st)
			return filterIn(col, nb, st.ins[in.idx].ints, negate, sel, dst)
		},
		filterRange: func(st *execState, lo, hi int32, dst []int32) []int32 {
			col, nb := intVec(a, st)
			return filterInRange(col, nb, st.ins[in.idx].ints, negate, lo, hi, dst)
		},
	}
}

func vecInStr(a colAccess, in *inList, negate bool) *vecPred {
	return &vecPred{
		filterSel: func(st *execState, sel, dst []int32) []int32 {
			col, nb := strVec(a, st)
			return filterIn(col, nb, st.ins[in.idx].strs, negate, sel, dst)
		},
		filterRange: func(st *execState, lo, hi int32, dst []int32) []int32 {
			col, nb := strVec(a, st)
			return filterInRange(col, nb, st.ins[in.idx].strs, negate, lo, hi, dst)
		},
	}
}

// vecAnd filters with l, then filters l's hits with r in place.
func vecAnd(l, r *vecPred) *vecPred {
	return &vecPred{
		filterSel: func(st *execState, sel, dst []int32) []int32 {
			n := len(dst)
			out := l.filterSel(st, sel, dst)
			return r.filterSel(st, out[n:], out[:n])
		},
		filterRange: func(st *execState, lo, hi int32, dst []int32) []int32 {
			n := len(dst)
			out := l.filterRange(st, lo, hi, dst)
			return r.filterSel(st, out[n:], out[:n])
		},
	}
}

// vecNot keeps the input rows its child rejects: the child's hits go to
// the kernel's scratch selection, and a merge-subtract removes them from
// the input (the hits are a subsequence of it).
func vecNot(in *vecPred, slot int) *vecPred {
	return selKernel(func(st *execState, sel, dst []int32) []int32 {
		return subtractSel(sel, in.filterSel(st, sel, st.scratch(slot, len(sel))), dst)
	})
}

// vecOr keeps the input rows either child accepts. The right child runs
// only on the rows the left one rejected (EvalExpr's short circuit), and
// the two hit lists merge back in input order. Both intermediate
// selections live in the kernel's two scratch slots. When the left child
// accepts all or none of the input (always, on a probe's single row),
// there is nothing to merge.
func vecOr(l, r *vecPred, hitSlot, missSlot int) *vecPred {
	return selKernel(func(st *execState, sel, dst []int32) []int32 {
		hits := l.filterSel(st, sel, st.scratch(hitSlot, len(sel)))
		switch len(hits) {
		case len(sel):
			return append(dst, hits...)
		case 0:
			return r.filterSel(st, sel, dst)
		}
		miss := subtractSel(sel, hits, st.scratch(missSlot, len(sel)))
		miss = r.filterSel(st, miss, miss[:0])
		i, j := 0, 0
		for _, row := range sel {
			if i < len(hits) && hits[i] == row {
				dst = append(dst, row)
				i++
			} else if j < len(miss) && miss[j] == row {
				dst = append(dst, row)
				j++
			}
		}
		return dst
	})
}

// selKernel completes a selection filter into a kernel whose dense-range
// form materializes the range into dst and filters it in place.
func selKernel(filterSel func(st *execState, sel, dst []int32) []int32) *vecPred {
	return &vecPred{
		filterSel: filterSel,
		filterRange: func(st *execState, lo, hi int32, dst []int32) []int32 {
			n := len(dst)
			for row := lo; row < hi; row++ {
				dst = append(dst, row)
			}
			return filterSel(st, dst[n:], dst[:n])
		},
	}
}

// subtractSel appends to dst the rows of sel not in hits, a subsequence of
// sel. dst may alias sel, as in vecPred.
func subtractSel(sel, hits, dst []int32) []int32 {
	i := 0
	for _, row := range sel {
		if i < len(hits) && hits[i] == row {
			i++
			continue
		}
		dst = append(dst, row)
	}
	return dst
}

// newScratch reserves one scratch selection slot for a combinator.
func (b *binding) newScratch() int {
	b.scratch++
	return b.scratch - 1
}

// compileVecPred compiles conjunct e into a batch kernel when its shape is
// typed at level lvl: a comparison or LIKE between a level-lvl column and
// a same-kind constant, integer parameter or earlier-level column, an IN
// list of constants or a parameter list over a level-lvl column, or
// AND/OR/NOT over such shapes. Returns nil for every other shape; EvalExpr
// evaluates those.
func (b *binding) compileVecPred(lvl int, e Expr) *vecPred {
	switch v := e.(type) {
	case UnOp:
		if in := b.compileVecPred(lvl, v.E); in != nil {
			return vecNot(in, b.newScratch())
		}
		return nil
	case BinOp:
		op := v.Op
		switch op {
		case "and", "or":
			l := b.compileVecPred(lvl, v.L)
			if l == nil {
				return nil
			}
			r := b.compileVecPred(lvl, v.R)
			if r == nil {
				return nil
			}
			if op == "and" {
				return vecAnd(l, r)
			}
			return vecOr(l, r, b.newScratch(), b.newScratch())
		case "=", "<>", "<", "<=", ">", ">=", "like":
		default:
			return nil
		}
		l, r := v.L, v.R
		// Normalize the level-lvl column to the left, flipping the
		// operator (a LIKE pattern on the left is not a column match).
		if !b.isColAt(lvl, l) && b.isColAt(lvl, r) {
			if op == "like" {
				return nil
			}
			l, r = r, l
			switch op {
			case "<":
				op = ">"
			case "<=":
				op = ">="
			case ">":
				op = "<"
			case ">=":
				op = "<="
			}
		}
		lc, ok := l.(ColRef)
		if !ok {
			return nil
		}
		la, ok := b.colAccess(lc)
		if !ok || la.lvl != lvl {
			return nil
		}
		if k, kind, ok := b.operand(r); ok {
			if op == "like" {
				if la.kind != KindString || kind != KindString {
					return nil
				}
				if la.dictOf() != nil {
					return vecDictLike(la, k, b.newLike(k))
				}
				return vecLike(la, b.newLike(k))
			}
			if la.kind != kind {
				return nil
			}
			if la.dictOf() != nil {
				return vecDictCmp(la, op, k)
			}
			return vecCmpConst(la, op, k)
		}
		switch rv := r.(type) {
		case Param:
			if op == "like" || la.kind != KindInt || la.dictOf() != nil {
				return nil
			}
			slot, err := checkSlot(rv.Slot)
			if err != nil {
				return nil
			}
			return vecCmpParam(la, op, slot)
		case ColRef:
			if op == "like" {
				return nil
			}
			ra, ok := b.colAccess(rv)
			if !ok || ra.lvl >= lvl || la.kind != ra.kind {
				return nil
			}
			if la.dictOf() != nil {
				// Dict codes cannot compare against a varying outer
				// value; EvalExpr decodes instead.
				return nil
			}
			return vecCmpOuter(la, op, ra)
		}
		return nil
	case ParamIDs:
		c, ok := v.E.(ColRef)
		if !ok {
			return nil
		}
		a, ok := b.colAccess(c)
		if !ok || a.lvl != lvl || a.kind != KindInt {
			return nil
		}
		slot, err := checkSlot(v.Slot)
		if err != nil {
			return nil
		}
		return vecParamIDs(a, slot)
	case InList:
		c, ok := v.E.(ColRef)
		if !ok {
			return nil
		}
		a, ok := b.colAccess(c)
		if !ok || a.lvl != lvl {
			return nil
		}
		in := b.newIn(v.Vals, a.kind)
		switch {
		case in == nil:
			return nil
		case a.kind == KindInt:
			return vecInInt(a, in, v.Negate)
		case a.dictOf() != nil:
			return vecDictIn(a, in, v.Negate)
		}
		return vecInStr(a, in, v.Negate)
	}
	return nil
}

// isColAt reports whether e is a column reference resolving to level lvl.
func (b *binding) isColAt(lvl int, e Expr) bool {
	c, ok := e.(ColRef)
	if !ok {
		return false
	}
	clvl, _, err := b.resolve(c)
	return err == nil && clvl == lvl
}
