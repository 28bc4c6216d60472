package relational

import (
	"strings"
	"sync/atomic"
)

// This file is the vectorized executor's dictionary-encoding support:
// predicates over dict-encoded string columns compare int32 codes (or a
// per-code boolean table) instead of full strings. Codes are first-seen
// ordered, not string-ordered, so equality shapes map a literal to its
// code once per batch, and every other shape (ordered comparisons, LIKE,
// IN) evaluates the predicate once per distinct dictionary value and then
// filters rows through the resulting code table.

// codeVec fetches a dict column's code vector, bitmap, and decode slice at
// filter time (cached plans outlive appends, so nothing is captured at
// plan time; see intVec/strVec). The decode slice stands in for the
// dictionary itself: a snapshot-pinned execution reads the frozen dvals
// header, never the live dictionary's growing vals slice or code map, so
// code resolution below scans the slice instead of probing the map.
func codeVec(a colAccess, st *execState) ([]int32, bitmap, []string) {
	c := &st.tabs[a.lvl].cols[a.col]
	return c.codes, c.null, c.dictVals()
}

// noCode is a sentinel that matches no row: real codes are non-negative,
// so filterEq with noCode selects nothing and filterNe selects every
// non-NULL row — exactly the semantics of comparing against a value the
// dictionary has never seen.
const noCode int32 = -1

// vecDictEq builds the kernels for "dictcol = constant" / "dictcol <>
// constant": the constant resolves to its code per batch (the dictionary
// may have grown since the last batch), then the typed int32 kernels run.
// The resolution is a linear scan over the decode slice — dict columns
// are low-cardinality by design, the scan runs once per batch, and unlike
// the dictionary's code map it is safe against a concurrently interning
// writer.
func vecDictEq(a colAccess, op string, k operand) *vecPred {
	codeOf := func(st *execState, vals []string) int32 {
		s := k.get(st).S
		for i, v := range vals {
			if v == s {
				return int32(i)
			}
		}
		return noCode
	}
	return &vecPred{
		filterSel: func(st *execState, sel, dst []int32) []int32 {
			codes, nb, vals := codeVec(a, st)
			return filterCmp(codes, nb, op, codeOf(st, vals), sel, dst)
		},
		filterRange: func(st *execState, lo, hi int32, dst []int32) []int32 {
			codes, nb, vals := codeVec(a, st)
			return filterCmpRange(codes, nb, op, codeOf(st, vals), lo, hi, dst)
		},
	}
}

// codeTable is one cached evaluation of a predicate over the dictionary:
// pass[code] holds the predicate's verdict for that distinct value under
// the constants key (the predicate's operand values it was computed
// with). It is rebuilt when the dictionary has grown past n (new values
// appended by live ingestion) or an execution binds other constants, and
// shared across concurrent executions through an atomic pointer.
type codeTable struct {
	n    int
	key  []Value
	pass []bool
}

// keyed reports whether the table was computed with the constants ops
// take in execution st.
func (t *codeTable) keyed(ops []operand, st *execState) bool {
	for i, o := range ops {
		if t.key[i] != o.get(st) {
			return false
		}
	}
	return true
}

// vecDictTable builds the kernels for predicate shapes evaluated per
// distinct value: passFor fills pass[i] with the verdict for vals[i]
// under the constants ops take in execution st, and keepNull states
// whether NULL rows survive (the engine's NULL-sorts-first convention for
// < and <=, NOT IN semantics for negated lists). The cache is keyed by
// those constants, so two executions binding different values never read
// each other's verdicts, and monotone in the dictionary: pass[i] depends
// only on vals[i] and vals is append-only, so a table built for a longer
// decode slice serves every shorter (older snapshot) execution — its
// extra entries simply go unread, since every code in an older column is
// below that snapshot's vals length.
func vecDictTable(a colAccess, keepNull bool, ops []operand, passFor func(st *execState, vals []string, pass []bool)) *vecPred {
	var cache atomic.Pointer[codeTable]
	table := func(st *execState, vals []string) []bool {
		n := len(vals)
		if t := cache.Load(); t != nil && t.n >= n && t.keyed(ops, st) {
			return t.pass
		}
		pass := make([]bool, n)
		passFor(st, vals, pass)
		key := make([]Value, len(ops))
		for i, o := range ops {
			key[i] = o.get(st)
		}
		cache.Store(&codeTable{n: n, key: key, pass: pass})
		return pass
	}
	return &vecPred{
		filterSel: func(st *execState, sel, dst []int32) []int32 {
			codes, nb, vals := codeVec(a, st)
			return filterCodeTable(codes, nb, table(st, vals), keepNull, sel, dst)
		},
		filterRange: func(st *execState, lo, hi int32, dst []int32) []int32 {
			codes, nb, vals := codeVec(a, st)
			return filterCodeTableRange(codes, nb, table(st, vals), keepNull, lo, hi, dst)
		},
	}
}

func filterCodeTable(codes []int32, nb bitmap, pass []bool, keepNull bool, sel, dst []int32) []int32 {
	if len(nb) == 0 {
		for _, r := range sel {
			if pass[codes[r]] {
				dst = append(dst, r)
			}
		}
		return dst
	}
	for _, r := range sel {
		if nullAt(nb, r) {
			if keepNull {
				dst = append(dst, r)
			}
			continue
		}
		if pass[codes[r]] {
			dst = append(dst, r)
		}
	}
	return dst
}

func filterCodeTableRange(codes []int32, nb bitmap, pass []bool, keepNull bool, lo, hi int32, dst []int32) []int32 {
	if len(nb) == 0 {
		for r := lo; r < hi; r++ {
			if pass[codes[r]] {
				dst = append(dst, r)
			}
		}
		return dst
	}
	for r := lo; r < hi; r++ {
		if nullAt(nb, r) {
			if keepNull {
				dst = append(dst, r)
			}
			continue
		}
		if pass[codes[r]] {
			dst = append(dst, r)
		}
	}
	return dst
}

// vecDictCmp routes "dictcol OP constant" to the right dict kernel: codes
// for equality shapes, a code table for ordered comparisons (codes carry
// no string order).
func vecDictCmp(a colAccess, op string, k operand) *vecPred {
	switch op {
	case "=", "<>":
		return vecDictEq(a, op, k)
	default: // "<", "<=", ">", ">="
		keepNull := op == "<" || op == "<="
		return vecDictTable(a, keepNull, []operand{k}, func(st *execState, vals []string, pass []bool) {
			s := k.get(st).S
			for i, v := range vals {
				pass[i] = cmpHolds(op, strings.Compare(v, s))
			}
		})
	}
}

// vecDictLike builds the kernel for "dictcol LIKE pattern": the pattern
// (compiled per execution into execState.likes) runs once per distinct
// value instead of once per row.
func vecDictLike(a colAccess, pat operand, like *likeOp) *vecPred {
	return vecDictTable(a, false, []operand{pat}, func(st *execState, vals []string, pass []bool) {
		m := &st.likes[like.idx]
		for i, v := range vals {
			pass[i] = m.match(v)
		}
	})
}

// vecDictIn builds the kernel for "dictcol [NOT] IN (constants...)". A
// NULL cell is a member of nothing: it passes exactly when the list is
// negated.
func vecDictIn(a colAccess, in *inList, negate bool) *vecPred {
	return vecDictTable(a, negate, in.ops, func(st *execState, vals []string, pass []bool) {
		keys := st.ins[in.idx].strs
		for i, v := range vals {
			pass[i] = containsSorted(keys, v) != negate
		}
	})
}
