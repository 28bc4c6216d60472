package relational

// Adaptive hash-join fallback for deep unindexed joins. A nested-loop
// level whose join-equality column has no hash index degrades to a full
// inner scan per outer binding — O(outer x inner). When the planner finds
// an equality conjunct "inner.col = <earlier-level expression>" on such a
// level, it records a hashJoin candidate; execution stays on the scan
// path until the level has been entered HashJoinMinProbes times over an
// inner table of at least HashJoinMinRows rows, then builds a transient
// hash table over the join column once and probes it for every further
// outer binding.
//
// The fallback is strictly an access-path change: the probed positions
// still run through every level predicate (including the join conjunct
// itself), so filter semantics are untouched, and a bucket's positions
// are appended in row order, so emitted rows keep the exact order of the
// serial scan. Probes happen only when the runtime key's kind equals the
// column kind; mixed-kind keys (which the generic evaluator compares with
// numeric-string leniency) fall back to the scan for that binding.

var (
	// HashJoinMinRows is the minimum inner-table size before a level
	// builds a join hash table; smaller tables scan faster than they hash.
	HashJoinMinRows = 2048
	// HashJoinMinProbes is how many times a level must be entered in one
	// execution before the build triggers: the build costs a full pass, so
	// it must be amortized over many outer bindings.
	HashJoinMinProbes = 16
)

// hashJoin is one level's compiled join-equality candidate.
type hashJoin struct {
	col   int
	kind  Kind
	keyFn evalFn
}

// hashJoinTable maps the inner column's values to their row positions
// (ascending within each bucket). Exactly one map is set, per the column
// kind.
type hashJoinTable struct {
	ints map[int64][]int32
	strs map[string][]int32
}

// planHashJoin finds an equality conjunct usable as a hash-join key on a
// full-scanned level: "lvl.col = expr" (either orientation) where expr
// reads only earlier levels. Conjuncts with a runtime activity gate are
// skipped — probing an inactive equality would wrongly constrain the
// level.
func (b *binding) planHashJoin(lvl int, preds []Expr) *hashJoin {
	if lvl == 0 {
		return nil // level 0 runs once; there is nothing to amortize
	}
	for _, e := range preds {
		bin, ok := e.(BinOp)
		if !ok || bin.Op != "=" || pruneGate(e) != nil {
			continue
		}
		try := func(colSide, keySide Expr) *hashJoin {
			c, ok := colSide.(ColRef)
			if !ok {
				return nil
			}
			clvl, ccol, err := b.resolve(c)
			if err != nil || clvl != lvl {
				return nil
			}
			kind := b.tables[lvl].Schema[ccol].Kind
			if kind != KindInt && kind != KindString {
				return nil
			}
			keyLvl, err := b.deepestLevel(keySide)
			if err != nil || keyLvl >= lvl {
				return nil // the key must read only earlier levels
			}
			if hasParamIDs(keySide) {
				return nil // evaluates to a membership bool, not a key
			}
			keyFn, err := b.compileEval(keySide)
			if err != nil {
				return nil
			}
			return &hashJoin{col: ccol, kind: kind, keyFn: keyFn}
		}
		if hj := try(bin.L, bin.R); hj != nil {
			return hj
		}
		if hj := try(bin.R, bin.L); hj != nil {
			return hj
		}
	}
	return nil
}

func hasParamIDs(e Expr) bool {
	switch v := e.(type) {
	case ParamIDs:
		return true
	case BinOp:
		return hasParamIDs(v.L) || hasParamIDs(v.R)
	case UnOp:
		return hasParamIDs(v.E)
	case InList:
		if hasParamIDs(v.E) {
			return true
		}
		for _, x := range v.Vals {
			if hasParamIDs(x) {
				return true
			}
		}
	}
	return false
}

// hashJoinLevel tries to serve level lvl with a hash probe. used reports
// whether the level was fully handled (the caller skips the scan path);
// used == false with a nil error means the scan path must run — the
// thresholds have not tripped, or this binding's key kind does not match
// the column (generic equality leniency applies only on the scan path).
func (p *plan) hashJoinLevel(st *execState, sink *rowSink, lvl int, hj *hashJoin) (bool, error) {
	ht := st.hjTabs[lvl]
	if ht == nil {
		st.visits[lvl]++
		if int(st.visits[lvl]) < HashJoinMinProbes {
			return false, nil
		}
		tbl := st.tabs[lvl]
		if tbl.Len() < HashJoinMinRows {
			return false, nil
		}
		if len(p.floors[lvl]) > 0 && p.scanStart(st, lvl) > 0 {
			// An active scan floor already narrows the level to a suffix
			// (delta evaluation); hashing the whole history would cost more
			// than every remaining suffix scan combined.
			return false, nil
		}
		ht = buildHashJoinTable(tbl, hj)
		st.hjTabs[lvl] = ht
		st.stats.HashJoinBuilds++
		st.stats.RowsScanned += tbl.Len() // the build's one full pass
	}
	key, err := hj.keyFn(st)
	if err != nil {
		return true, err
	}
	var pos []int32
	switch hj.kind {
	case KindInt:
		if key.K != KindInt {
			if key.K == KindNull {
				return true, nil // NULL equals nothing; no rows to visit
			}
			return false, nil // mixed kinds: scan keeps Equal's leniency
		}
		pos = ht.ints[key.I]
	default:
		if key.K != KindString {
			if key.K == KindNull {
				return true, nil
			}
			return false, nil
		}
		pos = ht.strs[key.S]
	}
	st.stats.IndexLookups++
	st.stats.RowsScanned += len(pos)
	if len(pos) == 0 {
		return true, nil
	}
	return true, p.feedPositions(st, sink, lvl, pos)
}

// buildHashJoinTable makes one pass over the join column, bucketing row
// positions by value (NULL rows match no equality and are skipped).
// Dictionary-encoded columns bucket by code first — one small-map insert
// per row and one decode per distinct value, not per row.
func buildHashJoinTable(tbl *Table, hj *hashJoin) *hashJoinTable {
	n := tbl.Len()
	c := &tbl.cols[hj.col]
	ht := &hashJoinTable{}
	isNull := func(r int) bool { return len(c.null) > r>>6 && c.null.get(r) }
	if hj.kind == KindInt {
		ht.ints = make(map[int64][]int32, n/2)
		for r := 0; r < n; r++ {
			if isNull(r) {
				continue
			}
			k := c.ints[r]
			ht.ints[k] = append(ht.ints[k], int32(r))
		}
		return ht
	}
	if c.dict != nil {
		vals := c.dictVals()
		byCode := make(map[int32][]int32, 64)
		for r := 0; r < n; r++ {
			if isNull(r) {
				continue
			}
			code := c.codes[r]
			byCode[code] = append(byCode[code], int32(r))
		}
		ht.strs = make(map[string][]int32, len(byCode))
		for code, pos := range byCode {
			ht.strs[vals[code]] = pos
		}
		return ht
	}
	ht.strs = make(map[string][]int32, n/2)
	for r := 0; r < n; r++ {
		if isNull(r) {
			continue
		}
		s := c.strs[r]
		ht.strs[s] = append(ht.strs[s], int32(r))
	}
	return ht
}
