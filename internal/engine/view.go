package engine

// This file is the incremental materialized-view layer behind standing
// queries: every compiled pattern keeps a cached set of its match rows
// inside the engine plan cache, maintained incrementally as the store
// grows. Stores are append-only, so a view only ever receives insert
// deltas: new rows are found by running the pattern's events-anchored
// catch-up plan with an "e.id >= frontier" floor (O(new events) thanks to
// the relational scan-floor and the graph edge-suffix fast path) and
// merged into the cached set. ExecuteDelta then joins a delta pattern's
// fresh rows against the other patterns' materialized sets — read through
// sorted-ID binding intersection — instead of re-running their data
// queries, which makes a standing-query round O(delta) end to end.
//
// Window-insensitive views migrate across a bounds-epoch recompile
// untouched. Window-sensitive patterns ride the plan-invalidation
// machinery: LAST windows slide their frontier — the old view keeps its
// rows minus those below the new lower bound (see migrateSensitiveView) —
// while BEFORE/AFTER windows rematerialize from scratch. Total
// materialized rows are capped by Engine.ViewHighWater: a query that would
// exceed the cap falls back to the recompute path.

import (
	"context"
	"sort"

	"threatraptor/internal/qir"
	"threatraptor/internal/relational"
	"threatraptor/internal/tbql"
)

// DefaultViewHighWater is the default cap on materialized view rows
// across the whole engine (one row is five int64s plus index entries —
// the default bounds view memory to a few tens of MB).
const DefaultViewHighWater = 1 << 20

// ViewStats counts materialized-view activity since the engine started.
type ViewStats struct {
	// Materializations counts full (from-scratch) view builds.
	Materializations int64
	// DeltaMerges counts incremental catch-up merges into existing views.
	DeltaMerges int64
	// Fallbacks counts ExecuteDelta rounds that used the recompute path
	// because a view was disabled by the ViewHighWater cap.
	Fallbacks int64
	// CachedRows is the current total of materialized rows.
	CachedRows int64
	// CatchupSkips counts catch-up data queries skipped because the
	// delta's batch op bitmap didn't intersect the pattern's operations.
	CatchupSkips int64
	// WindowMigrations counts LAST-window views carried across a
	// bounds-epoch recompile by sliding their frontier (evicting the rows
	// that fell below the new lower bound) instead of rematerializing.
	WindowMigrations int64
}

// Views reports the engine's materialized-view counters.
func (en *Engine) Views() ViewStats {
	return ViewStats{
		Materializations: en.viewMaterializations.Load(),
		DeltaMerges:      en.viewDeltaMerges.Load(),
		Fallbacks:        en.viewFallbacks.Load(),
		CachedRows:       en.viewRows.Load(),
		CatchupSkips:     en.viewCatchupSkips.Load(),
		WindowMigrations: en.viewWindowMigrations.Load(),
	}
}

// viewCap resolves the effective row cap: Engine.ViewHighWater, the
// default when zero, disabled entirely when negative.
func (en *Engine) viewCap() int {
	if en.ViewHighWater != 0 {
		return en.ViewHighWater
	}
	return DefaultViewHighWater
}

// reserveViewRows charges n rows against the cap; false means the cap
// would be exceeded and the caller must disable its view.
func (en *Engine) reserveViewRows(n int) bool {
	cap64 := int64(en.viewCap())
	for {
		cur := en.viewRows.Load()
		if cur+int64(n) > cap64 {
			return false
		}
		if en.viewRows.CompareAndSwap(cur, cur+int64(n)) {
			return true
		}
	}
}

func (en *Engine) releaseViewRows(n int) {
	if n > 0 {
		en.viewRows.Add(-int64(n))
		// Headroom appeared: fallen-back plans may retry materialization
		// on their next round (they compare this generation against the
		// one they fell back under).
		en.viewReleaseGen.Add(1)
	}
}

// matView is one pattern's materialized match cache: every row the
// pattern's data query matches over the current store, sorted by event ID
// (rows carry [event, subject, object, start, end]; a pattern matches each
// event at most once, so event ID is a unique sort key), plus hash indexes
// from subject and object entity ID to row positions for the binding-set
// reads the scheduler does during a delta join.
type matView struct {
	rows    [][5]int64
	subjIdx map[int64][]int32
	objIdx  map[int64][]int32
	// upTo is the exclusive event-ID frontier: rows cover every event with
	// ID < upTo. Zero means not yet materialized.
	upTo int64
}

// retained reports how many rows the view holds against the engine cap.
func (v *matView) retained() int {
	if v == nil {
		return 0
	}
	return len(v.rows)
}

// indexRows adds rows[from:] to the subject/object indexes.
func (v *matView) indexRows(from int) {
	if v.subjIdx == nil {
		v.subjIdx = make(map[int64][]int32, len(v.rows)-from)
		v.objIdx = make(map[int64][]int32, len(v.rows)-from)
	}
	for i := from; i < len(v.rows); i++ {
		r := &v.rows[i]
		v.subjIdx[r[1]] = append(v.subjIdx[r[1]], int32(i))
		v.objIdx[r[2]] = append(v.objIdx[r[2]], int32(i))
	}
}

// evictBelow drops rows whose bound event's start_time (row column 3)
// fell below lo and rebuilds the positional indexes (row positions shift
// with the compaction). Rows stay sorted by event ID. Returns how many
// rows were evicted.
func (v *matView) evictBelow(lo int64) int {
	kept := v.rows[:0]
	for _, r := range v.rows {
		if r[3] >= lo {
			kept = append(kept, r)
		}
	}
	evicted := len(v.rows) - len(kept)
	if evicted == 0 {
		return 0
	}
	v.rows = kept
	v.subjIdx, v.objIdx = nil, nil
	v.indexRows(0)
	return evicted
}

// migrateSensitiveView tries to carry a window-sensitive pattern's view
// across a bounds-epoch recompile instead of releasing it for a full
// rematerialization. Only LAST windows on event patterns qualify: in an
// append-only store a LAST window slides monotonically — the upper bound
// tracks the store max, which no retained row exceeds (every covered
// event predates the old max), and the lower bound only ascends — so the
// old rows minus those below the new lower bound are exactly the new
// window's matches up to the old frontier, and the ordinary catch-up from
// upTo covers the rest under the new bounds. BEFORE/AFTER windows (whose
// sensitive bound is the store min/max edge) keep the conservative
// release-and-rematerialize path, as do graph patterns, whose window
// constrains the path's final hop rather than the row's own event.
// Returns nil when the view cannot migrate.
func (en *Engine) migrateSensitiveView(old *patternPlan, b timeBounds) *matView {
	v := old.view
	w := old.ir.Window()
	if v == nil || v.upTo == 0 || w.Kind != qir.WindLast || old.meta.UsesGraph {
		return nil
	}
	lo, _ := w.Bounds(b.min, b.max)
	en.releaseViewRows(v.evictBelow(lo))
	en.viewWindowMigrations.Add(1)
	return v
}

// since returns the suffix of rows whose event ID is >= floor (no copy —
// rows are sorted by event ID).
func (v *matView) since(floor int64) [][5]int64 {
	i := sort.Search(len(v.rows), func(i int) bool { return v.rows[i][0] >= floor })
	return v.rows[i:]
}

// filter returns the view rows whose subject/object IDs lie in the given
// sorted binding sets (nil = unconstrained; both nil returns the full set
// without copying). The read drives from the smaller bound set through
// the matching hash index — the sorted-ID analogue of the scheduler
// feeding binding sets into a data query's index multi-probe — and checks
// the other side by binary search in its sorted set. buf backs the output.
func (v *matView) filter(subj, obj []int64, buf [][5]int64) [][5]int64 {
	if subj == nil && obj == nil {
		return v.rows
	}
	drive, idx := subj, v.subjIdx
	other, otherCol := obj, 2
	if subj == nil || (obj != nil && len(obj) < len(subj)) {
		drive, idx = obj, v.objIdx
		other, otherCol = subj, 1
	}
	out := buf[:0]
	for _, id := range drive {
		for _, ri := range idx[id] {
			r := v.rows[ri]
			if other != nil && !relational.ContainsSortedInt64(other, r[otherCol]) {
				continue
			}
			out = append(out, r)
		}
	}
	return out
}

// sortRowsByEvent sorts pattern rows by their event ID.
func sortRowsByEvent(rows [][5]int64) {
	sort.Slice(rows, func(a, b int) bool { return rows[a][0] < rows[b][0] })
}

// disablePlanViewsLocked drops every view of the plan and marks the
// whole query fallen back: once one pattern cannot hold a view, the
// view-backed join can never run, so maintaining (and charging) the
// others would be pure waste. DropViews re-arms the plan. Callers hold
// plan.viewMu.
func (en *Engine) disablePlanViewsLocked(plan *queryPlan) {
	for i := range plan.pats {
		if v := plan.pats[i].view; v != nil {
			en.releaseViewRows(v.retained())
			plan.pats[i].view = nil
		}
	}
	plan.viewsDisabled = true
	plan.disabledGen = en.viewReleaseGen.Load()
}

// ensureViews brings every pattern's view up to the pinned snapshot's
// event frontier, materializing on first use and catch-up-merging
// afterwards. The frontier is the snapshot's NextEventID — NOT the live
// store's: reading the live frontier while an append is publishing would
// let a view claim coverage of events its bounded catch-up query (which
// scans only the snapshot) never saw, silently losing those rows from
// every later round. It returns false when the row cap is crossed — the
// plan's views are then dropped wholesale and the caller evaluates through
// the recompute path. Stats from the catch-up data queries accumulate into
// st. Callers hold plan.viewMu.
func (en *Engine) ensureViews(ctx context.Context, a *tbql.Analyzed, snap *Snapshot, plan *queryPlan, st *Stats) (bool, error) {
	next := snap.NextEventID
	for idx := range plan.pats {
		pp := &plan.pats[idx]
		v := pp.view
		if v == nil {
			v = &matView{}
			pp.view = v
		}
		if v.upTo >= next {
			continue
		}
		q := PatternQuery{Idx: idx}
		if v.upTo > 0 {
			// A catch-up query can only add rows whose bound event lies
			// in [upTo, next); if no event in that delta carries one of
			// the pattern's operations, the result is empty by
			// construction — advance the frontier without running it.
			if snap.OpMaskBetween(v.upTo, next)&pp.meta.OpMask == 0 {
				v.upTo = next
				en.viewCatchupSkips.Add(1)
				continue
			}
			q.Delta = v.upTo
		}
		pr, qst, err := en.runPattern(ctx, a, plan, snap, q)
		if err != nil {
			return false, err
		}
		st.Add(qst)
		if !pr.HasEvent || !en.reserveViewRows(len(pr.Rows)) {
			// !HasEvent is defensive: a view without event IDs cannot
			// maintain its frontier (ExecuteDelta's var-len fallback
			// should make it unreachable). Either way the query falls
			// back to recompute as a whole.
			en.disablePlanViewsLocked(plan)
			return false, nil
		}
		sortRowsByEvent(pr.Rows)
		if v.upTo == 0 {
			v.rows = pr.Rows
			v.indexRows(0)
			en.viewMaterializations.Add(1)
		} else {
			fresh := len(v.rows)
			v.rows = append(v.rows, pr.Rows...)
			v.indexRows(fresh)
			en.viewDeltaMerges.Add(1)
		}
		v.upTo = next
	}
	return true, nil
}

// deltaViews is the materialized-view delta round: the views catch up to
// the snapshot frontier, then the delta rule runs over a row source that
// reads them instead of issuing data queries — the delta pattern's fresh
// rows are its view's suffix from the floor (it is hoisted first, so no
// binding set constrains it), and every other pattern's cached set is read
// through the binding feed. Returns ok=false when a view is capped and the
// rule must run over the engine's data queries instead.
func (en *Engine) deltaViews(ctx context.Context, a *tbql.Analyzed, plan *queryPlan, snap *Snapshot, sc *loopScratch, minEventID int64) (*Result, Stats, bool, error) {
	var stats Stats
	plan.viewMu.Lock()
	defer plan.viewMu.Unlock()
	if plan.viewsDisabled {
		if en.viewReleaseGen.Load() == plan.disabledGen {
			en.viewFallbacks.Add(1)
			return nil, stats, false, nil
		}
		// Rows were released since the fallback (another query dropped
		// its views): re-arm and retry materialization.
		plan.viewsDisabled = false
	}
	viewsOK, err := en.ensureViews(ctx, a, snap, plan, &stats)
	if err != nil {
		return nil, stats, false, err
	}
	if !viewsOK {
		en.viewFallbacks.Add(1)
		return nil, stats, false, nil
	}
	res, st, err := en.deltaRule(ctx, a, plan, snap, func(_ context.Context, q PatternQuery) (PatternRows, Stats, error) {
		v := plan.pats[q.Idx].view
		rows := v.rows
		switch {
		case q.Delta > 0:
			rows = v.since(q.Delta)
		case q.Subj != nil || q.Obj != nil:
			rows = v.filter(q.Subj, q.Obj, sc.bufs[q.Idx][:0])
			sc.bufs[q.Idx] = rows[:0:cap(rows)] // retain the grown buffer
		}
		return PatternRows{Idx: q.Idx, Rows: rows, HasEvent: true}, Stats{PatternRows: len(rows)}, nil
	}, sc, minEventID)
	stats.Add(st)
	return res, stats, err == nil, err
}
