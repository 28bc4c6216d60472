package shard

// Scatter-gather execution. A hunt runs the single-store scheduled plan on
// the coordinator's global engine — the pruning-score pattern order, the
// binding-set feed between patterns, the final cross-pattern join, and the
// delta rule are engine.ExecuteSource / ExecuteDeltaSource over the global
// snapshot — and this package supplies only the row source: each pattern's
// data query runs concurrently against the pinned snapshots of exactly the
// partitions its window and op mask can touch, and the gathered rows
// merge in global event-ID order before feeding the next pattern's
// bindings. The merged order is a pure function of the data, so results
// are identical across shard counts and slice widths.

import (
	"context"
	"sort"
	"sync"

	"threatraptor/internal/engine"
	"threatraptor/internal/tbql"
)

// Execute runs an analyzed query scatter-gather against the latest
// published View. Results equal the unsharded engine's on the same data
// (row order may differ; scattered rows merge in event-ID order).
func (s *Store) Execute(ctx context.Context, a *tbql.Analyzed) (*engine.Result, engine.Stats, error) {
	v := s.View()
	return s.globalEngine.ExecuteSource(ctx, a, v.Global, s.scatter(a, v))
}

// ExecuteDelta evaluates a query incrementally after an append: complete
// bindings using at least one event with ID >= minEventID, by the engine's
// delta rule over scattered data queries. The delta pattern's scatter is
// pruned to partitions whose event-ID frontier passed the floor, so a
// small batch routed to one partition costs one shard-local probe plus
// whatever its bindings no longer prune away. A variable-length path routes
// to the global store, whose traversal takes the floor on the path's turn
// (a trail through a new edge), exactly like the unsharded engine.
func (s *Store) ExecuteDelta(ctx context.Context, a *tbql.Analyzed, minEventID int64) (*engine.Result, engine.Stats, error) {
	v := s.View()
	return s.globalEngine.ExecuteDeltaSource(ctx, a, v.Global, minEventID, s.scatter(a, v))
}

// DropViews implements the stream backend surface. Partitions never
// materialize views: sharded standing-query rounds run the scattered
// recompute plan (a partition-local view would miss cross-shard bindings).
// What a removed standing query still holds is its pinned plan in the
// global engine's cache.
func (s *Store) DropViews(a *tbql.Analyzed) { s.globalEngine.DropViews(a) }

// target is one store a pattern's data query scatters to.
type target struct {
	en    *engine.Engine
	snap  *engine.Snapshot
	shard int // -1: the global store
}

// route selects the stores pattern m's data query must visit on view v.
// Every prune is sound: a dropped partition provably holds no matching
// row, so the union over the selected targets equals the global match
// set. delta > 0 is the pattern's event-ID floor for this round.
func (s *Store) route(v *View, m *engine.PatternMeta, delta int64) []target {
	if m.VarLen {
		// A variable-length flow chains events across partitions
		// (consecutive hops land in whichever slices their events start
		// in); only the global adjacency sees whole flows.
		return []target{{en: s.globalEngine, snap: v.Global, shard: -1}}
	}
	var lo, hi int64
	if m.Window != nil {
		lo, hi = m.Window.Bounds(v.Global.MinTime, v.Global.MaxTime)
	}
	out := make([]target, 0, len(s.shards))
	for i := range s.shards {
		st := &v.Stats[i]
		if st.Events == 0 {
			continue
		}
		if delta > 0 && st.NextEventID <= delta {
			continue // no event at or past the floor
		}
		if m.OpMask != ^uint32(0) && st.OpMask&m.OpMask == 0 {
			continue // none of the pattern's operations ever routed here
		}
		if m.Window != nil && (st.MaxTime < lo || st.MinTime > hi) {
			continue // every event here lies wholly outside the window
		}
		out = append(out, target{en: s.shards[i].engine, snap: v.Shards[i], shard: i})
	}
	return out
}

// scatter is the coordinator's row source over view v: each data query of
// the scheduled plan routes to the partitions that can hold a match and
// fans out there. A query every partition pruned away gathers no rows —
// the pattern matches nothing, which empties the whole conjunction.
func (s *Store) scatter(a *tbql.Analyzed, v *View) engine.RowSource {
	return func(ctx context.Context, q engine.PatternQuery) (engine.PatternRows, engine.Stats, error) {
		targets := s.route(v, q.Meta, q.Delta)
		if len(targets) == 1 && targets[0].shard < 0 {
			s.globalRouted.Add(1)
		} else {
			s.fanout[len(targets)].Add(1)
		}
		return scatterPattern(ctx, a, targets, q)
	}
}

// scatterPattern fans one pattern's data query out to its targets and
// merges the gathered rows in global event-ID order.
func scatterPattern(ctx context.Context, a *tbql.Analyzed, targets []target, q engine.PatternQuery) (engine.PatternRows, engine.Stats, error) {
	type outcome struct {
		pr  engine.PatternRows
		st  engine.Stats
		err error
	}
	outs := make([]outcome, len(targets))
	if len(targets) == 1 {
		t := targets[0]
		o := &outs[0]
		o.pr, o.st, o.err = t.en.ScatterPattern(ctx, a, t.snap, q)
	} else {
		var wg sync.WaitGroup
		for i, t := range targets {
			wg.Add(1)
			go func(i int, t target) {
				defer wg.Done()
				// ScatterPattern recovers its own panics into typed errors,
				// so nothing unwinds past this goroutine.
				o := &outs[i]
				o.pr, o.st, o.err = t.en.ScatterPattern(ctx, a, t.snap, q)
			}(i, t)
		}
		wg.Wait()
	}

	merged := engine.PatternRows{Idx: q.Idx}
	var stats engine.Stats
	for i := range outs {
		o := &outs[i]
		if o.err != nil {
			return merged, stats, o.err
		}
		merged.HasEvent = o.pr.HasEvent
		merged.Rows = append(merged.Rows, o.pr.Rows...)
		stats.Add(o.st)
	}
	if merged.HasEvent {
		// Event-bearing rows merge in global event-ID order (IDs are
		// unique per row), making the gathered order — and everything the
		// join derives from it — independent of shard count, slice width,
		// and scatter timing. Variable-length-path rows (no event column)
		// come from the single global target in its native order.
		sort.Slice(merged.Rows, func(i, j int) bool {
			ri, rj := &merged.Rows[i], &merged.Rows[j]
			for c := 0; c < 5; c++ {
				if ri[c] != rj[c] {
					return ri[c] < rj[c]
				}
			}
			return false
		})
	}
	return merged, stats, nil
}
