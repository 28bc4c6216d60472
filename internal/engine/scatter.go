package engine

// This file is the engine's scatter surface: what a coordinator needs to
// run one query across several stores (see internal/shard). A sharded
// execution keeps the whole scheduled plan at the coordinator's engine
// (ExecuteSource / ExecuteDeltaSource run the one loop over the global
// snapshot) and scatters only the per-pattern data queries, so exactly
// that seam is exported: the loop hands its RowSource a PatternQuery
// carrying the pattern's PatternMeta — the routing-relevant shape (op
// mask, window) the coordinator prunes shards with — and
// ScatterPattern runs the query against one shard's pinned snapshot.

import (
	"context"
	"sort"

	"threatraptor/internal/qir"
	"threatraptor/internal/tbql"
)

// snapEdgeFloor translates a global event-ID delta floor into the
// snapshot's dense edge-arena floor: edges are appended one per event in
// ID order, so arena offset i (1-based) holds the snapshot's i-th event.
// For a store holding the dense 1..n ID space this is the identity.
func snapEdgeFloor(snap *Snapshot, delta int64) int64 {
	if snap == nil || delta <= 0 {
		return delta
	}
	i := sort.Search(len(snap.Events), func(i int) bool { return snap.Events[i].ID >= delta })
	return int64(i) + 1
}

// ScatterPattern executes one data query of a against the pinned snapshot
// — one shard's share of a scattered data query. The snapshot must belong
// to this engine's store; binding-set and delta parameters carry global
// entity and event IDs (shards store global IDs, so no remapping happens
// anywhere).
func (en *Engine) ScatterPattern(ctx context.Context, a *tbql.Analyzed, snap *Snapshot, q PatternQuery) (res PatternRows, stats Stats, err error) {
	defer guard(a, &err)
	return en.runPattern(ctx, a, en.planFor(a, snap, false), snap, q, nil) // the merge keeps the rows
}

// PatternMeta is the routing-relevant shape of one pattern: everything a
// scatter coordinator needs to decide which shards the pattern's data
// query can possibly match on.
type PatternMeta struct {
	// OpMask is the OR of the op-code bits the pattern's bound event can
	// take (^0 when unconstrained); a shard whose stored ops don't
	// intersect it cannot contribute a row.
	OpMask uint32
	// Window is the pattern's time window (nil = unwindowed). Resolve its
	// bounds against the GLOBAL min/max; shards whose local time bounds
	// miss the resolved range are pruned.
	Window *qir.Window
	// UsesGraph marks graph-lowered (path) patterns.
	UsesGraph bool
	// VarLen marks variable-length paths (MinLen/MaxLen != 1); their
	// flows can cross arbitrarily many events, but each flow stays within
	// one store's adjacency.
	VarLen bool
}

// patternMeta derives a pattern's routing metadata from its lowered IR.
func patternMeta(ir *qir.DataQuery) PatternMeta {
	m := PatternMeta{OpMask: patternOpMask(ir), Window: ir.Window(), UsesGraph: ir.UsesGraph()}
	if ir.Path != nil {
		m.VarLen = ir.Path.MinLen != 1 || ir.Path.MaxLen != 1
	}
	return m
}
