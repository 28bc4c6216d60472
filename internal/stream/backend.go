package stream

import (
	"context"

	"threatraptor/internal/audit"
	"threatraptor/internal/engine"
	"threatraptor/internal/segment"
	"threatraptor/internal/tactical"
	"threatraptor/internal/tbql"
)

// Backend is the storage-and-execution surface a Session drives: the
// single engine store (the default, via New) or a sharded store
// coordinator (internal/shard, via NewWithBackend). The session's own
// logic — parsing, watermarked reduction, replay on failed appends,
// standing-query dedup/quarantine, tactical rounds — is identical over
// both; only where appends land and how queries execute differs.
//
// AppendBatch is called under the session's write lock; the query methods
// must be safe to call concurrently with an append, which both
// implementations get by pinning published snapshots. The entity table,
// event-ID frontier and tactical source are the global store's; the
// session derives them from GlobalStore.
type Backend interface {
	// GlobalStore returns the authoritative store: the store itself for
	// the engine backend, the global (unsharded-equivalent) store for a
	// sharded one. Snapshot readers (provenance, fuzzy, debug) use it.
	GlobalStore() *engine.Store
	// AppendBatch appends one sealed batch atomically (all stores move,
	// or none).
	AppendBatch(entities []*audit.Entity, events []audit.Event) error
	// Hunt parses, analyzes, and executes TBQL source.
	Hunt(ctx context.Context, src string) (*engine.Result, engine.Stats, error)
	// ExecuteDelta evaluates a standing query against an appended delta:
	// the complete bindings that use at least one event with ID >=
	// minEventID (see engine.Engine.ExecuteDelta). It is a standing
	// query's only evaluation — Watch runs nothing over history.
	ExecuteDelta(ctx context.Context, a *tbql.Analyzed, minEventID int64) (*engine.Result, engine.Stats, error)
	// DropViews releases any per-query match caches (no-op backends ok).
	DropViews(a *tbql.Analyzed)
}

// tacticalSource is the tactical layer's view of a backend's current
// state: the global store's published snapshot, whose event order,
// adjacency and op index are exactly the unsharded store's.
func tacticalSource(b Backend) tactical.Source {
	return tactical.SnapSource{Snap: b.GlobalStore().Snapshot()}
}

// engineBackend adapts the classic single store + engine pair.
type engineBackend struct {
	store *engine.Store
	en    *engine.Engine
}

// NewBackend wraps the classic single store + engine pair as a
// DurableBackend — what New uses internally, exported so OpenDurable
// callers can supply it from their fresh/fromImages callbacks.
func NewBackend(store *engine.Store, en *engine.Engine) DurableBackend {
	return engineBackend{store: store, en: en}
}

// DumpRange dumps the single store, the one "global" role (role 0).
func (b engineBackend) DumpRange(_ int, from segment.Base) *segment.Image {
	return engine.DumpRange(b.store, true, from)
}

// Topology reports the unsharded layout.
func (b engineBackend) Topology() segment.Topology { return segment.Topology{} }

func (b engineBackend) GlobalStore() *engine.Store { return b.store }
func (b engineBackend) AppendBatch(entities []*audit.Entity, events []audit.Event) error {
	return b.store.AppendBatch(entities, events)
}
func (b engineBackend) Hunt(ctx context.Context, src string) (*engine.Result, engine.Stats, error) {
	return b.en.Hunt(ctx, src)
}
func (b engineBackend) ExecuteDelta(ctx context.Context, a *tbql.Analyzed, minEventID int64) (*engine.Result, engine.Stats, error) {
	return b.en.ExecuteDelta(ctx, a, minEventID)
}
func (b engineBackend) DropViews(a *tbql.Analyzed) { b.en.DropViews(a) }
