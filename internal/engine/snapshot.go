package engine

// This file splits the engine's state into an immutable published snapshot
// and a mutable tail. The store has exactly one writer (AppendBatch, plus
// the initial NewStore load) and many concurrent readers (hunts, delta
// rounds, view catch-up). Every sealed batch publishes a Snapshot through
// an atomic pointer; a reader pins the latest snapshot once at entry and
// runs entirely against it — bounded relational scans (relational.Snap),
// captured graph arenas (graphdb.View), the frozen entity slice, and the
// time bounds/epoch as of the capture — so no execution path takes a
// session-wide read lock and the writer never blocks readers.

import (
	"sort"
	"time"

	"threatraptor/internal/audit"
	"threatraptor/internal/graphdb"
	"threatraptor/internal/relational"
)

// Snapshot is one published generation of the store. All fields are
// immutable after publication; the embedded Snap/View read the backends'
// append-only arenas through captured headers, so a snapshot stays valid
// (and cheap — no row data is copied) however far the store grows past it.
type Snapshot struct {
	// Rel bounds relational scans to the captured row counts.
	Rel relational.Snap
	// Graph pins traversals to the captured node/edge arenas and adjacency.
	Graph graphdb.View
	// Entities is the frozen dense entity slice: entity ID i at offset i-1.
	// Attribute resolution (return projection, attribute relations) reads
	// it instead of the live intern maps, which the writer mutates.
	Entities []*audit.Entity
	// MinTime/MaxTime are the store's event-time bounds at capture (µs);
	// window-sensitive plans lower against them.
	MinTime int64
	MaxTime int64
	// Epoch is the bounds generation at capture — the plan-cache key that
	// decides whether a cached window-sensitive plan matches this snapshot.
	Epoch uint64
	// NextEventID is the event-ID frontier at capture: every stored event
	// has ID < NextEventID. View catch-up advances to exactly this frontier,
	// never past the pinned snapshot.
	NextEventID int64
	// Events is the frozen event slice in ID order (event ID i at offset
	// i-1). The log's event arena is append-only and rollback only
	// truncates tail the snapshot never covered, so the captured header
	// stays valid; readers (tactical rounds, sharded hunts) index it
	// directly instead of taking the session lock over the live Log.
	Events []audit.Event
	// PublishedAt timestamps the capture (drives the snapshot-age metric).
	PublishedAt time.Time

	// opBatches is the captured per-batch op-code bitmap index (see
	// Store.opBatches); OpMaskBetween folds it so view catch-up can skip
	// patterns whose operations never appeared in a delta.
	opBatches []batchOps
}

// publishSnapshot captures and atomically publishes the store's current
// state. Writer-side only: it must be mutually excluded with appends (it
// runs at the end of NewStore and at AppendBatch's success tail).
func (s *Store) publishSnapshot() {
	sn := &Snapshot{
		Entities:    s.Log.Entities.Dense(),
		MinTime:     s.MinTime,
		MaxTime:     s.MaxTime,
		Epoch:       s.epoch,
		NextEventID: s.nextEventID,
		Events:      s.Log.Events,
		PublishedAt: time.Now(),
		opBatches:   s.opBatches,
	}
	sn.Rel.Capture(s.Rel)
	sn.Graph.Capture(s.Graph)
	s.snap.Store(sn)
}

// Snapshot returns the latest published snapshot (nil only for a Store
// that was never built through NewStore). Safe from any goroutine.
func (s *Store) Snapshot() *Snapshot { return s.snap.Load() }

// EntityAttr resolves an entity attribute inside the snapshot, the
// concurrent-read counterpart of Store.EntityAttr. IDs past the captured
// frontier (or unknown) resolve to NULL.
func (sn *Snapshot) EntityAttr(id int64, attr string) relational.Value {
	if id < 1 || id > int64(len(sn.Entities)) {
		return relational.Null()
	}
	return entityAttrValue(sn.Entities[id-1], attr)
}

// batchOps records one sealed batch's first event ID and the OR of its
// events' op-code bits (audit.OpType.Bit). The slice is append-only in
// batch order and entry i covers event IDs [startID_i, startID_i+1).
type batchOps struct {
	startID int64
	mask    uint32
}

// OpMaskBetween returns the OR of the op-code bits of every stored event
// with ID in [lo, hi), folded from the per-batch bitmap index (O(log
// batches + batches overlapped), no event scan). IDs below the first
// recorded batch resolve conservatively to all-ops.
func (sn *Snapshot) OpMaskBetween(lo, hi int64) uint32 {
	if lo >= hi {
		return 0
	}
	b := sn.opBatches
	// First batch whose range can overlap [lo, hi): the last entry with
	// startID <= lo.
	i := sort.Search(len(b), func(i int) bool { return b[i].startID > lo }) - 1
	if i < 0 {
		// lo predates the recorded batches; be conservative.
		return ^uint32(0)
	}
	var mask uint32
	for ; i < len(b) && b[i].startID < hi; i++ {
		mask |= b[i].mask
	}
	return mask
}

// timeBounds is a fixed pair of store time bounds against which TBQL
// windows resolve. Plans capture the bounds of the snapshot (or live
// store) they were lowered for, so window lowering never reads the
// writer-mutated Store fields from a reader goroutine.
type timeBounds struct {
	min, max int64
}

func (s *Store) bounds() timeBounds     { return timeBounds{s.MinTime, s.MaxTime} }
func (sn *Snapshot) bounds() timeBounds { return timeBounds{sn.MinTime, sn.MaxTime} }
