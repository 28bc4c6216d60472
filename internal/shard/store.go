package shard

import (
	"sync"
	"sync/atomic"
	"time"

	"threatraptor/internal/audit"
	"threatraptor/internal/engine"
	"threatraptor/internal/tactical"
)

// Store is the sharded store coordinator: the authoritative global store
// plus N partition stores holding routed event subsets over the shared
// entity table. All writes go through AppendBatch, which keeps the fleet
// a consistent prefix (any partition failure unwinds the partitions that
// already committed AND the global append). All reads pin a View.
type Store struct {
	part Partitioner

	// mu serializes writers (AppendBatch); readers never take it.
	mu           sync.Mutex
	global       *engine.Store
	globalEngine *engine.Engine
	shards       []*partition

	view atomic.Pointer[View]

	// fanout[k] counts scattered data queries that touched k partitions;
	// globalRouted counts pattern queries routed to the global store
	// (variable-length paths).
	fanout       []atomic.Int64
	globalRouted atomic.Int64
	rollbacks    atomic.Int64
}

type partition struct {
	store  *engine.Store
	engine *engine.Engine
	// opMask is the cumulative OR of the op-code bits of every event ever
	// routed to this partition (coordinator-side, exact — the snapshot's
	// own OpMaskBetween is conservative before its first batch).
	opMask uint32
}

// View is one published, immutable generation of the whole sharded store:
// the global snapshot (authoritative state — tactical, provenance, and
// fuzzy reads use it directly) plus one pinned snapshot and routing stat
// per partition. Per-partition snapshots are "globalized": their time
// bounds and bounds epoch are overridden with the global values so window
// lowering inside each shard's engine resolves against the global time
// range, while NextEventID stays shard-local for delta pruning.
type View struct {
	Global *engine.Snapshot
	Shards []*engine.Snapshot
	Stats  []ShardStat
}

// ShardStat is one partition's routing-relevant summary at publish time.
type ShardStat struct {
	// Events is how many events the partition holds.
	Events int
	// FirstEventID/NextEventID bound the partition's global event IDs:
	// every held event e satisfies FirstEventID <= e.ID < NextEventID.
	FirstEventID int64
	NextEventID  int64
	// MinTime/MaxTime are the partition's local event-time bounds (µs).
	MinTime int64
	MaxTime int64
	// OpMask is the OR of the op-code bits of the partition's events.
	OpMask uint32
	// PublishedAt timestamps the partition snapshot.
	PublishedAt time.Time
}

// New builds a sharded store over an already-parsed (and reduced) log:
// the global store loads the whole log, and each of n partitions loads
// the sub-log the partitioner routes to it. n must be >= 1; every
// partition shares log's entity table.
func New(log *audit.Log, n int, part Partitioner) (*Store, error) {
	if n < 1 {
		n = 1
	}
	if part == nil {
		part = ByHash()
	}
	global, err := engine.NewStore(log)
	if err != nil {
		return nil, err
	}
	s := &Store{
		part:         part,
		global:       global,
		globalEngine: &engine.Engine{Store: global, ViewHighWater: -1},
		shards:       make([]*partition, n),
		fanout:       make([]atomic.Int64, n+1),
	}
	buckets := s.routeEvents(log.Entities, log.Events)
	for i := 0; i < n; i++ {
		subLog := &audit.Log{Entities: log.Entities, Events: buckets[i]}
		st, err := engine.NewStore(subLog)
		if err != nil {
			return nil, err
		}
		s.shards[i] = &partition{
			store: st,
			// Partition engines never materialize standing-query views:
			// a per-partition view would join delta rows only against
			// local history and miss cross-shard bindings. The
			// coordinator's delta rounds scatter recompute queries.
			engine: &engine.Engine{Store: st, ViewHighWater: -1},
			opMask: maskOf(buckets[i]),
		}
	}
	s.publishLocked()
	return s, nil
}

// routeEvents buckets events per partition. Copies event values, so the
// buckets stay valid however the caller's slice moves.
func (s *Store) routeEvents(tbl *audit.EntityTable, events []audit.Event) [][]audit.Event {
	n := len(s.shards)
	buckets := make([][]audit.Event, n)
	for i := range events {
		ev := &events[i]
		idx := s.part.Route(ev, tbl.Lookup(ev.SubjectID), n)
		if idx < 0 || idx >= n {
			idx = 0
		}
		buckets[idx] = append(buckets[idx], *ev)
	}
	return buckets
}

func maskOf(events []audit.Event) uint32 {
	var m uint32
	for i := range events {
		m |= events[i].Op.Bit()
	}
	return m
}

// AppendBatch appends one sealed batch to the whole fleet: the global
// store first (which assigns the batch's global event IDs), then every
// partition (all partitions receive the new entities; each event's row
// and edge go to its routed partition alone). The append is atomic across
// the fleet: a partition failure rolls back the partitions that already
// committed and the global append, so a retried batch re-derives the same
// IDs and converges on the same stores. Not safe to run concurrently with
// itself; readers are never blocked (they pin the previous View).
func (s *Store) AppendBatch(entities []*audit.Entity, events []audit.Event) error {
	s.mu.Lock()
	defer s.mu.Unlock()

	gMark := s.global.Mark()
	if err := s.global.AppendBatch(entities, events); err != nil {
		return err
	}
	// events now carry their final global IDs (AppendBatch assigns them
	// in place); route on those.
	buckets := s.routeEvents(s.global.Log.Entities, events)

	marks := make([]engine.StoreMark, len(s.shards))
	for i, p := range s.shards {
		if len(entities) == 0 && len(buckets[i]) == 0 {
			continue
		}
		marks[i] = p.store.Mark()
		if err := p.store.AppendBatch(entities, buckets[i]); err != nil {
			// The failing partition rolled itself back; unwind the ones
			// that committed (reverse order) and the global append.
			for j := i - 1; j >= 0; j-- {
				if len(entities) == 0 && len(buckets[j]) == 0 {
					continue
				}
				s.shards[j].store.Rollback(marks[j])
			}
			s.global.Rollback(gMark)
			s.rollbacks.Add(1)
			return err
		}
	}
	for i, p := range s.shards {
		p.opMask |= maskOf(buckets[i])
	}
	s.publishLocked()
	return nil
}

// publishLocked captures and publishes a new View. Writer-side only.
func (s *Store) publishLocked() {
	g := s.global.Snapshot()
	v := &View{
		Global: g,
		Shards: make([]*engine.Snapshot, len(s.shards)),
		Stats:  make([]ShardStat, len(s.shards)),
	}
	for i, p := range s.shards {
		sn := p.store.Snapshot()
		st := ShardStat{
			Events:      len(sn.Events),
			NextEventID: sn.NextEventID,
			MinTime:     sn.MinTime,
			MaxTime:     sn.MaxTime,
			OpMask:      p.opMask,
			PublishedAt: sn.PublishedAt,
		}
		if len(sn.Events) > 0 {
			st.FirstEventID = sn.Events[0].ID
		}
		v.Stats[i] = st
		// Globalize: window-sensitive plans inside the partition engine
		// must lower against the global time bounds (and recompile on the
		// global epoch), not the partition's local slice of them.
		cp := *sn
		cp.MinTime, cp.MaxTime, cp.Epoch = g.MinTime, g.MaxTime, g.Epoch
		v.Shards[i] = &cp
	}
	s.view.Store(v)
}

// View returns the latest published generation. Safe from any goroutine.
func (s *Store) View() *View { return s.view.Load() }

// Global returns the authoritative global store. Its published snapshot
// equals what an unsharded store over the same input would publish;
// explain, provenance, fuzzy search, and the tactical layer read it.
func (s *Store) Global() *engine.Store { return s.global }

// GlobalStore implements the stream backend surface (the session's
// authoritative store for snapshot readers).
func (s *Store) GlobalStore() *engine.Store { return s.global }

// EntityTable returns the shared entity intern table (global IDs).
func (s *Store) EntityTable() *audit.EntityTable { return s.global.Log.Entities }

// NextEventID returns the global event-ID frontier. Writer-side (callers
// serialize against AppendBatch, as the stream session does).
func (s *Store) NextEventID() int64 { return s.global.NextEventID() }

// Shards returns the partition count.
func (s *Store) Shards() int { return len(s.shards) }

// PartitionerName names the routing function ("hash", "host", ...).
func (s *Store) PartitionerName() string { return s.part.Name() }

// TacticalSource returns the tactical layer's event source: the global
// snapshot, whose event order, adjacency, and op index are exactly the
// unsharded store's.
func (s *Store) TacticalSource() tactical.Source {
	return tactical.SnapSource{Snap: s.global.Snapshot()}
}

// SetViewHighWater is a no-op: sharded standing-query rounds run the
// scattered recompute plan, never per-partition materialized views (a
// partition-local view would miss cross-shard bindings).
func (s *Store) SetViewHighWater(int) {}

// ShardMetrics is one partition's operational summary.
type ShardMetrics struct {
	Shard       int           `json:"shard"`
	Events      int           `json:"events"`
	MinTime     int64         `json:"min_time_us"`
	MaxTime     int64         `json:"max_time_us"`
	SnapshotAge time.Duration `json:"-"`
}

// Metrics reports per-partition event counts and snapshot ages from the
// latest published View.
func (s *Store) Metrics() []ShardMetrics {
	v := s.View()
	now := time.Now()
	out := make([]ShardMetrics, len(v.Stats))
	for i, st := range v.Stats {
		out[i] = ShardMetrics{
			Shard:       i,
			Events:      st.Events,
			MinTime:     st.MinTime,
			MaxTime:     st.MaxTime,
			SnapshotAge: now.Sub(st.PublishedAt),
		}
	}
	return out
}

// FanoutHistogram returns how many scattered data queries touched k
// partitions, for k in [0, Shards()]. Index 0 counts patterns pruned to
// zero partitions (instant empty conjunctions).
func (s *Store) FanoutHistogram() []int64 {
	out := make([]int64, len(s.fanout))
	for i := range s.fanout {
		out[i] = s.fanout[i].Load()
	}
	return out
}

// GlobalRouted counts pattern queries routed to the global store instead
// of the partitions (variable-length path patterns, whose flows cross
// partition boundaries under every partitioner).
func (s *Store) GlobalRouted() int64 { return s.globalRouted.Load() }

// Rollbacks counts fleet-wide append unwinds (a partition append failed
// after the global append succeeded).
func (s *Store) Rollbacks() int64 { return s.rollbacks.Load() }
