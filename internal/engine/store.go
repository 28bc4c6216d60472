// Package engine implements ThreatRaptor's TBQL query execution
// (Section III-F): system audit logging data is stored in both a
// relational backend (PostgreSQL stand-in) and a graph backend (Neo4j
// stand-in); TBQL patterns compile into small data queries through the
// shared logical-plan IR (internal/qir), each lowered to the owning
// backend's plan form with parameter slots; and a scheduler orders those
// data queries by estimated pruning power and semantic dependencies,
// feeding each query's results into the next as bound parameters.
package engine

import (
	"fmt"
	"sync"
	"sync/atomic"

	"threatraptor/internal/audit"
	"threatraptor/internal/graphdb"
	"threatraptor/internal/relational"
)

// Store holds one audit log replicated across the two database backends
// (Section III-B: data is replicated to support different query types and
// improve availability).
type Store struct {
	Rel   *relational.DB
	Graph *graphdb.Graph
	Log   *audit.Log
	// MinTime/MaxTime bound the stored events (µs), used to resolve
	// "last N unit" windows.
	MinTime int64
	MaxTime int64
	// epoch increments whenever AppendBatch moves the time bounds, so
	// cached query plans that baked the bounds into a window condition
	// (LAST/BEFORE/AFTER) know to recompile. Plain writes: appends and
	// queries are externally synchronized (the stream session's lock).
	epoch uint64
	// nextEventID is the ID the next appended event will take; appended
	// logs keep the dense 1..n space NewStore-built logs have.
	nextEventID int64
	// opBatches is the per-batch op-code bitmap index: one entry per
	// sealed batch (plus one for the initial load), recording the batch's
	// first event ID and the OR of its events' op bits. Append-only in
	// batch order; a failed batch truncates its entry before anything is
	// published, so snapshots capture a consistent prefix.
	opBatches []batchOps
	// snap is the latest published snapshot (see snapshot.go): written by
	// the single writer at every sealed-batch boundary, pinned by readers.
	snap atomic.Pointer[Snapshot]
}

// BoundsEpoch identifies the current MinTime/MaxTime generation.
func (s *Store) BoundsEpoch() uint64 { return s.epoch }

// NextEventID returns the ID the next appended event will be assigned —
// the delta floor standing queries evaluate against after an append.
func (s *Store) NextEventID() int64 { return s.nextEventID }

// Labels used in the graph backend.
const (
	LabelProcess = "Process"
	LabelFile    = "File"
	LabelNetConn = "NetConn"
)

func labelOf(k audit.EntityKind) string {
	switch k {
	case audit.EntityProcess:
		return LabelProcess
	case audit.EntityFile:
		return LabelFile
	case audit.EntityNetConn:
		return LabelNetConn
	}
	return "Unknown"
}

// entityIndexes and eventIndexes are the columns every store indexes,
// built by NewStore and declared by the segment restore alike: the key
// attributes the paper indexes, and the ID columns the event-entity join
// probes. events.op is not indexed: with at most nine verbs each list is
// a large share of the table, and no plan probes it (the join conjuncts
// on subject_id/object_id come first, and a delta plan's events level
// scans from its floor).
var (
	entityIndexes = []string{"id", "name", "exename", "dstip"}
	eventIndexes  = []string{"subject_id", "object_id"}
)

// newStoreTables creates the two relational tables every store carries,
// with their dictionary-encoded discriminator columns. Shared by the
// batch-load path (NewStore) and the segment-restore path (OpenStore) so
// the schemas can never drift apart.
func newStoreTables(db *relational.DB) (entities, events *relational.Table, err error) {
	entities, err = db.CreateTable("entities", relational.Schema{
		{Name: "id", Kind: relational.KindInt},
		{Name: "kind", Kind: relational.KindString},
		{Name: "name", Kind: relational.KindString},
		{Name: "path", Kind: relational.KindString},
		{Name: "user", Kind: relational.KindString},
		{Name: "grp", Kind: relational.KindString},
		{Name: "pid", Kind: relational.KindInt},
		{Name: "exename", Kind: relational.KindString},
		{Name: "cmd", Kind: relational.KindString},
		{Name: "srcip", Kind: relational.KindString},
		{Name: "srcport", Kind: relational.KindInt},
		{Name: "dstip", Kind: relational.KindString},
		{Name: "dstport", Kind: relational.KindInt},
		{Name: "protocol", Kind: relational.KindString},
		{Name: "host", Kind: relational.KindString},
	})
	if err != nil {
		return nil, nil, err
	}
	// The kind discriminator appears in every data query's WHERE; with at
	// most four distinct values it dictionary-encodes to int compares.
	if err = entities.DictEncode("kind"); err != nil {
		return nil, nil, err
	}
	events, err = db.CreateTable("events", relational.Schema{
		{Name: "id", Kind: relational.KindInt},
		{Name: "subject_id", Kind: relational.KindInt},
		{Name: "object_id", Kind: relational.KindInt},
		{Name: "op", Kind: relational.KindString},
		{Name: "start_time", Kind: relational.KindInt},
		{Name: "end_time", Kind: relational.KindInt},
		{Name: "amount", Kind: relational.KindInt},
		{Name: "failure_code", Kind: relational.KindInt},
	})
	if err != nil {
		return nil, nil, err
	}
	// Nine operation verbs at most: op scans compare codes, not strings.
	if err = events.DictEncode("op"); err != nil {
		return nil, nil, err
	}
	return entities, events, nil
}

// NewStore loads a parsed audit log into fresh relational and graph
// backends, then indexes entityIndexes and eventIndexes with
// Table.CreateIndex, the one index builder (dense ID keys are addressed
// directly, other keys hash). A store recovered from a segment image holds
// the same indexes, built by the same code from the same columns. Graph
// nodes read their attributes from the log's entities (see entityNode).
func NewStore(log *audit.Log) (*Store, error) {
	s := &Store{Rel: relational.NewDB(), Graph: graphdb.NewGraph(), Log: log}

	entities, events, err := newStoreTables(s.Rel)
	if err != nil {
		return nil, err
	}

	// Batch-load both backends with capacity preallocated from the log
	// sizes: column vectors, the graph arenas, and adjacency never grow
	// incrementally during the load. The three load streams are
	// independent and run concurrently: relational entities, relational
	// events (plus the time bounds), and the graph (nodes must precede
	// edges, so the graph keeps its own serial goroutine). Each stream
	// also builds its own indexes; the two relational index builders only
	// share the plan-cache mutex.
	all := log.Entities.All()
	var errEntities, errEvents, errGraph error
	var wg sync.WaitGroup
	wg.Add(3)

	go func() {
		defer wg.Done()
		// One slab backs every row: InsertBatch copies values into the
		// column vectors, so the rows are transient and need not be
		// individually allocated.
		entityRows := make([][]relational.Value, len(all))
		slab := make([]relational.Value, len(all)*len(entities.Schema))
		w := len(entities.Schema)
		for i, e := range all {
			entityRows[i] = entityRow(e, slab[i*w:(i+1)*w:(i+1)*w])
		}
		if errEntities = entities.InsertBatch(entityRows); errEntities != nil {
			return
		}
		for _, col := range entityIndexes {
			if errEntities = entities.CreateIndex(col); errEntities != nil {
				return
			}
		}
	}()

	go func() {
		defer wg.Done()
		eventRows := make([][]relational.Value, len(log.Events))
		slab := make([]relational.Value, len(log.Events)*len(events.Schema))
		w := len(events.Schema)
		for i := range log.Events {
			ev := &log.Events[i]
			row := slab[i*w : (i+1)*w : (i+1)*w]
			row[0] = relational.Int(ev.ID)
			row[1] = relational.Int(ev.SubjectID)
			row[2] = relational.Int(ev.ObjectID)
			row[3] = relational.Str(ev.Op.String())
			row[4] = relational.Int(ev.StartTime)
			row[5] = relational.Int(ev.EndTime)
			row[6] = relational.Int(ev.DataAmount)
			row[7] = relational.Int(int64(ev.FailureCode))
			eventRows[i] = row
			if s.MinTime == 0 || ev.StartTime < s.MinTime {
				s.MinTime = ev.StartTime
			}
			if ev.EndTime > s.MaxTime {
				s.MaxTime = ev.EndTime
			}
		}
		if errEvents = events.InsertBatch(eventRows); errEvents != nil {
			return
		}
		for _, col := range eventIndexes {
			if errEvents = events.CreateIndex(col); errEvents != nil {
				return
			}
		}
	}()

	go func() {
		defer wg.Done()
		s.Graph.ReserveNodes(len(all))
		s.Graph.ReserveEdges(len(log.Events))
		for _, e := range all {
			if errGraph = s.Graph.AddNodeWithID(e.ID, labelOf(e.Kind), (*entityNode)(e)); errGraph != nil {
				return
			}
		}
		for i := range log.Events {
			ev := &log.Events[i]
			if _, err := s.Graph.AddEventEdge(ev.SubjectID, ev.ObjectID, ev.Op.String(),
				ev.ID, ev.StartTime, ev.EndTime, ev.DataAmount); err != nil {
				errGraph = fmt.Errorf("engine: event %d: %w", ev.ID, err)
				return
			}
		}
	}()

	wg.Wait()
	for _, err := range []error{errEntities, errEvents, errGraph} {
		if err != nil {
			return nil, err
		}
	}
	// Loaded logs usually carry the dense 1..n ID space, but a sharded
	// store's partitions load ID-ordered sub-logs with gaps; the next ID
	// and the op-bitmap batch anchor follow the actual IDs, not the count.
	s.nextEventID = 1
	if n := len(log.Events); n > 0 {
		s.nextEventID = log.Events[n-1].ID + 1
		var mask uint32
		for i := range log.Events {
			mask |= log.Events[i].Op.Bit()
		}
		s.opBatches = append(s.opBatches, batchOps{startID: log.Events[0].ID, mask: mask})
	}
	s.publishSnapshot()
	return s, nil
}

// entityRow fills row (of entities-schema width) for one entity.
func entityRow(e *audit.Entity, row []relational.Value) []relational.Value {
	for i := range row {
		row[i] = relational.Null()
	}
	row[0] = relational.Int(e.ID)
	row[1] = relational.Str(e.Kind.String())
	switch e.Kind {
	case audit.EntityFile:
		row[2] = relational.Str(e.File.Name)
		row[3] = relational.Str(e.File.Path)
		row[4] = relational.Str(e.File.User)
		row[5] = relational.Str(e.File.Group)
		row[14] = relational.Str(e.File.Host)
	case audit.EntityProcess:
		row[6] = relational.Int(int64(e.Proc.PID))
		row[7] = relational.Str(e.Proc.ExeName)
		row[4] = relational.Str(e.Proc.User)
		row[5] = relational.Str(e.Proc.Group)
		row[8] = relational.Str(e.Proc.CMD)
		row[14] = relational.Str(e.Proc.Host)
	case audit.EntityNetConn:
		row[9] = relational.Str(e.Net.SrcIP)
		row[10] = relational.Int(int64(e.Net.SrcPort))
		row[11] = relational.Str(e.Net.DstIP)
		row[12] = relational.Int(int64(e.Net.DstPort))
		row[13] = relational.Str(e.Net.Protocol)
	}
	return row
}

// EntityAttr returns the attribute value of a stored entity as a typed
// value (used for return projection and attribute relations). It reads the
// live intern maps, so it is writer-synchronized only; concurrent readers
// use Snapshot.EntityAttr.
func (s *Store) EntityAttr(id int64, attr string) relational.Value {
	e := s.Log.Entities.Lookup(id)
	if e == nil {
		return relational.Null()
	}
	return entityAttrValue(e, attr)
}

// entityAttrValue types an entity attribute for return projection and
// attribute relations: entityPropValue with unknown attributes as NULL.
func entityAttrValue(e *audit.Entity, attr string) relational.Value {
	if v, ok := entityPropValue(e, attr); ok {
		return v
	}
	return relational.Null()
}

// entityNode is an entity as a graph node's attribute source: every
// engine graph node, built, appended or restored, points at its immutable
// entity instead of holding a copy of its attributes.
type entityNode audit.Entity

// Prop implements graphdb.Attrs.
func (n *entityNode) Prop(key string) (graphdb.Value, bool) {
	return entityPropValue((*audit.Entity)(n), key)
}

// entityPropValue types one attribute of an entity over the key set
// audit.Entity.Attr answers for the entity's kind: the numeric attributes
// (pid, srcport, dstport) stay ints, the rest are strings, and any other
// key returns ok == false.
func entityPropValue(e *audit.Entity, key string) (relational.Value, bool) {
	switch {
	case key == "pid" && e.Kind == audit.EntityProcess:
		return relational.Int(int64(e.Proc.PID)), true
	case key == "srcport" && e.Kind == audit.EntityNetConn:
		return relational.Int(int64(e.Net.SrcPort)), true
	case key == "dstport" && e.Kind == audit.EntityNetConn:
		return relational.Int(int64(e.Net.DstPort)), true
	}
	v, ok := e.Attr(key)
	if !ok {
		return relational.Value{}, false
	}
	return relational.Str(v), true
}
