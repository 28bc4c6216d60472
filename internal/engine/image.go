package engine

// Segment dump and restore. DumpRange flattens the part of a store
// appended since a given point into a columnar range segment image
// (internal/segment) — DumpImage is the full range — and OpenStore
// rebuilds a store from a decoded (or folded) full image by adopting the
// columns directly: the relational tables take the decoded vectors
// without replaying appendRow, the store's indexes are declared for a
// deferred build by the same builder NewStore runs, and the graph installs its node/edge arenas and CSR adjacency verbatim,
// which is what makes opening a segment several times cheaper than
// reloading the log. Graph nodes point at the restored entities, as every
// engine node does.

import (
	"fmt"
	"sort"

	"threatraptor/internal/audit"
	"threatraptor/internal/graphdb"
	"threatraptor/internal/relational"
	"threatraptor/internal/segment"
)

// DumpImage flattens the store's current state into a full segment
// image: DumpRange from the start.
func DumpImage(s *Store, withEntities bool) *segment.Image {
	return DumpRange(s, withEntities, segment.Base{})
}

// DumpRange flattens what the store appended since from into a range
// segment image: the entities with IDs above from.Entity (only when
// withEntities — the global store dumps its entities, shard partition
// stores share the global image's), the events with IDs at or above
// from.Event, and their adjacency, built from the event columns. The
// store-wide frontier, time bounds and node count are recorded, so the
// range ends where the store ends. The cost follows the range, not the
// store. Writer-side only (it reads the live arenas).
func DumpRange(s *Store, withEntities bool, from segment.Base) *segment.Image {
	nodes := s.Graph.NumNodes()
	img := &segment.Image{
		Base:        from,
		NextEventID: s.nextEventID,
		MinTime:     s.MinTime,
		MaxTime:     s.MaxTime,
		Nodes:       nodes,
	}
	if withEntities {
		img.Entities = s.Log.Entities.Dense()[from.Entity:nodes]
		img.EntityCols = segment.BuildEntityCols(img.Entities)
	}
	evs := s.Log.Events
	evs = evs[sort.Search(len(evs), func(i int) bool { return evs[i].ID >= from.Event }):]
	n := len(evs)
	slab := make([]int64, 7*n)
	e := &img.Events
	e.ID, e.Subject, e.Object = slab[0:n:n], slab[n:2*n:2*n], slab[2*n:3*n:3*n]
	e.Start, e.End = slab[3*n:4*n:4*n], slab[4*n:5*n:5*n]
	e.Amount, e.Failure = slab[5*n:6*n:6*n], slab[6*n:7*n:7*n]
	e.Op = make([]uint8, n)
	for i := range evs {
		ev := &evs[i]
		e.ID[i], e.Subject[i], e.Object[i] = ev.ID, ev.SubjectID, ev.ObjectID
		e.Start[i], e.End[i] = ev.StartTime, ev.EndTime
		e.Amount[i], e.Failure[i] = ev.DataAmount, int64(ev.FailureCode)
		e.Op[i] = uint8(ev.Op)
	}
	img.Adj = segment.BuildAdjacency(e)
	return img
}

// OpenStore rebuilds a store from a full segment image: one decoded full
// segment, or a role's live range segments after segment.Fold. cols and
// dense are the entity columns and the dense entity slab — the image's
// own for a global store, the global image's for a shard partition
// (partition images carry no entities but their graphs hold every
// entity as a node). table becomes the store's entity table and may be
// shared across sibling partition stores.
func OpenStore(img *segment.Image, cols *segment.EntityCols, dense []*audit.Entity, table *audit.EntityTable) (*Store, error) {
	if img.Base != (segment.Base{}) {
		return nil, fmt.Errorf("engine: open: image covers a range from %+v; fold the live segments first", img.Base)
	}
	nEnt := len(dense)
	if cols == nil || len(cols.Kind) != nEnt {
		return nil, fmt.Errorf("engine: open: entity columns cover %d entities, slab has %d", colsLen(cols), nEnt)
	}
	if img.Nodes != nEnt {
		return nil, fmt.Errorf("engine: open: image has %d graph nodes for %d entities", img.Nodes, nEnt)
	}
	s := &Store{Rel: relational.NewDB(), Graph: graphdb.NewGraph(), Log: &audit.Log{Entities: table}}
	entTbl, evTbl, err := newStoreTables(s.Rel)
	if err != nil {
		return nil, err
	}
	if err := restoreEntityTable(entTbl, cols, nEnt); err != nil {
		return nil, err
	}
	if err := restoreEventTable(evTbl, &img.Events); err != nil {
		return nil, err
	}
	if err := restoreGraph(s.Graph, img, cols, dense); err != nil {
		return nil, err
	}

	// The row-major event log backs reduction lookups and future dumps.
	ev := &img.Events
	rows := len(ev.ID)
	s.Log.Events = make([]audit.Event, rows)
	for i := range s.Log.Events {
		s.Log.Events[i] = audit.Event{
			ID: ev.ID[i], SubjectID: ev.Subject[i], ObjectID: ev.Object[i],
			Op: audit.OpType(ev.Op[i]), StartTime: ev.Start[i], EndTime: ev.End[i],
			DataAmount: ev.Amount[i], FailureCode: int(ev.Failure[i]),
		}
	}
	s.MinTime, s.MaxTime = img.MinTime, img.MaxTime
	s.nextEventID = img.NextEventID
	if s.nextEventID < 1 {
		s.nextEventID = 1
	}
	if rows > 0 {
		// One conservative op-bitmap entry for the whole restored prefix;
		// batch granularity resumes with the first live append.
		var mask uint32
		for _, op := range ev.Op {
			mask |= audit.OpType(op).Bit()
		}
		s.opBatches = append(s.opBatches, batchOps{startID: ev.ID[0], mask: mask})
	}
	s.publishSnapshot()
	return s, nil
}

func colsLen(c *segment.EntityCols) int {
	if c == nil {
		return 0
	}
	return len(c.Kind)
}

// restoreEntityTable adopts the decoded entity columns into the
// relational entities table. NULL bitmaps are derived from the kind
// column — entityRow fills a fixed attribute set per kind, so nullness
// is a function of the kind alone. The string/int vectors are adopted
// (shared with sibling stores is safe: adopted slices have cap == len,
// so the first append relocates), the bitmaps are freshly allocated per
// column because appends mutate them in place.
func restoreEntityTable(t *relational.Table, cols *segment.EntityCols, n int) error {
	words := (n + 63) / 64
	isFile := make([]uint64, words)
	isProc := make([]uint64, words)
	isNet := make([]uint64, words)
	for i, k := range cols.Kind {
		switch audit.EntityKind(k) {
		case audit.EntityFile:
			isFile[i>>6] |= 1 << (uint(i) & 63)
		case audit.EntityProcess:
			isProc[i>>6] |= 1 << (uint(i) & 63)
		case audit.EntityNetConn:
			isNet[i>>6] |= 1 << (uint(i) & 63)
		default:
			return fmt.Errorf("engine: restore: entity %d has invalid kind %d", i+1, k)
		}
	}
	union := func(a, b []uint64) []uint64 {
		out := make([]uint64, words)
		for i := range out {
			out[i] = a[i] | b[i]
		}
		return out
	}
	// nullBits returns a private copy of the bitmap, or nil when no bit is
	// set — matching appendRow, which only allocates a bitmap once a NULL
	// actually lands in the column.
	nullBits := func(bm []uint64) []uint64 {
		for _, w := range bm {
			if w != 0 {
				return append([]uint64(nil), bm...)
			}
		}
		return nil
	}
	notFile := union(isProc, isNet)
	notProc := union(isFile, isNet)
	notNet := union(isFile, isProc)

	ids := make([]int64, n)
	for i := range ids {
		ids[i] = int64(i) + 1
	}
	kindCodes := make([]int32, n)
	var kindDict []string
	var codeOf [256]int32
	for i := range codeOf {
		codeOf[i] = -1
	}
	for i, k := range cols.Kind {
		if codeOf[k] < 0 {
			codeOf[k] = int32(len(kindDict))
			kindDict = append(kindDict, audit.EntityKind(k).String())
		}
		kindCodes[i] = codeOf[k]
	}

	err := t.RestoreColumns(n, []relational.RestoredColumn{
		{Ints: ids},
		{Codes: kindCodes, Dict: kindDict},
		{Strs: cols.Name, Nulls: nullBits(notFile)},
		{Strs: cols.Path, Nulls: nullBits(notFile)},
		{Strs: cols.User, Nulls: nullBits(isNet)},
		{Strs: cols.Group, Nulls: nullBits(isNet)},
		{Ints: cols.PID, Nulls: nullBits(notProc)},
		{Strs: cols.Exe, Nulls: nullBits(notProc)},
		{Strs: cols.Cmd, Nulls: nullBits(notProc)},
		{Strs: cols.SrcIP, Nulls: nullBits(notNet)},
		{Ints: cols.SrcPort, Nulls: nullBits(notNet)},
		{Strs: cols.DstIP, Nulls: nullBits(notNet)},
		{Ints: cols.DstPort, Nulls: nullBits(notNet)},
		{Strs: cols.Protocol, Nulls: nullBits(notNet)},
		{Strs: cols.Host, Nulls: nullBits(isNet)},
	})
	if err != nil {
		return err
	}
	// Declare the same indexes NewStore builds, deferred: the writer
	// materializes them before its first post-restore append, keeping
	// their construction off the recovery critical path.
	for _, col := range entityIndexes {
		if err := t.RestoreIndexLazy(col); err != nil {
			return err
		}
	}
	return nil
}

// restoreEventTable adopts the decoded event columns into the relational
// events table: seven int columns zero-copy, the op column re-coded
// against a first-seen dictionary (same construction order InsertBatch
// would have produced).
func restoreEventTable(t *relational.Table, ev *segment.EventCols) error {
	rows := len(ev.ID)
	opCodes := make([]int32, rows)
	var opDict []string
	var codeOf [256]int32
	for i := range codeOf {
		codeOf[i] = -1
	}
	for i, op := range ev.Op {
		if codeOf[op] < 0 {
			codeOf[op] = int32(len(opDict))
			opDict = append(opDict, audit.OpType(op).String())
		}
		opCodes[i] = codeOf[op]
	}
	err := t.RestoreColumns(rows, []relational.RestoredColumn{
		{Ints: ev.ID},
		{Ints: ev.Subject},
		{Ints: ev.Object},
		{Codes: opCodes, Dict: opDict},
		{Ints: ev.Start},
		{Ints: ev.End},
		{Ints: ev.Amount},
		{Ints: ev.Failure},
	})
	if err != nil {
		return err
	}
	for _, col := range eventIndexes {
		if err := t.RestoreIndexLazy(col); err != nil {
			return err
		}
	}
	return nil
}

// restoreGraph installs the graph arenas: nodes pointing at the entity
// slab, the typed event-edge arena, and the dumped CSR adjacency.
func restoreGraph(g *graphdb.Graph, img *segment.Image, cols *segment.EntityCols, dense []*audit.Entity) error {
	labels := make([]string, len(cols.Kind))
	for i, k := range cols.Kind {
		labels[i] = labelOf(audit.EntityKind(k))
	}
	if err := g.RestoreNodes(labels, func(i int) graphdb.Attrs { return (*entityNode)(dense[i]) }); err != nil {
		return err
	}
	ev := &img.Events
	types := make([]string, len(ev.Op))
	for i, op := range ev.Op {
		types[i] = audit.OpType(op).String()
	}
	if err := g.RestoreEventEdges(ev.ID, ev.Subject, ev.Object, ev.Start, ev.End, ev.Amount, types); err != nil {
		return err
	}
	a := &img.Adj
	return g.RestoreAdjacency(a.OutNodes, a.OutCounts, a.Out, a.InNodes, a.InCounts, a.In)
}
