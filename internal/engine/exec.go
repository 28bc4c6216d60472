package engine

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"threatraptor/internal/faultinject"
	"threatraptor/internal/graphdb"
	"threatraptor/internal/qir"
	"threatraptor/internal/relational"
	"threatraptor/internal/tbql"
)

// Stats summarizes one TBQL execution.
type Stats struct {
	DataQueries  int // small SQL/Cypher queries issued
	PatternRows  int // total rows returned by data queries
	JoinBindings int // complete bindings found by the cross-pattern join
	// EmptyPatternID names the pattern whose data query matched nothing
	// and short-circuited the conjunction ("" when all patterns matched).
	// Surfacing it supports the paper's human-in-the-loop query revision:
	// the analyst removes or relaxes the excessive pattern.
	EmptyPatternID string
	Rel            relational.ExecStats
	Graph          graphdb.ExecStats
}

// Add folds another execution's counters into st (EmptyPatternID names
// one execution's short-circuit and does not aggregate).
func (st *Stats) Add(o Stats) {
	st.DataQueries += o.DataQueries
	st.PatternRows += o.PatternRows
	st.JoinBindings += o.JoinBindings
	st.Rel.RowsScanned += o.Rel.RowsScanned
	st.Rel.IndexLookups += o.Rel.IndexLookups
	st.Rel.HashJoinBuilds += o.Rel.HashJoinBuilds
	st.Graph.NodesVisited += o.Graph.NodesVisited
	st.Graph.EdgesTraversed += o.Graph.EdgesTraversed
	st.Graph.IndexLookups += o.Graph.IndexLookups
}

// Engine executes TBQL queries against a store.
type Engine struct {
	Store *Store
	// MaxInList bounds how many entity IDs the scheduler pushes into a
	// dependent data query as an IN constraint; larger binding sets are
	// left to the join phase. Zero selects the default of 2000.
	MaxInList int
	// DisableScheduling turns off pruning-score ordering and constraint
	// feeding (the ablation of the paper's core RQ4 optimization): data
	// queries run in declaration order without added constraints. Set it
	// before the first execution — cached plans keep the order they were
	// compiled with.
	DisableScheduling bool
	// ViewHighWater caps the total rows the engine may hold in
	// materialized pattern views (the standing-query match caches): 0
	// selects DefaultViewHighWater, a negative value disables views
	// entirely. A query whose views would cross the cap evaluates through
	// the recompute path instead — delta rounds stay correct, just not
	// O(delta).
	ViewHighWater int

	// planMu guards the compiled-query cache (see plan.go): plans by
	// analyzed query, and Hunt's source-text index into them.
	planMu sync.Mutex
	plans  map[*tbql.Analyzed]*queryPlan
	texts  map[string]*tbql.Analyzed

	// Materialized-view accounting and counters (see view.go).
	viewRows             atomic.Int64
	viewReleaseGen       atomic.Int64
	viewMaterializations atomic.Int64
	viewDeltaMerges      atomic.Int64
	viewFallbacks        atomic.Int64
	viewCatchupSkips     atomic.Int64
	viewWindowMigrations atomic.Int64
	scratchPool          sync.Pool
}

// Result is the outcome of a scheduled TBQL execution: the projected
// return rows plus the audit event IDs that participated in at least one
// complete binding (the paper's RQ2 scores matched system events against
// ground truth).
type Result struct {
	Set           *relational.ResultSet
	MatchedEvents map[int64]bool
}

// PatternRows is one pattern's data-query result: [event, subject, object,
// start, end] per row (only the subject/object columns are meaningful when
// HasEvent is false — variable-length paths bind no event).
type PatternRows struct {
	Idx      int
	Rows     [][5]int64
	HasEvent bool
}

// PatternQuery is one data query of the scheduled plan: "the rows of
// pattern Idx under these subject/object binding sets and this delta
// floor". Everything that varies between executions of a pattern is here;
// it binds as parameter values on the pattern's one compiled plan (whose
// optional parameter predicates prune themselves when a field is unset) —
// nothing is rendered to text and no per-shape plan variant exists.
type PatternQuery struct {
	Idx int
	// Meta is the pattern's routing shape, from the compiled plan (set by
	// the scheduled loop; a scatter coordinator prunes shards with it).
	Meta *PatternMeta
	// Subj and Obj are the scheduler's binding sets: sorted unique entity
	// IDs the subject / object must lie in (nil = unconstrained).
	Subj, Obj []int64
	// Delta is the standing-query floor: only events with ID >= Delta
	// match (0 = no floor).
	Delta int64
}

// RowSource answers the scheduled plan's data queries. The engine's own
// source runs each query on its backends against the pinned snapshot; a
// view-backed delta round reads materialized match sets; a sharded
// coordinator scatters the query and merges the gathered rows. The
// returned Stats count the work that one query cost.
type RowSource func(ctx context.Context, q PatternQuery) (PatternRows, Stats, error)

// runPattern executes one data query against the backend its pattern
// lowers to, reading the pinned snapshot snap (nil = live store,
// writer-synchronized paths only). Both backends consume the pattern's
// compiled plan directly; binding sets and the delta floor bind as
// parameter values, so no query text is assembled and no parser runs.
func (en *Engine) runPattern(ctx context.Context, a *tbql.Analyzed, plan *queryPlan, snap *Snapshot, q PatternQuery) (PatternRows, Stats, error) {
	p := a.Query.Patterns[q.Idx]
	pr := PatternRows{Idx: q.Idx, HasEvent: true}
	if err := ctxErr(ctx); err != nil {
		return pr, Stats{}, err
	}
	if err := faultinject.Hit(FaultExecutePattern); err != nil {
		return pr, Stats{}, fmt.Errorf("engine: pattern %s: %w", p.ID, err)
	}
	pp := &plan.pats[q.Idx]
	if pp.meta.UsesGraph {
		var params *graphdb.ExecParams
		if len(q.Subj) > 0 || len(q.Obj) > 0 || q.Delta > 0 || snap != nil {
			var gp graphdb.ExecParams
			var nb [2]graphdb.NodeBinding
			n := 0
			if len(q.Subj) > 0 {
				nb[n] = graphdb.NodeBinding{Var: "s", IDs: q.Subj}
				n++
			}
			if len(q.Obj) > 0 {
				nb[n] = graphdb.NodeBinding{Var: "o", IDs: q.Obj}
				n++
			}
			gp.Nodes = nb[:n]
			if q.Delta > 0 && pp.ir.Path.HasEdgeVar {
				// The graph executor's floor is a dense edge-arena offset,
				// which equals the event ID only when the store holds the
				// full 1..n ID space. A shard's sub-log has gaps, so the
				// global event-ID floor translates through the snapshot's
				// ID-ordered event slice (identity for dense stores).
				gp.EdgeVar = "e"
				gp.MinEdgeID = snapEdgeFloor(snap, q.Delta)
			}
			if snap != nil {
				gp.View = &snap.Graph
			}
			params = &gp
		}
		rs, gs, err := en.Store.Graph.ExecWithCtx(ctx, pp.gq, params)
		if err != nil {
			return pr, Stats{}, fmt.Errorf("engine: pattern %s: %w", p.ID, err)
		}
		pr.HasEvent = len(rs.Columns) == 5
		pr.Rows = make([][5]int64, 0, len(rs.Rows))
		for _, row := range rs.Rows {
			var r [5]int64
			if pr.HasEvent {
				for i := 0; i < 5; i++ {
					r[i] = row[i].I
				}
			} else {
				r[1], r[2] = row[0].I, row[1].I
			}
			pr.Rows = append(pr.Rows, r)
		}
		return pr, Stats{DataQueries: 1, PatternRows: len(pr.Rows), Graph: gs}, nil
	}
	var prep *relational.Prepared
	var err error
	if q.Delta > 0 {
		// Delta rounds anchor on the events table so the scan starts at
		// the floor instead of walking the entity anchor's history.
		prep, err = pp.preparedDelta(en.Store, plan.bounds)
	} else {
		prep, err = pp.prepared(en.Store, plan.bounds)
	}
	if err != nil {
		return pr, Stats{}, fmt.Errorf("engine: pattern %s: %w", p.ID, err)
	}
	var params relational.Params
	params.Lists[qir.SlotSubjIDs] = q.Subj
	params.Lists[qir.SlotObjIDs] = q.Obj
	params.Ints[qir.SlotDelta] = q.Delta
	if snap != nil {
		params.Snap = &snap.Rel
	}
	rs, qs, err := prep.QueryCtx(ctx, &params)
	if err != nil {
		return pr, Stats{}, fmt.Errorf("engine: pattern %s: %w", p.ID, err)
	}
	pr.Rows = make([][5]int64, 0, len(rs.Rows))
	for _, row := range rs.Rows {
		pr.Rows = append(pr.Rows, [5]int64{row[0].I, row[1].I, row[2].I, row[3].I, row[4].I})
	}
	return pr, Stats{DataQueries: 1, PatternRows: len(pr.Rows), Rel: qs}, nil
}

// bindingSpec selects the scheduler's binding-set constraints for a
// pattern. Binding sets are kept as sorted unique ID slices — the
// representation both backends' membership checks and index probes
// consume directly as bound parameters.
func (en *Engine) bindingSpec(p *tbql.Pattern, bindings map[string][]int64, maxIn int) (subj, obj []int64) {
	if set := bindings[p.Subject.ID]; len(set) > 0 && len(set) <= maxIn {
		subj = set
	}
	if set := bindings[p.Object.ID]; len(set) > 0 && len(set) <= maxIn {
		obj = set
	}
	return subj, obj
}

func (en *Engine) maxIn() int {
	if en.MaxInList > 0 {
		return en.MaxInList
	}
	return 2000
}

// emptyResult is the outcome of a conjunction short-circuited by a pattern
// that matched nothing.
func emptyResult(cols []string) *Result {
	return &Result{
		Set:           &relational.ResultSet{Columns: cols},
		MatchedEvents: map[int64]bool{},
	}
}

// Execute runs a TBQL query with the ThreatRaptor plan: each pattern
// lowers to a small data query in the shared logical-plan IR (executed by
// the relational backend for event patterns, the graph backend for path
// patterns), the scheduler orders them by pruning score, feeds entity
// bindings forward as bound parameters, and a final in-engine join applies
// the temporal and attribute relationships.
//
// ctx cancels cooperatively: the executors poll it at pattern boundaries,
// relational batch boundaries, and graph DFS depth steps, and the call
// returns ctx.Err() promptly. A nil context never cancels. Panics anywhere
// in execution surface as a typed *InternalError instead of unwinding into
// the caller.
//
// Execute pins the latest published store snapshot at entry and runs
// entirely against it: every data query, attribute resolution, and window
// lowering reads that one frozen generation, so the call is safe to run
// concurrently with AppendBatch (and with other executions) without any
// session-wide lock.
func (en *Engine) Execute(ctx context.Context, a *tbql.Analyzed) (*Result, Stats, error) {
	return en.ExecuteSource(ctx, a, en.Store.Snapshot(), nil)
}

// ExecuteSource is Execute against an explicit pinned snapshot of this
// engine's store, with the plan's data queries answered by src (nil: the
// engine's own backends on snap). The scheduled plan, the join, and the
// attribute resolution (through snap) stay here, and src runs under this
// call's panic boundary — which is how a sharded coordinator executes: it
// passes its global snapshot and a source that scatters each data query.
func (en *Engine) ExecuteSource(ctx context.Context, a *tbql.Analyzed, snap *Snapshot, src RowSource) (res *Result, stats Stats, err error) {
	defer guard(a, &err)
	plan := en.planFor(a, snap, false)
	if src == nil {
		src = en.localSource(a, plan, snap)
	}
	sc := en.acquireScratch(len(plan.pats))
	defer en.releaseScratch(sc)
	return en.runFull(ctx, a, plan, snap, src, sc)
}

// localSource is the engine's own row source: each data query runs on the
// backends against the pinned snapshot.
func (en *Engine) localSource(a *tbql.Analyzed, plan *queryPlan, snap *Snapshot) RowSource {
	return func(ctx context.Context, q PatternQuery) (PatternRows, Stats, error) {
		return en.runPattern(ctx, a, plan, snap, q)
	}
}

// run is the scheduled plan (Section III-F), the one place the engine
// orders patterns, feeds bindings, short-circuits, and joins: patterns go
// in pruning-score order (declaration order under DisableScheduling), each
// asks src for its rows under the binding sets narrowed by the patterns
// before it, a pattern with no rows empties the conjunction (nil result),
// and the surviving rows join into complete bindings. deltaIdx >= 0 makes
// it one turn of the delta-join rule: that pattern matches only events
// with ID >= floor and is hoisted to the front — a floor over a small
// append usually matches nothing (ending the turn after one data query) or
// a handful of rows whose bindings prune every later pattern.
func (en *Engine) run(ctx context.Context, a *tbql.Analyzed, plan *queryPlan, snap *Snapshot, src RowSource, sc *loopScratch, deltaIdx int, floor int64) (*Result, Stats, error) {
	order := plan.order
	if deltaIdx >= 0 {
		sc.order = append(sc.order[:0], deltaIdx)
		for _, idx := range plan.order {
			if idx != deltaIdx {
				sc.order = append(sc.order, idx)
			}
		}
		order = sc.order
	}

	var stats Stats
	clear(sc.bindings) // entity ID -> allowed IDs, sorted unique
	maxIn := en.maxIn()
	for _, idx := range order {
		p := a.Query.Patterns[idx]
		q := PatternQuery{Idx: idx, Meta: &plan.pats[idx].meta}
		if !en.DisableScheduling {
			q.Subj, q.Obj = en.bindingSpec(p, sc.bindings, maxIn)
		}
		if idx == deltaIdx {
			q.Delta = floor
		}
		pr, st, err := src(ctx, q)
		if err != nil {
			return nil, stats, err
		}
		stats.Add(st)
		if len(pr.Rows) == 0 {
			// A pattern with no matches empties the whole conjunction.
			stats.EmptyPatternID = p.ID
			return nil, stats, nil
		}
		sc.results[idx] = pr
		if !en.DisableScheduling {
			narrow(sc.bindings, p.Subject.ID, pr.Rows, 1, &sc.ids)
			narrow(sc.bindings, p.Object.ID, pr.Rows, 2, &sc.ids)
		}
	}

	res, joined, err := joinRows(ctx, a, plan.cols, snap.EntityAttr, sc.results)
	stats.JoinBindings = joined
	return res, stats, err
}

// runFull is one complete execution of the scheduled plan: run without a
// delta pattern, an emptied conjunction returned as the empty result.
func (en *Engine) runFull(ctx context.Context, a *tbql.Analyzed, plan *queryPlan, snap *Snapshot, src RowSource, sc *loopScratch) (*Result, Stats, error) {
	res, stats, err := en.run(ctx, a, plan, snap, src, sc, -1, 0)
	if res == nil && err == nil {
		res = emptyResult(plan.cols)
	}
	return res, stats, err
}

// ExecuteDelta evaluates a query incrementally after an append: it returns
// the complete bindings that use at least one event with ID >= minEventID,
// joining each pattern's new rows against the full indexed history. On the
// materialized-view path (the default), each pattern's cached match set is
// brought up to the store frontier with one floored catch-up query —
// O(new events) — and a delta pattern's fresh rows join against the other
// patterns' cached sets, so a round costs O(delta), not O(store). When the
// ViewHighWater cap disables a view (or ViewHighWater < 0 disables views),
// the same delta rule runs over the engine's data queries instead: one
// constrained execution per pattern. Both produce the same binding set; a
// binding with several new events appears once per delta pattern, so
// callers deduplicate firings. Queries containing a variable-length path
// pattern fall back to one full execution: even a typed path binds the
// event variable only on its final hop, so an ID floor would miss paths
// completed by a newly appended intermediate edge.
//
// The query's compiled plan (and the views it holds) stays in the engine's
// cache until DropViews(a), however many other queries pass through.
func (en *Engine) ExecuteDelta(ctx context.Context, a *tbql.Analyzed, minEventID int64) (*Result, Stats, error) {
	// One snapshot pins the whole round: the view catch-up frontier, every
	// data query, and the join all read the same store generation.
	return en.ExecuteDeltaSource(ctx, a, en.Store.Snapshot(), minEventID, nil)
}

// ExecuteDeltaSource is ExecuteDelta against an explicit pinned snapshot,
// with the data queries answered by src (see ExecuteSource). A nil src
// selects the engine's own backends and materialized views; an external
// source always evaluates the delta rule through its data queries.
func (en *Engine) ExecuteDeltaSource(ctx context.Context, a *tbql.Analyzed, snap *Snapshot, minEventID int64, src RowSource) (res *Result, stats Stats, err error) {
	defer guard(a, &err)
	plan := en.planFor(a, snap, true)
	sc := en.acquireScratch(len(plan.pats))
	defer en.releaseScratch(sc)
	views := false
	if src == nil {
		src, views = en.localSource(a, plan, snap), en.viewCap() > 0
	}
	if HasVarLenPath(a) {
		return en.runFull(ctx, a, plan, snap, src, sc)
	}
	if views {
		res, stats, ok, err := en.deltaViews(ctx, a, plan, snap, sc, minEventID)
		if err != nil || ok {
			return res, stats, err
		}
	}
	return en.deltaRule(ctx, a, plan, snap, src, sc, minEventID)
}

// deltaRule is the standard delta join: every pattern takes a turn as the
// delta pattern (see run) and the turns' bindings concatenate.
func (en *Engine) deltaRule(ctx context.Context, a *tbql.Analyzed, plan *queryPlan, snap *Snapshot, src RowSource, sc *loopScratch, minEventID int64) (*Result, Stats, error) {
	combined := emptyResult(plan.cols)
	var total Stats
	for i := range plan.pats {
		res, stats, err := en.run(ctx, a, plan, snap, src, sc, i, minEventID)
		total.Add(stats)
		if err != nil {
			return nil, total, err
		}
		if res == nil {
			continue
		}
		combined.Set.Rows = append(combined.Set.Rows, res.Set.Rows...)
		for ev := range res.MatchedEvents {
			combined.MatchedEvents[ev] = true
		}
	}
	if a.Query.Return.Distinct {
		combined.Set.Rows = relational.DedupRows(combined.Set.Rows)
	}
	return combined, total, nil
}

// loopScratch is the reusable per-execution state of the scheduled loop:
// the per-pattern result slots, the binding-set map, the narrow scratch,
// the hoisted order, and the view source's per-pattern filter output
// buffers. Pooled on the engine so steady-state hunts and standing-query
// rounds allocate almost nothing outside their data queries.
type loopScratch struct {
	results  []PatternRows
	bindings map[string][]int64
	ids      []int64
	order    []int
	bufs     [][][5]int64
}

func (en *Engine) acquireScratch(n int) *loopScratch {
	sc, _ := en.scratchPool.Get().(*loopScratch)
	if sc == nil {
		sc = &loopScratch{bindings: make(map[string][]int64)}
	}
	if cap(sc.results) < n {
		sc.results = make([]PatternRows, n)
		sc.bufs = make([][][5]int64, n)
	}
	sc.results = sc.results[:n]
	sc.bufs = sc.bufs[:n]
	return sc
}

func (en *Engine) releaseScratch(sc *loopScratch) {
	for i := range sc.results {
		sc.results[i] = PatternRows{}
	}
	clear(sc.bindings)
	en.scratchPool.Put(sc)
}

// HasVarLenPath reports whether any pattern is a variable-length path —
// the ExecuteDelta full-evaluation fallback criterion, shared with the
// standing-query layer (which seeds its dedup set for exactly these
// queries).
func HasVarLenPath(a *tbql.Analyzed) bool {
	for _, p := range a.Query.Patterns {
		if p.Path != nil && (p.Path.MinLen != 1 || p.Path.MaxLen != 1) {
			return true
		}
	}
	return false
}

func countConjuncts(e relational.Expr) int {
	if bin, ok := e.(relational.BinOp); ok && bin.Op == "and" {
		return countConjuncts(bin.L) + countConjuncts(bin.R)
	}
	return 1
}

// narrow intersects the binding set of an entity with the IDs seen in a
// pattern's rows (column col). Sets are sorted unique slices: the new IDs
// are sorted and deduplicated in place, and an existing set shrinks via a
// linear merge-intersection — no per-pattern hash maps. scratch is the
// execution's reusable ID buffer: a first-time binding keeps the buffer
// (ownership transfers into the map), an intersection returns it for the
// next call.
func narrow(bindings map[string][]int64, entityID string, rows [][5]int64, col int, scratch *[]int64) {
	ids := (*scratch)[:0]
	if cap(ids) < len(rows) {
		ids = make([]int64, 0, len(rows))
	}
	for _, r := range rows {
		ids = append(ids, r[col])
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	ids = dedupSorted(ids)
	prev, ok := bindings[entityID]
	if !ok {
		bindings[entityID] = ids
		*scratch = nil
		return
	}
	bindings[entityID] = intersectSorted(prev, ids)
	*scratch = ids
}

// dedupSorted removes adjacent duplicates in place.
func dedupSorted(ids []int64) []int64 {
	out := ids[:0]
	for i, id := range ids {
		if i == 0 || id != ids[i-1] {
			out = append(out, id)
		}
	}
	return out
}

// intersectSorted writes the intersection of two sorted unique slices into
// a's prefix.
func intersectSorted(a, b []int64) []int64 {
	out := a[:0]
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

func returnColumns(a *tbql.Analyzed) []string {
	cols := make([]string, len(a.ReturnItems))
	for i, item := range a.ReturnItems {
		cols[i] = item.EntityID + "." + item.Attr
	}
	return cols
}

// joinRows combines per-pattern rows into complete bindings, enforcing
// shared entity identity, temporal relationships, attribute relationships,
// and global filters, then projects the return clause (cols labels the
// projection). The 2-pattern case hash-joins on the shared entity
// variables; larger conjunctions use the backtracking walk. Entity
// attributes resolve through attrOf — the pinned snapshot's resolver, since
// concurrent executions must not probe the live intern maps, which the
// writer mutates. results holds one entry per query pattern, indexed by
// pattern.
func joinRows(ctx context.Context, a *tbql.Analyzed, cols []string, attrOf func(id int64, attr string) relational.Value, results []PatternRows) (*Result, int, error) {
	q := a.Query
	rs := &relational.ResultSet{Columns: cols}
	matched := make(map[int64]bool)
	joined := 0

	// Amortized cancellation checkpoint for the join loops: the outer rows
	// of the backtracking walk and the hash-join probe loop poll every 256
	// iterations (a nil context makes it a nil compare).
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	var tick uint32
	checkCancel := func() error {
		if done == nil {
			return nil
		}
		if tick++; tick&255 != 1 {
			return nil
		}
		select {
		case <-done:
			return ctx.Err()
		default:
			return nil
		}
	}

	// Join in ascending row-count order to keep intermediates small.
	order := make([]int, len(results))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(x, y int) bool {
		return len(results[order[x]].Rows) < len(results[order[y]].Rows)
	})

	entityBind := make(map[string]int64)
	pattTimes := make(map[string][2]int64) // pattern ID -> start,end
	pattEvent := make(map[string]int64)    // pattern ID -> event row ID

	var resolveAttr func(c relational.ColRef) (relational.Value, error)
	resolveAttr = func(c relational.ColRef) (relational.Value, error) {
		id, ok := entityBind[c.Qualifier]
		if !ok {
			return relational.Null(), fmt.Errorf("engine: unbound entity %s", c.Qualifier)
		}
		return attrOf(id, c.Column), nil
	}

	checkRelations := func() (bool, error) {
		for _, rel := range q.Relations {
			switch rel.Kind {
			case tbql.RelAttr:
				v, err := relational.EvalExpr(rel.Attr, resolveAttr)
				if err != nil {
					return false, err
				}
				if !v.Truthy() {
					return false, nil
				}
			default:
				ta, okA := pattTimes[rel.A]
				tb, okB := pattTimes[rel.B]
				if !okA || !okB {
					return false, fmt.Errorf("engine: temporal relation on pattern without event times")
				}
				if !temporalHolds(rel, ta[0], tb[0]) {
					return false, nil
				}
			}
		}
		return true, nil
	}

	// emit runs on every complete binding: relation checks, event
	// collection, and return projection. Shared by the hash join and the
	// backtracking walk.
	emit := func() error {
		ok, err := checkRelations()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		joined++
		for _, ev := range pattEvent {
			matched[ev] = true
		}
		row := make([]relational.Value, len(a.ReturnItems))
		for i, item := range a.ReturnItems {
			row[i] = attrOf(entityBind[item.EntityID], item.Attr)
		}
		rs.Rows = append(rs.Rows, row)
		return nil
	}

	// bindRow binds one pattern's row, returning false when it conflicts
	// with existing bindings, plus an undo closure.
	bindRow := func(pr PatternRows, r [5]int64) (bool, func()) {
		p := q.Patterns[pr.Idx]
		sPrev, sBound := entityBind[p.Subject.ID]
		if sBound && sPrev != r[1] {
			return false, nil
		}
		oPrev, oBound := entityBind[p.Object.ID]
		if oBound && oPrev != r[2] {
			return false, nil
		}
		if !sBound {
			entityBind[p.Subject.ID] = r[1]
		}
		// Re-check the object binding: binding the subject may have bound
		// the same variable when subject and object share it.
		oPrev, oBound = entityBind[p.Object.ID]
		if oBound && oPrev != r[2] {
			if !sBound {
				delete(entityBind, p.Subject.ID)
			}
			return false, nil
		}
		if !oBound {
			entityBind[p.Object.ID] = r[2]
		}
		if pr.HasEvent {
			pattTimes[p.ID] = [2]int64{r[3], r[4]}
			pattEvent[p.ID] = r[0]
		}
		return true, func() {
			if pr.HasEvent {
				delete(pattTimes, p.ID)
				delete(pattEvent, p.ID)
			}
			if !oBound {
				delete(entityBind, p.Object.ID)
			}
			if !sBound {
				delete(entityBind, p.Subject.ID)
			}
		}
	}

	runJoin := func() error {
		if len(order) == 2 {
			if ok, err := hashJoin2(q, results, order, bindRow, emit, checkCancel); ok {
				return err
			}
		}
		var walk func(k int) error
		walk = func(k int) error {
			if k == len(order) {
				return emit()
			}
			pr := results[order[k]]
			for _, r := range pr.Rows {
				if err := checkCancel(); err != nil {
					return err
				}
				ok, undo := bindRow(pr, r)
				if !ok {
					continue
				}
				if err := walk(k + 1); err != nil {
					undo()
					return err
				}
				undo()
			}
			return nil
		}
		return walk(0)
	}
	if err := runJoin(); err != nil {
		return nil, joined, err
	}

	if q.Return.Distinct {
		rs.Rows = relational.DedupRows(rs.Rows)
	}
	return &Result{Set: rs, MatchedEvents: matched}, joined, nil
}

// hashJoin2 joins exactly two patterns on their shared entity variables:
// the smaller side is indexed by its shared-variable values, the larger
// side probes. Returns ok=false (and does nothing) when the patterns
// share no entity variable — the cross-product walk handles that case.
func hashJoin2(q *tbql.Query, results []PatternRows, order []int,
	bindRow func(PatternRows, [5]int64) (bool, func()), emit func() error,
	checkCancel func() error) (bool, error) {

	small, large := results[order[0]], results[order[1]]
	ps, pl := q.Patterns[small.Idx], q.Patterns[large.Idx]

	// Shared entity variables, as (column in small row, column in large
	// row) pairs; row columns 1 and 2 hold subject and object IDs. Up to
	// four pairs arise when a pattern uses one variable as both subject
	// and object (self-loop) on each side.
	type colPair struct{ s, l int }
	var shared []colPair
	for _, sc := range []struct {
		id  string
		col int
	}{{ps.Subject.ID, 1}, {ps.Object.ID, 2}} {
		if sc.id == pl.Subject.ID {
			shared = append(shared, colPair{sc.col, 1})
		}
		if sc.id == pl.Object.ID {
			shared = append(shared, colPair{sc.col, 2})
		}
	}
	if len(shared) == 0 {
		return false, nil
	}

	type key [4]int64
	keyOfSmall := func(r [5]int64) key {
		var k key
		for i, cp := range shared {
			k[i] = r[cp.s]
		}
		return k
	}
	keyOfLarge := func(r [5]int64) key {
		var k key
		for i, cp := range shared {
			k[i] = r[cp.l]
		}
		return k
	}

	idx := make(map[key][][5]int64, len(small.Rows))
	for _, r := range small.Rows {
		k := keyOfSmall(r)
		idx[k] = append(idx[k], r)
	}
	for _, rl := range large.Rows {
		if err := checkCancel(); err != nil {
			return true, err
		}
		for _, rsm := range idx[keyOfLarge(rl)] {
			okS, undoS := bindRow(small, rsm)
			if !okS {
				continue
			}
			okL, undoL := bindRow(large, rl)
			if !okL {
				undoS()
				continue
			}
			err := emit()
			undoL()
			undoS()
			if err != nil {
				return true, err
			}
		}
	}
	return true, nil
}

func temporalHolds(rel tbql.Relation, startA, startB int64) bool {
	switch rel.Kind {
	case tbql.RelBefore:
		if startA >= startB {
			return false
		}
		if rel.HasDur {
			d := startB - startA
			return d >= rel.LoDur.Microseconds() && d <= rel.HiDur.Microseconds()
		}
		return true
	case tbql.RelAfter:
		if startA <= startB {
			return false
		}
		if rel.HasDur {
			d := startA - startB
			return d >= rel.LoDur.Microseconds() && d <= rel.HiDur.Microseconds()
		}
		return true
	case tbql.RelWithin:
		d := startA - startB
		if d < 0 {
			d = -d
		}
		return d <= rel.HiDur.Microseconds()
	}
	return false
}

// ExecuteMonolithicSQL lowers the query into one giant statement and runs
// it on the relational backend (query type (b) in RQ4). The statement is
// lowered to an AST and compiled once per plan — no SQL text, no parser.
func (en *Engine) ExecuteMonolithicSQL(ctx context.Context, a *tbql.Analyzed) (rs *relational.ResultSet, stats Stats, err error) {
	defer guard(a, &err)
	pr, err := en.planFor(a, nil, false).monolithicSQL(en.Store, a)
	if err != nil {
		return nil, stats, err
	}
	rs, qs, err := pr.QueryCtx(ctx, nil)
	stats.DataQueries = 1
	stats.Rel = qs
	return rs, stats, err
}

// ExecuteMonolithicCypher lowers the query into one giant multi-MATCH
// graph query and runs it with the clause-at-a-time plan that production
// graph databases use for multi-MATCH statements (query type (d) in RQ4).
func (en *Engine) ExecuteMonolithicCypher(ctx context.Context, a *tbql.Analyzed) (rs *relational.ResultSet, stats Stats, err error) {
	defer guard(a, &err)
	q, err := en.planFor(a, nil, false).monolithicCypher(en.Store, a)
	if err != nil {
		return nil, stats, err
	}
	rs, gs, err := en.Store.Graph.ExecWithCtx(ctx, q, nil)
	stats.DataQueries = 1
	stats.Graph = gs
	return rs, stats, err
}

// MatchEventsPerPattern returns the union of event IDs matched by each
// pattern's data query evaluated independently. This is the paper's RQ2
// scoring semantics ("the system events found by the event patterns in the
// synthesized TBQL query"): an excessive pattern that matches nothing does
// not empty the other patterns' findings.
func (en *Engine) MatchEventsPerPattern(ctx context.Context, a *tbql.Analyzed) (matched map[int64]bool, err error) {
	defer guard(a, &err)
	matched = make(map[int64]bool)
	snap := en.Store.Snapshot()
	plan := en.planFor(a, snap, false)
	for idx := range a.Query.Patterns {
		pr, _, err := en.runPattern(ctx, a, plan, snap, PatternQuery{Idx: idx})
		if err != nil {
			return nil, err
		}
		if !pr.HasEvent {
			continue
		}
		for _, r := range pr.Rows {
			matched[r[0]] = true
		}
	}
	return matched, nil
}

// Hunt parses, analyzes, and executes TBQL source with the scheduled
// plan. The compiled query is cached by source text (see Compile), so a
// repeat hunt re-parses nothing. ctx cancels the execution cooperatively
// (see Execute); a nil context never cancels.
func (en *Engine) Hunt(ctx context.Context, src string) (*Result, Stats, error) {
	a, err := en.Compile(src)
	if err != nil {
		return nil, Stats{}, err
	}
	return en.Execute(ctx, a)
}
