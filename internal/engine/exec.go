package engine

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"unique"

	"threatraptor/internal/faultinject"
	"threatraptor/internal/graphdb"
	"threatraptor/internal/qir"
	"threatraptor/internal/relational"
	"threatraptor/internal/tbql"
)

// Stats summarizes one TBQL execution.
type Stats struct {
	DataQueries int // small SQL/Cypher queries issued
	// PatternRows counts the pattern rows the row source handed the loop:
	// the [5]int64 tuples the data queries' sinks collected, or the view
	// rows read in their place. No pattern row is ever a []Value.
	PatternRows int
	// JoinBindings counts the complete bindings the cross-pattern join
	// reached: every binding of a plain return; under a distinct return
	// only the completions its walk reached after the sub-walk memo skipped
	// the prefixes whose outcome it already knew (see join.go).
	JoinBindings int
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
	// DisableScheduling turns off pruning-score ordering and constraint
	// feeding (the ablation of the paper's core RQ4 optimization): data
	// queries run in declaration order without added constraints. Set it
	// before the first execution — cached plans keep the order they were
	// compiled with.
	DisableScheduling bool
	// ViewHighWater caps the total rows the engine may hold in
	// materialized pattern views (the standing-query match caches): 0
	// selects DefaultViewHighWater, a negative value disables views
	// entirely. A query whose views would cross the cap runs its patterns'
	// data queries under the same delta rule instead — delta rounds stay
	// correct, just not O(delta).
	ViewHighWater int

	// planMu guards the compiled-query caches (see plan.go): plans by
	// analyzed query with Hunt's source-text index into them, and the
	// shape plans they share, each with its eviction clock.
	planMu     sync.Mutex
	plans      map[*tbql.Analyzed]*queryPlan
	texts      map[string]*tbql.Analyzed
	planClock  clock[*queryPlan]
	shapes     map[unique.Handle[string]]*shapePlan
	shapeClock clock[*shapePlan]

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
// The query's literal vector binds as the plan's value slots. The
// backends hand their rows to a rowSink as int tuples, which appends
// them to the pattern's pooled buffer buf — or, with buf nil, to a slice
// of the caller's own (a view or a scatter merge keeps the rows).
func (en *Engine) runPattern(ctx context.Context, a *tbql.Analyzed, plan *queryPlan, snap *Snapshot, q PatternQuery, buf *patternBuf) (PatternRows, Stats, error) {
	p := a.Query.Patterns[q.Idx]
	pr := PatternRows{Idx: q.Idx, HasEvent: true}
	if err := ctxErr(ctx); err != nil {
		return pr, Stats{}, err
	}
	if err := faultinject.Hit(FaultExecutePattern); err != nil {
		return pr, Stats{}, fmt.Errorf("engine: pattern %s: %w", p.ID, err)
	}
	pp := &plan.pats[q.Idx]
	if buf == nil {
		buf = &patternBuf{}
	}
	sink := &buf.sink
	sink.rows, sink.at = sink.rows[:0], 0
	if pp.meta.UsesGraph {
		var st Stats
		pr.HasEvent = pp.ir.Path.HasEdgeVar
		if !pr.HasEvent {
			sink.at = 1 // a variable-length path returns (subject, object)
		}
		params, none, err := en.graphParams(ctx, a, pp, snap, q, &buf.ids, &st)
		if err == nil && !none {
			st.Graph, err = en.Store.Graph.QueryInts(ctx, pp.gp, params, sink)
		}
		pr.Rows = sink.rows
		if err != nil {
			return pr, st, fmt.Errorf("engine: pattern %s: %w", p.ID, err)
		}
		st.DataQueries, st.PatternRows = 1, len(pr.Rows)
		return pr, st, nil
	}
	prep, params, err := en.relQuery(a, pp, plan, snap, q)
	if err != nil {
		return pr, Stats{}, fmt.Errorf("engine: pattern %s: %w", p.ID, err)
	}
	qs, err := prep.QueryInts(ctx, &params, sink)
	pr.Rows = sink.rows
	if err != nil {
		return pr, Stats{}, fmt.Errorf("engine: pattern %s: %w", p.ID, err)
	}
	return pr, Stats{DataQueries: 1, PatternRows: len(pr.Rows), Rel: qs}, nil
}

// graphParams binds a graph pattern's data query q as execution
// parameters: the binding sets, the delta floor, a's literal vector and
// the snapshot. none reports that the anchor prefilter (run here into
// ids, its cost counted in st) accepted no subject, so the pattern
// matches nothing.
func (en *Engine) graphParams(ctx context.Context, a *tbql.Analyzed, pp *patternPlan, snap *Snapshot, q PatternQuery, ids *idSink, st *Stats) (params *graphdb.ExecParams, none bool, err error) {
	subj := q.Subj
	if subj == nil && pp.ir.Path.SubjPred != nil && (q.Delta == 0 || pp.meta.VarLen) {
		// Graph anchor access path: a predicated subject with no binding
		// set takes its candidates from the entity columns, so the
		// traversal anchors on those IDs instead of testing the predicate
		// on every node of the label. (Objects are reached only through
		// the anchors' edges, so their predicate is tested on few nodes;
		// prefiltering them costs an entities index probe. When that cost
		// was an entities scan, the hunt pool measured it as a net loss. A
		// floored single hop is driven from the new edges instead of from
		// anchors.)
		if subj, err = en.anchorIDs(ctx, a, pp, snap, st, ids); err != nil || len(subj) == 0 {
			return nil, err == nil, err
		}
	}
	if len(subj) == 0 && len(q.Obj) == 0 && q.Delta == 0 && snap == nil && len(a.Lits) == 0 {
		return nil, false, nil
	}
	gp := graphdb.ExecParams{Vals: a.Lits}
	var nb [2]graphdb.NodeBinding
	n := 0
	if len(subj) > 0 {
		nb[n] = graphdb.NodeBinding{Var: "s", IDs: subj}
		n++
	}
	if len(q.Obj) > 0 {
		nb[n] = graphdb.NodeBinding{Var: "o", IDs: q.Obj}
		n++
	}
	gp.Nodes = nb[:n]
	if q.Delta > 0 {
		// The floor keeps the matches whose trail uses a new edge. The
		// graph executor's floor is a dense edge-arena offset, which
		// equals the event ID only when the store holds the full 1..n ID
		// space. A shard's sub-log has gaps, so the global event-ID floor
		// translates through the snapshot's ID-ordered event slice
		// (identity for dense stores).
		gp.MinEdgeID = snapEdgeFloor(snap, q.Delta)
	}
	if snap != nil {
		gp.View = &snap.Graph
	}
	return &gp, false, nil
}

// relQuery returns an event pattern's compiled statement for data query
// q and q's parameter values: the binding sets, the delta floor, a's
// literal vector and the snapshot.
func (en *Engine) relQuery(a *tbql.Analyzed, pp *patternPlan, plan *queryPlan, snap *Snapshot, q PatternQuery) (*relational.Prepared, relational.Params, error) {
	params := relational.Params{Vals: a.Lits}
	var prep *relational.Prepared
	var err error
	if q.Delta > 0 {
		// Delta rounds anchor on the events table so the scan starts at
		// the floor instead of walking the entity anchor's history.
		prep, err = pp.preparedDelta(en.Store, plan.bounds)
	} else {
		prep, err = pp.prepared(en.Store, plan.bounds)
	}
	params.Lists[qir.SlotSubjIDs] = q.Subj
	params.Lists[qir.SlotObjIDs] = q.Obj
	params.Ints[qir.SlotDelta] = q.Delta
	if snap != nil {
		params.Snap = &snap.Rel
	}
	return prep, params, err
}

// patternBuf is one pattern's row buffers, pooled in the loop scratch:
// the sink its data query's rows land in, and the IDs its anchor
// prefilter accepts. They keep the capacity their rows grew them to.
type patternBuf struct {
	sink rowSink
	ids  idSink
}

// rowSink receives a data query's rows (see runPattern): each int tuple
// lands in rows as [event, subject, object, start, end], its first
// column at position at (1 for a variable-length path's subject, object
// pair; 0 otherwise).
type rowSink struct {
	rows [][5]int64
	at   int
}

func (s *rowSink) Row(row []int64) {
	var r [5]int64
	copy(r[s.at:], row)
	s.rows = append(s.rows, r)
}

// idSink collects an anchor prefilter's single ID column.
type idSink []int64

func (s *idSink) Row(row []int64) { *s = append(*s, row[0]) }

// anchorIDs runs a graph pattern's subject prefilter (see
// lowerEntityFilter) on the pinned snapshot and returns the sorted unique
// IDs it accepts, collected in ids; its index probe or scan is counted in
// st.Rel.
func (en *Engine) anchorIDs(ctx context.Context, a *tbql.Analyzed, pp *patternPlan, snap *Snapshot, st *Stats, ids *idSink) ([]int64, error) {
	prep, err := pp.anchorFilter(en.Store)
	if err != nil {
		return nil, err
	}
	params := relational.Params{Vals: a.Lits}
	if snap != nil {
		params.Snap = &snap.Rel
	}
	*ids = (*ids)[:0]
	qs, err := prep.QueryInts(ctx, &params, ids)
	st.Add(Stats{Rel: qs})
	if err != nil {
		return nil, err
	}
	slices.Sort(*ids) // rows come in table order, whatever order the IDs were inserted in
	return slices.Compact(*ids), nil
}

// bindingSpec selects the scheduler's binding-set constraints for a
// pattern from the slot-indexed sets (empty = unbound). Binding sets are
// kept as sorted unique ID slices — the representation both backends'
// membership checks and index probes consume directly as bound
// parameters. A set larger than maxInList is left to the join.
func bindingSpec(jp *joinProgram, idx int, sets [][]int64) (subj, obj []int64) {
	if set := sets[jp.subj[idx]]; len(set) > 0 && len(set) <= maxInList {
		subj = set
	}
	if set := sets[jp.obj[idx]]; len(set) > 0 && len(set) <= maxInList {
		obj = set
	}
	return subj, obj
}

// maxInList bounds how many entity IDs the scheduler pushes into a
// dependent data query as an IN constraint; larger binding sets are left
// to the join phase.
const maxInList = 2000

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
	sc := en.acquireScratch(len(plan.pats))
	defer en.releaseScratch(sc)
	if src == nil {
		src = en.localSource(a, plan, snap, sc)
	}
	res, stats, err = en.run(ctx, a, plan, snap, src, sc, -1, 0)
	if res == nil && err == nil {
		res = emptyResult(plan.cols)
	}
	return res, stats, err
}

// localSource is the engine's own row source: each data query runs on the
// backends against the pinned snapshot, into the pattern's pooled buffer.
func (en *Engine) localSource(a *tbql.Analyzed, plan *queryPlan, snap *Snapshot, sc *loopScratch) RowSource {
	return func(ctx context.Context, q PatternQuery) (PatternRows, Stats, error) {
		return en.runPattern(ctx, a, plan, snap, q, &sc.bufs[q.Idx])
	}
}

// run is the scheduled plan (Section III-F), the one place the engine
// orders patterns, feeds bindings, short-circuits, and joins: patterns go
// in pruning-score order (declaration order under DisableScheduling), each
// asks src for its rows under the binding sets narrowed by the patterns
// before it, a pattern with no rows — or whose rows empty an entity's
// binding set — empties the conjunction (nil result), and the surviving
// rows join into complete bindings. deltaIdx >= 0 makes it one turn of the
// delta-join rule: that pattern matches only rows that use an event with
// ID >= floor. An event or single-hop pattern is hoisted to the front — a
// floor over a small append usually matches nothing (ending the turn
// after one data query) or a handful of rows whose bindings prune every
// later pattern. A variable-length path keeps its scheduled position: its
// floored traversal is the unfloored one filtered at emit, so it gains
// nothing from going first and everything from the binding sets before it.
func (en *Engine) run(ctx context.Context, a *tbql.Analyzed, plan *queryPlan, snap *Snapshot, src RowSource, sc *loopScratch, deltaIdx int, floor int64) (*Result, Stats, error) {
	order := plan.order
	if deltaIdx >= 0 && !plan.pats[deltaIdx].meta.VarLen {
		sc.order = append(sc.order[:0], deltaIdx)
		for _, idx := range plan.order {
			if idx != deltaIdx {
				sc.order = append(sc.order, idx)
			}
		}
		order = sc.order
	}

	var stats Stats
	jp := plan.joinProgram(a)
	sc.resetSets(jp.nslots)
	for i, idx := range order {
		p := a.Query.Patterns[idx]
		q := PatternQuery{Idx: idx, Meta: plan.meta(idx)}
		if !en.DisableScheduling {
			q.Subj, q.Obj = bindingSpec(jp, idx, sc.sets)
		}
		if idx == deltaIdx {
			q.Delta = floor
		}
		pr, st, err := src(ctx, q)
		if err != nil {
			return nil, stats, err
		}
		stats.Add(st)
		sc.results[idx] = pr
		// A pattern with no matches empties the whole conjunction, and so
		// does an entity whose rows so far share no ID. The last pattern's
		// rows feed no later query, so only the join reads them.
		empty := len(pr.Rows) == 0
		if !empty && !en.DisableScheduling && i < len(order)-1 {
			empty = !sc.narrow(jp.subj[idx], pr.Rows, 1) || !sc.narrow(jp.obj[idx], pr.Rows, 2)
		}
		if empty {
			stats.EmptyPatternID = p.ID
			return nil, stats, nil
		}
	}

	res, joined, err := sc.join.join(ctx, jp, plan.cols, snap.EntityAttr, sc.results)
	stats.JoinBindings = joined
	return res, stats, err
}

// ExecuteDelta evaluates a query incrementally after an append: it returns
// the complete bindings that use at least one event with ID >= minEventID
// — for a variable-length path, a trail through at least one such event.
// One delta rule does it for every query: each pattern takes a turn as the
// delta pattern, its rows floored at minEventID, and joins against the
// other patterns' full history. The rows come from the pattern's
// materialized view when it holds one — brought up to the store frontier
// with one floored catch-up query, O(new events) — so a round of event
// and single-hop patterns costs O(delta), not O(store). Variable-length
// paths hold no view, nor does any pattern of a query whose views would
// cross the ViewHighWater cap (or when ViewHighWater < 0): those run their
// data query, floored on their turn. A binding with several new events
// appears once per delta pattern, so callers deduplicate firings.
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
// selects the engine's own source: materialized views where the plan
// holds them, the backends elsewhere.
func (en *Engine) ExecuteDeltaSource(ctx context.Context, a *tbql.Analyzed, snap *Snapshot, minEventID int64, src RowSource) (res *Result, stats Stats, err error) {
	defer guard(a, &err)
	plan := en.planFor(a, snap, true)
	sc := en.acquireScratch(len(plan.pats))
	defer en.releaseScratch(sc)
	if src == nil {
		qs := plan.state()
		qs.viewMu.Lock()
		defer qs.viewMu.Unlock()
		if err := en.ensureViews(ctx, a, snap, plan, qs, &stats); err != nil {
			return nil, stats, err
		}
		src = en.viewSource(a, plan, qs, snap, sc)
	}
	res, st, err := en.deltaRule(ctx, a, plan, snap, src, sc, minEventID)
	stats.Add(st)
	return res, stats, err
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
// the per-pattern result slots, the slot-indexed binding sets and the
// narrow scratch, the hoisted order, the per-pattern row buffers (data
// query rows, or a view source's filter output), and the join walk.
// Pooled on the engine so steady-state hunts and standing-query rounds
// allocate almost nothing.
type loopScratch struct {
	results []PatternRows
	sets    [][]int64 // per entity slot: sorted unique allowed IDs (empty = unbound)
	ids     []int64
	order   []int
	bufs    []patternBuf
	join    joinWalk
}

func (en *Engine) acquireScratch(n int) *loopScratch {
	sc, _ := en.scratchPool.Get().(*loopScratch)
	if sc == nil {
		sc = &loopScratch{}
	}
	if cap(sc.results) < n {
		sc.results = make([]PatternRows, n)
		sc.bufs = make([]patternBuf, n)
	}
	sc.results = sc.results[:n]
	sc.bufs = sc.bufs[:n]
	return sc
}

func (en *Engine) releaseScratch(sc *loopScratch) {
	for i := range sc.results {
		sc.results[i] = PatternRows{}
		if b := &sc.bufs[i]; cap(b.sink.rows) > maxPooledRows || cap(b.ids) > maxPooledRows {
			*b = patternBuf{}
		}
	}
	for i, set := range sc.sets {
		if cap(set) > maxPooledRows {
			sc.sets[i] = nil
		}
	}
	if cap(sc.ids) > maxPooledRows {
		sc.ids = nil
	}
	sc.join.reset()
	en.scratchPool.Put(sc)
}

// resetSets empties n slot binding sets, keeping their buffers.
func (sc *loopScratch) resetSets(n int) {
	if cap(sc.sets) < n {
		sc.sets = append(sc.sets[:cap(sc.sets)], make([][]int64, n-cap(sc.sets))...)
	}
	sc.sets = sc.sets[:n]
	for i := range sc.sets {
		sc.sets[i] = sc.sets[i][:0]
	}
}

func countConjuncts(e relational.Expr) int {
	if bin, ok := e.(relational.BinOp); ok && bin.Op == "and" {
		return countConjuncts(bin.L) + countConjuncts(bin.R)
	}
	return 1
}

// narrow intersects slot's binding set with the IDs in column col of a
// pattern's rows and reports whether the set is still non-empty. Sets are
// sorted unique slices: the new IDs are sorted and deduplicated in the
// scratch buffer, a first binding swaps that buffer with the slot's empty
// one, and an existing set shrinks in place by linear merge-intersection —
// no per-pattern hash maps and, in steady state, no allocation.
func (sc *loopScratch) narrow(slot int, rows [][5]int64, col int) bool {
	ids := sc.ids[:0]
	for _, r := range rows {
		ids = append(ids, r[col])
	}
	slices.Sort(ids)
	ids = slices.Compact(ids)
	set := sc.sets[slot]
	if len(set) == 0 {
		sc.sets[slot], sc.ids = ids, set
		return len(ids) > 0
	}
	sc.sets[slot], sc.ids = intersectSorted(set, ids), ids
	return len(sc.sets[slot]) > 0
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

// ExecuteMonolithicSQL lowers the query into one giant statement and runs
// it on the relational backend (query type (b) in RQ4). The statement is
// lowered to an AST against the plan's snapshot bounds and compiled once
// per plan — no SQL text, no parser. Like ExecuteMonolithicCypher it reads
// the live tables, so callers synchronize with the writer.
func (en *Engine) ExecuteMonolithicSQL(ctx context.Context, a *tbql.Analyzed) (rs *relational.ResultSet, stats Stats, err error) {
	defer guard(a, &err)
	pr, err := en.planFor(a, en.Store.Snapshot(), false).monolithicSQL(en.Store, a)
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
// The query is compiled once per plan, like ExecuteMonolithicSQL's.
func (en *Engine) ExecuteMonolithicCypher(ctx context.Context, a *tbql.Analyzed) (rs *relational.ResultSet, stats Stats, err error) {
	defer guard(a, &err)
	pq, err := en.planFor(a, en.Store.Snapshot(), false).monolithicCypher(a)
	if err != nil {
		return nil, stats, err
	}
	rs, gs, err := en.Store.Graph.ExecPrepared(ctx, pq, nil)
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
	var buf patternBuf
	for idx := range a.Query.Patterns {
		pr, _, err := en.runPattern(ctx, a, plan, snap, PatternQuery{Idx: idx}, &buf)
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
