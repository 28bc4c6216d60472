package engine

import (
	"sort"
	"sync"
	"sync/atomic"
	"unique"

	"threatraptor/internal/audit"
	"threatraptor/internal/graphdb"
	"threatraptor/internal/qir"
	"threatraptor/internal/relational"
	"threatraptor/internal/tbql"
)

// patternPlan is one pattern's compiled data query: its logical-plan IR
// plus the lowered backend plans, shared by every query of the shape it
// was compiled for (value literals are slots the execution binds). Graph
// patterns lower eagerly to one traversal plan (parameters bind per
// execution); event patterns lower lazily to exactly two relational
// statements — the entity-anchored plan whose optional parameter
// predicates (binding sets, delta floor) prune themselves at execution,
// and the events-anchored catch-up plan delta rounds use so the scan
// starts at the floor. Every execution reuses a compiled physical plan
// and binds values — no text, no parsing, no per-binding-set cache, no
// per-extras-shape variants.
type patternPlan struct {
	ir *qir.DataQuery
	gq *graphdb.Query
	gp *graphdb.Prepared // gq compiled to binding slots
	// meta is the pattern's routing shape: which backend it lowers to, and
	// what a scatter coordinator prunes shards with. View catch-up skips
	// its data query entirely when a delta's batch op bitmap doesn't
	// intersect meta.OpMask.
	meta PatternMeta

	mu       sync.Mutex
	rel      stmtCache // entity-anchored, runtime-pruned params
	relDelta stmtCache // events-anchored, for delta floors
	// anchor is a graph pattern's subject prefilter over the entities
	// table, compiled on first use.
	anchor stmtCache
}

// patternOpMask folds a pattern's admissible operations into an op-code
// bitmask. Only the bound (final-hop) event is constrained, so anything
// other than an event pattern or a single-hop path is unconstrained (^0)
// — as is an empty op list or an op keyword the audit model doesn't know.
func patternOpMask(ir *qir.DataQuery) uint32 {
	var ops []string
	switch {
	case ir.Event != nil:
		ops = ir.Event.Ops
	case ir.Path != nil && ir.Path.MinLen == 1 && ir.Path.MaxLen == 1:
		ops = ir.Path.Ops
	}
	if len(ops) == 0 {
		return ^uint32(0)
	}
	var mask uint32
	for _, name := range ops {
		op, err := audit.ParseOp(name)
		if err != nil {
			return ^uint32(0)
		}
		mask |= op.Bit()
	}
	return mask
}

// stmtCache is one lazily compiled relational statement and the index
// generation (relational.DB.IndexGen) it was planned at. A recovered store
// builds its declared indexes at its first append, after plans compiled on
// the bare restore chose scans; a statement from an older generation is
// therefore lowered and planned again, so a cached plan never keeps a
// store's index-less access paths.
type stmtCache struct {
	pr  *relational.Prepared
	gen uint64
}

// get returns the cached statement, or lowers and prepares it when absent
// or planned at an older index generation. The caller serializes calls.
func (c *stmtCache) get(db *relational.DB, lower func() (*relational.SelectStmt, error)) (*relational.Prepared, error) {
	gen := db.IndexGen() // read first: a build racing the prepare re-plans next call
	if c.pr != nil && c.gen == gen {
		return c.pr, nil
	}
	stmt, err := lower()
	if err != nil {
		return nil, err
	}
	pr, err := db.Prepare(stmt)
	if err != nil {
		return nil, err
	}
	c.pr, c.gen = pr, gen
	return pr, nil
}

// prepared returns the pattern's compiled relational plan, lowering and
// compiling it on first use against the owning queryPlan's fixed bounds
// (so lazy compilation on a reader goroutine never touches the writer's
// live Store bounds).
func (pp *patternPlan) prepared(s *Store, b timeBounds) (*relational.Prepared, error) {
	pp.mu.Lock()
	defer pp.mu.Unlock()
	return pp.rel.get(s.Rel, func() (*relational.SelectStmt, error) {
		return lowerEventStmt(b, pp.ir.Event), nil
	})
}

// preparedDelta returns the pattern's events-anchored catch-up plan,
// lowering and compiling it on first use.
func (pp *patternPlan) preparedDelta(s *Store, b timeBounds) (*relational.Prepared, error) {
	pp.mu.Lock()
	defer pp.mu.Unlock()
	return pp.relDelta.get(s.Rel, func() (*relational.SelectStmt, error) {
		return lowerEventStmtDeltaAnchored(b, pp.ir.Event), nil
	})
}

// anchorFilter returns the compiled entity prefilter of a graph pattern's
// subject, lowering and compiling it on first use.
func (pp *patternPlan) anchorFilter(s *Store) (*relational.Prepared, error) {
	pp.mu.Lock()
	defer pp.mu.Unlock()
	return pp.anchor.get(s.Rel, func() (*relational.SelectStmt, error) {
		return lowerEntityFilter(audit.EntityProcess, pp.ir.Path.SubjPred), nil
	})
}

// shapePlan is one entry of the engine's shape cache: everything about
// the analyzed queries of one shape (tbql.Analyzed.Shape, the query with
// its value literals erased) that does not change between executions or
// between their literal vectors — the pruning-score order, the
// per-pattern IR and routing metadata, the lowered backend plans, the
// join program and the projected columns.
type shapePlan struct {
	// key is the shape. The clock reference bit is set when a query finds
	// the shape cached, or a cached query plan built on it is hit.
	key unique.Handle[string]
	clockRef

	order []int
	irs   []*qir.DataQuery
	pats  []patternPlan
	// cols caches the query's projected column labels (shared by every
	// result set the query produces).
	cols []string
	// windowSensitive marks plans whose lowered window conditions resolve
	// against the store's time bounds (LAST/BEFORE/AFTER); they are
	// re-lowered from the cached IR when a live append moves the bounds.
	// boundsEpoch records the bounds generation lowered against, and bounds
	// the actual bound values — lazy per-pattern lowering reuses them so
	// the whole plan is consistent with one epoch.
	windowSensitive bool
	boundsEpoch     uint64
	bounds          timeBounds

	// joinOnce builds join, the query's compiled join program, on the
	// first execution (cold compiles that never execute skip it).
	joinOnce sync.Once
	join     *joinProgram
}

// queryPlan is one entry of the engine's compiled-query cache: an
// analyzed query's shape plan, plus what depends on its literal vector —
// its queryState.
type queryPlan struct {
	*shapePlan
	// a is the query and src the TBQL text Compile cached it under (""
	// for a query the caller analyzed itself); pinned marks a standing
	// query's plan, which overflow never evicts. The clock reference bit
	// is set on each cache hit but the first (Hunt executing the plan its
	// Compile just built is one use, so a text hunted once goes first),
	// which hit records. All are guarded by Engine.planMu. (The embedded
	// clockRef is the query's, not its shape's.)
	a      *tbql.Analyzed
	src    string
	pinned bool
	hit    bool
	clockRef

	// st is allocated by the first execution that needs it (see state).
	st atomic.Pointer[queryState]
}

// queryState is what a query holds beyond its shape's plan, allocated on
// first use because most queries are hunted, never watched or run
// monolithic: the materialized views of a standing query, whose rows
// depend on the query's literals, and the RQ4 monolithic plans, which
// inline them.
type queryState struct {
	// viewMu guards the materialized views — views[i] is pattern i's
	// (views is nil until ExecuteDelta first materializes one) — and the
	// fallback state below. ExecuteDelta holds it across catch-up and the
	// view-backed join.
	viewMu sync.Mutex
	views  []*matView
	// viewsDisabled records that a view of this plan hit the row cap: every
	// pattern runs its data query and no view of the plan is maintained or
	// charged against the cap. The latch is not permanent: disabledGen remembers
	// the engine's view-release generation at fallback time, and the next
	// delta round retries materialization once other views have released
	// rows since (DropViews also re-arms directly). Under sustained cap
	// pressure with no releases, no retry — no per-round O(store) waste.
	viewsDisabled bool
	disabledGen   int64

	// Monolithic plans (the paper's RQ4 naive comparison), lowered lazily.
	monoMu    sync.Mutex
	monoSQL   stmtCache
	monoCy    *graphdb.Prepared
	monoCyErr error
}

// state returns the query's state, allocating it on first use.
func (p *queryPlan) state() *queryState {
	if s := p.st.Load(); s != nil {
		return s
	}
	p.st.CompareAndSwap(nil, &queryState{})
	return p.st.Load()
}

// meta returns pattern idx's routing metadata, its shape's.
func (p *queryPlan) meta(idx int) *PatternMeta { return &p.pats[idx].meta }

// maxCachedQueryPlans bounds the compiled-query cache and, separately,
// the shape cache. Ad-hoc hunts with never-repeating texts would
// otherwise grow them without bound; on overflow each evicts one entry
// (see clock), never one a standing query pins.
const maxCachedQueryPlans = 256

// clockRef is a cache entry's place in its clock: the ring slot, and the
// reference bit. Guarded by Engine.planMu.
type clockRef struct {
	slot int32
	ref  bool
}

func (r *clockRef) entry() *clockRef { return r }

// clock is a cache's second-chance eviction order: the cache's entries in
// a ring, and a hand.
type clock[E interface{ entry() *clockRef }] struct {
	ring []E
	hand int
}

// insert adds e to the ring. A ring holding max entries first evicts
// one: the hand sweeps to the first entry that is neither referenced nor
// pinned, clearing the reference bit of each entry it passes — so an
// entry hit since the hand last passed it gets a second chance, while one
// inserted and never hit goes first — evicts it and puts e in its slot.
// When every entry is pinned, the ring grows instead.
func (c *clock[E]) insert(e E, max int, pinned func(E) bool, evict func(E)) {
	if len(c.ring) >= max {
		for range 2 * len(c.ring) {
			old := c.ring[c.hand]
			r := old.entry()
			if !r.ref && !pinned(old) {
				evict(old)
				e.entry().slot = int32(c.hand)
				c.ring[c.hand] = e
				c.hand = (c.hand + 1) % len(c.ring)
				return
			}
			r.ref = false
			c.hand = (c.hand + 1) % len(c.ring)
		}
	}
	e.entry().slot = int32(len(c.ring))
	c.ring = append(c.ring, e)
}

// replace puts e in old's ring slot, with old's reference bit.
func (c *clock[E]) replace(old, e E) {
	*e.entry() = *old.entry()
	c.ring[old.entry().slot] = e
}

// Compile returns the analyzed form of TBQL source through the
// compiled-query cache: a repeat text re-parses nothing and finds its
// plan (IR, backend plans, routing metadata) already built, and a new
// text of a cached shape finds its shape's.
func (en *Engine) Compile(src string) (*tbql.Analyzed, error) {
	return en.compile(src, func() (*tbql.Analyzed, error) {
		q, err := tbql.Parse(src)
		if err != nil {
			return nil, err
		}
		return tbql.Analyze(q)
	})
}

// CompileQuery is Compile for a query built as an AST (a synthesized
// one): it formats q once, and that text is both the cache key and src.
// A cached text returns its entry; a new one analyzes q itself, with no
// Parse, and caches it under src, where a later Compile(src) finds it
// (Parse(Format(q)) analyzes to the same query). q must be an AST that
// Parse can produce — a NOT LIKE on a literal without wildcards, which
// TBQL cannot spell, formats as a != that reparses as <> — or its cache
// key would analyze to a different query. The cache keeps q, which the
// caller must not modify afterwards.
func (en *Engine) CompileQuery(q *tbql.Query) (a *tbql.Analyzed, src string, err error) {
	src = tbql.Format(q)
	a, err = en.compile(src, func() (*tbql.Analyzed, error) { return tbql.Analyze(q) })
	return a, src, err
}

// compile looks src up in the compiled-query cache and, on a miss,
// analyzes it with analyze, plans it and caches it under src.
func (en *Engine) compile(src string, analyze func() (*tbql.Analyzed, error)) (*tbql.Analyzed, error) {
	en.planMu.Lock()
	a := en.texts[src]
	en.planMu.Unlock()
	if a != nil {
		return a, nil
	}
	a, err := analyze()
	if err != nil {
		return nil, err
	}
	snap := en.Store.Snapshot()
	en.planMu.Lock()
	defer en.planMu.Unlock()
	if won := en.texts[src]; won != nil {
		return won, nil // a concurrent compile of the same text got there first
	}
	en.planLocked(a, snap, false).src = src
	if en.texts == nil {
		en.texts = make(map[string]*tbql.Analyzed)
	}
	en.texts[src] = a
	return a, nil
}

// planFor returns the cached plan for a, building it on first use from
// its shape's plan (built on the shape's first use). A cached plan whose
// lowered window conditions depend on the store's time bounds is
// re-lowered (from the cached IR, never from source) when a live append
// has moved the bounds; plans without such windows survive appends
// untouched. snap is the caller's pinned snapshot: the plan's epoch and
// window bounds come from it, so a hunt racing an append gets a plan
// consistent with the store generation it reads (and never loads the
// writer-mutated live bounds). pin marks the plan as a standing query's:
// it (and the views it comes to hold) stays cached until DropViews.
func (en *Engine) planFor(a *tbql.Analyzed, snap *Snapshot, pin bool) *queryPlan {
	en.planMu.Lock()
	defer en.planMu.Unlock()
	return en.planLocked(a, snap, pin)
}

func (en *Engine) planLocked(a *tbql.Analyzed, snap *Snapshot, pin bool) *queryPlan {
	prev := en.plans[a]
	if prev != nil && (!prev.windowSensitive || prev.boundsEpoch == snap.Epoch) {
		prev.pinned = prev.pinned || pin
		if prev.hit {
			// A use of the query is one of its shape, too: a shape whose
			// queries only ever hit stays as hot as they are. (Marking a
			// shape the shape cache already evicted is harmless: nothing
			// reads its bit again.)
			prev.ref = true
			prev.shapePlan.ref = true
		}
		prev.hit = true
		return prev
	}
	p := &queryPlan{shapePlan: en.shapeLocked(a, snap), a: a, pinned: pin}
	if prev != nil {
		// Bounds-epoch recompile: materialized views of window-insensitive
		// patterns describe the same match set under the new plan, so they
		// migrate instead of rematerializing. Window-sensitive patterns'
		// match sets moved with the bounds: LAST-window views slide —
		// evict below the new lower bound, keep the frontier — and the
		// remaining sensitive kinds are released. A fallen-back plan stays
		// fallen back until DropViews re-arms it.
		p.src, p.pinned, p.hit = prev.src, prev.pinned || pin, prev.hit
		en.planClock.replace(prev, p)
		if old := prev.st.Load(); old != nil {
			old.viewMu.Lock()
			qs := p.state()
			qs.viewsDisabled = old.viewsDisabled
			if old.views != nil {
				qs.views = make([]*matView, len(old.views))
			}
			for i, v := range old.views {
				if v == nil {
					continue
				}
				if pp := &prev.pats[i]; pp.ir.Window().Sensitive() {
					if en.migrateSensitiveView(pp, v, p.bounds) {
						qs.views[i] = v // LAST window: slide, don't rebuild
					} else {
						en.releaseViewRows(v.retained())
					}
				} else {
					qs.views[i] = v
				}
				old.views[i] = nil
			}
			old.viewMu.Unlock()
		}
	} else {
		en.planClock.insert(p, maxCachedQueryPlans, func(old *queryPlan) bool { return old.pinned }, func(old *queryPlan) {
			en.releasePlanViews(old)
			delete(en.plans, old.a)
			delete(en.texts, old.src)
		})
	}
	if en.plans == nil {
		en.plans = make(map[*tbql.Analyzed]*queryPlan)
	}
	en.plans[a] = p
	return p
}

// shapeLocked returns the cached plan of a's shape at snap's bounds epoch,
// building it from a on the shape's first use, or re-lowering its cached
// IR when a window-sensitive shape's bounds moved. Callers hold planMu.
func (en *Engine) shapeLocked(a *tbql.Analyzed, snap *Snapshot) *shapePlan {
	epoch, b := snap.Epoch, snap.bounds()
	prev := en.shapes[a.Shape]
	if prev != nil && (!prev.windowSensitive || prev.boundsEpoch == epoch) {
		prev.ref = true
		return prev
	}
	sp := &shapePlan{key: a.Shape, order: en.schedule(a), boundsEpoch: epoch, bounds: b, cols: returnColumns(a)}
	if prev != nil {
		sp.irs = prev.irs // bounds moved: recompile from the cached IR
		en.shapeClock.replace(prev, sp)
	} else {
		sp.irs = tbql.Lower(a)
		en.shapeClock.insert(sp, maxCachedQueryPlans, func(*shapePlan) bool { return false },
			func(old *shapePlan) { delete(en.shapes, old.key) })
	}
	sp.pats = make([]patternPlan, len(sp.irs))
	for i, ir := range sp.irs {
		pp := &sp.pats[i]
		pp.ir = ir
		pp.meta = patternMeta(ir)
		if pp.meta.UsesGraph {
			pp.gq = lowerPathQuery(b, ir.Path, a.Query.Return.Distinct)
			pp.gp = graphdb.Prepare(pp.gq)
		}
		if ir.Window().Sensitive() {
			sp.windowSensitive = true
		}
	}
	if en.shapes == nil {
		en.shapes = make(map[unique.Handle[string]]*shapePlan)
	}
	en.shapes[a.Shape] = sp
	return sp
}

// releasePlanViews returns every materialized row of the plan's views to
// the engine's accounting (called when a plan leaves the cache, and by
// DropViews, which also re-arms a fallen-back plan for a fresh try).
func (en *Engine) releasePlanViews(p *queryPlan) {
	qs := p.st.Load()
	if qs == nil {
		return
	}
	qs.viewMu.Lock()
	for i, v := range qs.views {
		if v != nil {
			en.releaseViewRows(v.retained())
			qs.views[i] = nil
		}
	}
	qs.viewsDisabled = false
	qs.viewMu.Unlock()
}

// DropViews releases the materialized pattern views cached for an
// analyzed query and unpins its plan. The standing-query layer calls it
// when a subscription is removed, so long-lived sessions do not keep match
// caches for queries nobody watches; the plan itself stays cached until
// overflow and the next ExecuteDelta rematerializes on demand. Views are
// the query's own, so other queries of its shape keep theirs.
func (en *Engine) DropViews(a *tbql.Analyzed) {
	en.planMu.Lock()
	defer en.planMu.Unlock()
	if p := en.plans[a]; p != nil {
		p.pinned = false
		en.releasePlanViews(p)
	}
}

// joinProgram returns the shape's join program, compiling it on first use.
func (p *shapePlan) joinProgram(a *tbql.Analyzed) *joinProgram {
	p.joinOnce.Do(func() { p.join = newJoinProgram(a) })
	return p.join
}

// monolithicSQL returns the plan's compiled monolithic statement, lowering
// it on first use against the plan's bounds.
func (p *queryPlan) monolithicSQL(s *Store, a *tbql.Analyzed) (*relational.Prepared, error) {
	qs := p.state()
	qs.monoMu.Lock()
	defer qs.monoMu.Unlock()
	return qs.monoSQL.get(s.Rel, func() (*relational.SelectStmt, error) {
		return lowerMonolithicStmt(p.bounds, a, p.irs)
	})
}

// monolithicCypher returns the plan's compiled monolithic graph query,
// lowering it on first use against the plan's bounds (the clause-at-a-time
// flag is set here, as the RQ4 comparison requires).
func (p *queryPlan) monolithicCypher(a *tbql.Analyzed) (*graphdb.Prepared, error) {
	qs := p.state()
	qs.monoMu.Lock()
	defer qs.monoMu.Unlock()
	if qs.monoCy == nil && qs.monoCyErr == nil {
		q, err := lowerMonolithicCypher(p.bounds, a, p.irs)
		if err != nil {
			qs.monoCyErr = err
		} else {
			q.ClauseAtATime = true
			qs.monoCy = graphdb.Prepare(q)
		}
	}
	return qs.monoCy, qs.monoCyErr
}

// schedule orders pattern indexes by descending pruning score
// (Section III-F): more declared constraints score higher; variable-length
// paths score lower the longer their maximum length.
func (en *Engine) schedule(a *tbql.Analyzed) []int {
	n := len(a.Query.Patterns)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	if en.DisableScheduling {
		return order
	}
	scores := make([]int, n)
	for i, p := range a.Query.Patterns {
		scores[i] = en.pruningScore(a, p)
	}
	sort.SliceStable(order, func(x, y int) bool {
		return scores[order[x]] > scores[order[y]]
	})
	return order
}

func (en *Engine) pruningScore(a *tbql.Analyzed, p *tbql.Pattern) int {
	score := 0
	if f := a.Entities[p.Subject.ID].Filter; f != nil {
		score += countConjuncts(f)
	}
	if f := a.Entities[p.Object.ID].Filter; f != nil {
		score += countConjuncts(f)
	}
	if p.IDFilter != nil {
		score += countConjuncts(p.IDFilter)
	}
	if p.Op != nil && len(p.Op.Ops()) < 9 {
		score++
	}
	if windowOf(a.Query, p) != nil {
		score++
	}
	score *= 8 // constraints dominate path length
	if p.Path != nil {
		if p.Path.MaxLen < 0 {
			score -= 64
		} else {
			score -= p.Path.MaxLen
		}
	}
	return score
}

// windowOf returns the window that applies to p: its own, else the
// query's global one.
func windowOf(q *tbql.Query, p *tbql.Pattern) *tbql.Window {
	if p.Window != nil {
		return p.Window
	}
	return q.GlobalWindow
}
