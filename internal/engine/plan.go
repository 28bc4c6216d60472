package engine

import (
	"sort"
	"sync"

	"threatraptor/internal/audit"
	"threatraptor/internal/graphdb"
	"threatraptor/internal/qir"
	"threatraptor/internal/relational"
	"threatraptor/internal/tbql"
)

// patternPlan is one pattern's compiled data query: its logical-plan IR
// plus the lowered backend plans. Graph patterns lower eagerly to one
// traversal plan (parameters bind per execution); event patterns lower
// lazily to exactly two relational statements — the entity-anchored plan
// whose optional parameter predicates (binding sets, delta floor) prune
// themselves at execution, and the events-anchored catch-up plan delta
// rounds use so the scan starts at the floor. Every execution reuses a
// compiled physical plan and binds values — no text, no parsing, no
// per-binding-set cache, no per-extras-shape variants.
type patternPlan struct {
	ir *qir.DataQuery
	gq *graphdb.Query
	// meta is the pattern's routing shape: which backend it lowers to, and
	// what a scatter coordinator prunes shards with. View catch-up skips
	// its data query entirely when a delta's batch op bitmap doesn't
	// intersect meta.OpMask.
	meta PatternMeta

	mu       sync.Mutex
	rel      *relational.Prepared // entity-anchored, runtime-pruned params
	relDelta *relational.Prepared // events-anchored, for delta floors

	// view is the pattern's materialized match cache (standing queries;
	// nil until ExecuteDelta first materializes it). Guarded by the owning
	// queryPlan's viewMu.
	view *matView
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

// prepared returns the pattern's compiled relational plan, lowering and
// compiling it on first use against the owning queryPlan's fixed bounds
// (so lazy compilation on a reader goroutine never touches the writer's
// live Store bounds).
func (pp *patternPlan) prepared(s *Store, b timeBounds) (*relational.Prepared, error) {
	pp.mu.Lock()
	defer pp.mu.Unlock()
	if pp.rel == nil {
		pr, err := s.Rel.Prepare(lowerEventStmt(b, pp.ir.Event))
		if err != nil {
			return nil, err
		}
		pp.rel = pr
	}
	return pp.rel, nil
}

// preparedDelta returns the pattern's events-anchored catch-up plan,
// lowering and compiling it on first use.
func (pp *patternPlan) preparedDelta(s *Store, b timeBounds) (*relational.Prepared, error) {
	pp.mu.Lock()
	defer pp.mu.Unlock()
	if pp.relDelta == nil {
		pr, err := s.Rel.Prepare(lowerEventStmtDeltaAnchored(b, pp.ir.Event))
		if err != nil {
			return nil, err
		}
		pp.relDelta = pr
	}
	return pp.relDelta, nil
}

// queryPlan is one entry of the engine's compiled-query cache: everything
// about an analyzed TBQL query that does not change between executions —
// the pruning-score order, the per-pattern IR and routing metadata, and
// the lowered backend plans.
type queryPlan struct {
	// src is the TBQL text Compile cached the query under ("" for a query
	// the caller analyzed itself); pinned marks a standing query's plan,
	// which overflow never evicts. Both are guarded by Engine.planMu.
	src    string
	pinned bool

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

	// viewMu guards every pattern's materialized view (pats[i].view) —
	// ExecuteDelta holds it across catch-up and the view-backed join.
	viewMu sync.Mutex
	// viewsDisabled records that a view of this plan hit the row cap (or
	// proved unmaintainable): the whole query evaluates through the
	// recompute path and no view of the plan is maintained or charged
	// against the cap. The latch is not permanent: disabledGen remembers
	// the engine's view-release generation at fallback time, and the next
	// delta round retries materialization once other views have released
	// rows since (DropViews also re-arms directly). Under sustained cap
	// pressure with no releases, no retry — no per-round O(store) waste.
	viewsDisabled bool
	disabledGen   int64

	// Monolithic plans (the paper's RQ4 naive comparison), lowered lazily.
	monoMu     sync.Mutex
	monoSQL    *relational.Prepared
	monoSQLErr error
	monoCy     *graphdb.Query
	monoCyErr  error
}

// maxCachedQueryPlans bounds the compiled-query cache. Ad-hoc hunts with
// never-repeating texts would otherwise grow it without bound; on overflow
// every plan no standing query pins is dropped wholesale.
const maxCachedQueryPlans = 256

// Compile returns the analyzed form of TBQL source through the
// compiled-query cache: a repeat text re-parses nothing and finds its
// plan (IR, backend plans, routing metadata) already built.
func (en *Engine) Compile(src string) (*tbql.Analyzed, error) {
	en.planMu.Lock()
	a := en.texts[src]
	en.planMu.Unlock()
	if a != nil {
		return a, nil
	}
	q, err := tbql.Parse(src)
	if err != nil {
		return nil, err
	}
	if a, err = tbql.Analyze(q); err != nil {
		return nil, err
	}
	snap := en.Store.Snapshot()
	en.planMu.Lock()
	defer en.planMu.Unlock()
	if won := en.texts[src]; won != nil {
		return won, nil // a concurrent Compile of the same text got there first
	}
	en.planLocked(a, snap, false).src = src
	if en.texts == nil {
		en.texts = make(map[string]*tbql.Analyzed)
	}
	en.texts[src] = a
	return a, nil
}

// planFor returns the cached plan for a, building it on first use. A
// cached plan whose lowered window conditions depend on the store's time
// bounds is re-lowered (from the cached IR, never from source) when a live
// append has moved the bounds; plans without such windows survive appends
// untouched. snap, when non-nil, is the execution's pinned snapshot: the
// plan's epoch and window bounds come from it, so a hunt racing an append
// gets a plan consistent with the store generation it reads (and never
// loads the writer-mutated live bounds). A nil snap (writer-synchronized
// paths: the monolithic RQ4 comparisons) uses the live bounds. pin marks
// the plan as a standing query's: it (and the views it comes to hold)
// stays cached until DropViews.
func (en *Engine) planFor(a *tbql.Analyzed, snap *Snapshot, pin bool) *queryPlan {
	en.planMu.Lock()
	defer en.planMu.Unlock()
	return en.planLocked(a, snap, pin)
}

func (en *Engine) planLocked(a *tbql.Analyzed, snap *Snapshot, pin bool) *queryPlan {
	var epoch uint64
	var b timeBounds
	if snap != nil {
		epoch, b = snap.Epoch, snap.bounds()
	} else {
		epoch, b = en.Store.BoundsEpoch(), en.Store.bounds()
	}
	prev := en.plans[a]
	if prev != nil && (!prev.windowSensitive || prev.boundsEpoch == epoch) {
		prev.pinned = prev.pinned || pin
		return prev
	}
	p := &queryPlan{pinned: pin, order: en.schedule(a), boundsEpoch: epoch, bounds: b, cols: returnColumns(a)}
	if prev != nil {
		p.irs = prev.irs // bounds moved: recompile from the cached IR
		p.src, p.pinned = prev.src, prev.pinned || pin
	} else {
		p.irs = tbql.Lower(a)
		if len(en.plans) >= maxCachedQueryPlans {
			for old, op := range en.plans {
				if !op.pinned {
					en.releasePlanViews(op)
					delete(en.plans, old)
					delete(en.texts, op.src)
				}
			}
		}
	}
	p.pats = make([]patternPlan, len(p.irs))
	for i, ir := range p.irs {
		pp := &p.pats[i]
		pp.ir = ir
		pp.meta = patternMeta(ir)
		if pp.meta.UsesGraph {
			pp.gq = lowerPathQuery(b, ir.Path)
		}
		if ir.Window().Sensitive() {
			p.windowSensitive = true
		}
	}
	if prev != nil {
		// Bounds-epoch recompile: materialized views of window-insensitive
		// patterns describe the same match set under the new plan, so they
		// migrate instead of rematerializing. Window-sensitive patterns'
		// match sets moved with the bounds: LAST-window views slide —
		// evict below the new lower bound, keep the frontier — and the
		// remaining sensitive kinds are released. A fallen-back plan stays
		// fallen back until DropViews re-arms it.
		prev.viewMu.Lock()
		p.viewsDisabled = prev.viewsDisabled
		for i := range prev.pats {
			old := &prev.pats[i]
			if old.view == nil {
				continue
			}
			if old.ir.Window().Sensitive() {
				if mv := en.migrateSensitiveView(old, b); mv != nil {
					p.pats[i].view = mv // LAST window: slide, don't rebuild
				} else {
					en.releaseViewRows(old.view.retained())
				}
			} else {
				p.pats[i].view = old.view
			}
			old.view = nil
		}
		prev.viewMu.Unlock()
	}
	if en.plans == nil {
		en.plans = make(map[*tbql.Analyzed]*queryPlan)
	}
	en.plans[a] = p
	return p
}

// releasePlanViews returns every materialized row of the plan's views to
// the engine's accounting (called when a plan leaves the cache, and by
// DropViews, which also re-arms a fallen-back plan for a fresh try).
func (en *Engine) releasePlanViews(p *queryPlan) {
	p.viewMu.Lock()
	for i := range p.pats {
		if v := p.pats[i].view; v != nil {
			en.releaseViewRows(v.retained())
			p.pats[i].view = nil
		}
	}
	p.viewsDisabled = false
	p.viewMu.Unlock()
}

// DropViews releases the materialized pattern views cached for an
// analyzed query and unpins its plan. The standing-query layer calls it
// when a subscription is removed, so long-lived sessions do not keep match
// caches for queries nobody watches; the plan itself stays cached until
// overflow and the next ExecuteDelta rematerializes on demand.
func (en *Engine) DropViews(a *tbql.Analyzed) {
	en.planMu.Lock()
	defer en.planMu.Unlock()
	if p := en.plans[a]; p != nil {
		p.pinned = false
		en.releasePlanViews(p)
	}
}

// monolithicSQL returns the plan's compiled monolithic statement, lowering
// it on first use.
func (p *queryPlan) monolithicSQL(s *Store, a *tbql.Analyzed) (*relational.Prepared, error) {
	p.monoMu.Lock()
	defer p.monoMu.Unlock()
	if p.monoSQL != nil || p.monoSQLErr != nil {
		return p.monoSQL, p.monoSQLErr
	}
	stmt, err := lowerMonolithicStmt(s, a)
	if err == nil {
		p.monoSQL, err = s.Rel.Prepare(stmt)
	}
	p.monoSQLErr = err
	return p.monoSQL, err
}

// monolithicCypher returns the plan's lowered monolithic graph query (the
// clause-at-a-time flag is set here, as the RQ4 comparison requires).
func (p *queryPlan) monolithicCypher(s *Store, a *tbql.Analyzed) (*graphdb.Query, error) {
	p.monoMu.Lock()
	defer p.monoMu.Unlock()
	if p.monoCy != nil || p.monoCyErr != nil {
		return p.monoCy, p.monoCyErr
	}
	q, err := lowerMonolithicCypher(s, a)
	if err == nil {
		q.ClauseAtATime = true
	}
	p.monoCy, p.monoCyErr = q, err
	return q, err
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
