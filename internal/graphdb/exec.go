package graphdb

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"threatraptor/internal/relational"
)

// ResultSet is the query output (shared shape with the relational engine).
type ResultSet = relational.ResultSet

// ExecStats counts the work done by one query execution.
type ExecStats struct {
	NodesVisited   int
	EdgesTraversed int
	IndexLookups   int
}

// Query parses and executes a Cypher-subset query.
func (g *Graph) Query(src string) (*ResultSet, error) {
	rs, _, err := g.QueryStats(src)
	return rs, err
}

// QueryStats is Query plus execution statistics.
func (g *Graph) QueryStats(src string) (*ResultSet, ExecStats, error) {
	q, err := ParseQuery(src)
	if err != nil {
		return nil, ExecStats{}, err
	}
	return g.Exec(q)
}

// NodeBinding constrains one named node variable to membership in a
// sorted unique ID list.
type NodeBinding struct {
	Var string
	IDs []int64
}

// ExecParams carries one execution's bound parameters for a prepared
// Query: the TBQL engine binds the scheduler's entity binding sets and the
// standing-query delta floor here instead of splicing them into fresh
// query text.
type ExecParams struct {
	// Nodes constrains named node variables: a variable with a binding
	// may only match the listed node IDs. Anchor enumeration uses the
	// list directly when the variable anchors a pattern.
	Nodes []NodeBinding
	// MinEdgeID keeps only matches that traverse at least one edge with ID
	// >= MinEdgeID, for every pattern shape (0 = unconstrained): a standing
	// query's delta floor.
	MinEdgeID int64
	// View, when non-nil, pins the execution to a published snapshot of
	// the graph (see View): the matcher reads only the captured arenas and
	// adjacency, so the execution may run concurrently with the writer.
	// The view must have been captured from the graph being queried.
	View *View
}

// nodeBinding returns the ID list bound to a variable, or nil.
func (p *ExecParams) nodeBinding(varName string) []int64 {
	if p == nil {
		return nil
	}
	for i := range p.Nodes {
		if p.Nodes[i].Var == varName {
			return p.Nodes[i].IDs
		}
	}
	return nil
}

// matcher holds the state of one pattern-matching run.
type matcher struct {
	g      *Graph
	q      *Query
	params *ExecParams
	stats  ExecStats
	// view is non-nil for snapshot-pinned executions; vedges is the edge
	// arena the run reads (the view's captured header, or the live one),
	// bound once by bindStore so hot loops skip the mode branch.
	view   *View
	vedges []Edge
	nodes  map[string]int64 // node variable bindings
	edges  map[string]int64 // single-hop edge variable bindings
	rs     *ResultSet
	proj   []ReturnItem
	// conjuncts are the AND-split WHERE terms, evaluated eagerly as
	// bindings accumulate (predicate pushdown, as production graph
	// databases do). conjVars[i] names the variables conjunct i reads, so
	// pruneOK skips a conjunct with an unbound variable without evaluating
	// it (see setConjuncts).
	conjuncts []relational.Expr
	conjVars  [][]string
	// windows are per-edge-variable [lo, hi] start_time bounds extracted
	// from the conjuncts; hops with a window binary-search the
	// time-sorted adjacency lists instead of scanning them.
	windows map[string][2]int64
	// floor is ExecParams.MinEdgeID; floored counts the edges with ID >=
	// floor on the current trail (var-length DFS pushes and single-hop
	// binds), and a floored run emits only when it is positive. oneHop
	// marks a query whose only relationship is a single hop: its floored
	// runs skip older edges outright (see edgeDrivenOK).
	floor   int64
	floored int
	oneHop  bool
	// visitedPool holds reusable edge-visited bitsets for var-length DFS:
	// one bitset per concurrently active traversal (nested var-length hops
	// stack), sized to the edge arena and handed back clean — the DFS
	// clears each bit on backtrack, so no reset pass is needed.
	visitedPool [][]uint64
	// reachPool is the same for the var-length BFS (see reachOK): a node
	// bitset and the BFS queue, which doubles as the touched list the
	// bitset is cleared through before it goes back.
	reachPool []*reachScratch
	// capture, when set, replaces row emission: the clause-at-a-time
	// executor uses it to collect raw variable bindings.
	capture func() error
	// ctx/done drive cooperative cancellation: done caches ctx.Done() so
	// the checkpoints cost a nil compare when no cancellable context is
	// bound; tick amortizes the poll to every 64th step.
	ctx  context.Context
	done <-chan struct{}
	tick uint32
}

// bindStore points the matcher at the arenas it will read: the view's
// captured headers for a snapshot-pinned run, the live ones otherwise.
func (m *matcher) bindStore() {
	if m.view != nil {
		m.vedges = m.view.edges
		return
	}
	m.vedges = m.g.edges
}

// node, edgeAt, and the adjacency accessors below dispatch on the
// matcher's mode: live runs read the graph directly (writer-goroutine
// only, lock-free), view runs read the captured arenas.
func (m *matcher) node(id int64) *Node {
	if m.view != nil {
		return m.view.node(id)
	}
	return m.g.node(id)
}

// edgeAtID resolves a dense edge element ID against the bound arena.
func (m *matcher) edgeAtID(id int64) *Edge {
	if id < 1 || id > int64(len(m.vedges)) {
		return nil
	}
	return &m.vedges[id-1]
}

func (m *matcher) outOffsets(id int64) []int32 {
	if m.view != nil {
		return m.view.outOffsets(id)
	}
	return m.g.outOffsets(id)
}

func (m *matcher) inOffsets(id int64) []int32 {
	if m.view != nil {
		return m.view.inOffsets(id)
	}
	return m.g.inOffsets(id)
}

// checkCancel is the cooperative cancellation checkpoint, placed at anchor
// candidates, DFS depth steps, and edge-driven scan iterations — never per
// property comparison.
func (m *matcher) checkCancel() error {
	if m.done == nil {
		return nil
	}
	if m.tick++; m.tick&63 != 1 {
		return nil
	}
	select {
	case <-m.done:
		return m.ctx.Err()
	default:
		return nil
	}
}

func flattenConjuncts(e relational.Expr, acc []relational.Expr) []relational.Expr {
	if bin, ok := e.(relational.BinOp); ok && bin.Op == "and" {
		acc = flattenConjuncts(bin.L, acc)
		return flattenConjuncts(bin.R, acc)
	}
	return append(acc, e)
}

// setConjuncts installs the AND-split WHERE terms and records, once per
// execution, the variables each one reads.
func (m *matcher) setConjuncts(cs []relational.Expr) {
	m.conjuncts = cs
	m.conjVars = make([][]string, len(cs))
	for i, c := range cs {
		vars, _ := exprVars(c) // an unsupported shape lists none; EvalExpr rejects it
		for name := range vars {
			m.conjVars[i] = append(m.conjVars[i], name)
		}
	}
}

// bound reports whether every named variable has a node or edge binding.
func (m *matcher) bound(vars []string) bool {
	for _, name := range vars {
		if _, ok := m.nodes[name]; ok {
			continue
		}
		if _, ok := m.edges[name]; !ok {
			return false
		}
	}
	return true
}

// pruneOK evaluates every WHERE conjunct that is already evaluable under
// the current partial bindings; a definite false prunes the branch.
// Conjuncts reading an unbound variable are skipped unevaluated (they are
// re-checked at emit time), so a partial binding costs no failed
// resolution.
func (m *matcher) pruneOK() bool {
	for i, c := range m.conjuncts {
		if !m.bound(m.conjVars[i]) {
			continue
		}
		v, err := relational.EvalExpr(c, m.resolve)
		if err != nil {
			continue // not evaluable (e.g. a comparison across kinds)
		}
		if !v.Truthy() {
			return false
		}
	}
	return true
}

// Exec runs a parsed query.
func (g *Graph) Exec(q *Query) (*ResultSet, ExecStats, error) {
	return g.ExecWith(q, nil)
}

// ExecWith runs a parsed query with execution-time parameter bindings.
// The query itself stays immutable (and so can be prepared once and
// reused); the parameters vary per call. The clause-at-a-time execution
// model (multi-pattern queries with ClauseAtATime set — the naive RQ4
// comparison plan) does not support parameters.
func (g *Graph) ExecWith(q *Query, params *ExecParams) (*ResultSet, ExecStats, error) {
	return g.ExecWithCtx(nil, q, params)
}

// ExecWithCtx is ExecWith with cooperative cancellation: the matcher polls
// ctx.Done() at anchor candidates, variable-length DFS depth steps, and
// edge-driven scan iterations, returning ctx.Err() promptly once the
// context is cancelled. A nil or never-cancelled context adds no work.
func (g *Graph) ExecWithCtx(ctx context.Context, q *Query, params *ExecParams) (*ResultSet, ExecStats, error) {
	var view *View
	if params != nil {
		view = params.View
	}
	if view == nil {
		// Snapshot runs skip the lazy re-sort: their capture already
		// sorted, and sorting here would race with the concurrent writer.
		g.ensureAdjSorted()
	}
	if q.ClauseAtATime && len(q.Patterns) > 1 {
		if params != nil {
			return nil, ExecStats{}, fmt.Errorf("graphdb: parameters are not supported with clause-at-a-time execution")
		}
		return g.execClauseAtATime(q)
	}
	m := &matcher{
		g:      g,
		q:      q,
		params: params,
		view:   view,
		nodes:  make(map[string]int64),
		edges:  make(map[string]int64),
	}
	m.bindStore()
	if params != nil {
		m.floor = params.MinEdgeID
	}
	m.oneHop = len(q.Patterns) == 1 && len(q.Patterns[0].Rels) == 1 && !q.Patterns[0].Rels[0].IsVarLen()
	if ctx != nil {
		m.ctx = ctx
		m.done = ctx.Done()
	}
	if q.Where != nil {
		m.setConjuncts(flattenConjuncts(q.Where, nil))
		m.windows = timeWindows(m.conjuncts)
	}
	cols := make([]string, len(q.Return))
	for i, item := range q.Return {
		switch {
		case item.As != "":
			cols[i] = item.As
		case item.Prop != "":
			cols[i] = item.Var + "." + item.Prop
		default:
			cols[i] = item.Var
		}
	}
	m.rs = &ResultSet{Columns: cols}
	m.proj = q.Return

	if m.edgeDrivenOK() {
		if err := m.matchEdgeDriven(); err != nil {
			return nil, m.stats, err
		}
	} else if err := m.matchPattern(0, 0); err != nil {
		return nil, m.stats, err
	}

	rs := m.rs
	if q.Distinct {
		rs.Rows = dedupRows(rs.Rows)
	}
	if len(q.OrderBy) > 0 {
		if err := orderRows(rs, q); err != nil {
			return nil, m.stats, err
		}
	}
	if q.Limit >= 0 && len(rs.Rows) > q.Limit {
		rs.Rows = rs.Rows[:q.Limit]
	}
	return rs, m.stats, nil
}

// edgeDrivenOK reports whether the execution can be driven off the edge
// arena suffix instead of anchor enumeration: a floored query whose only
// relationship is one outbound hop. The floor then applies to that hop
// alone, and edge IDs are dense arena offsets, so "edges with ID >=
// floor" is a direct suffix slice — a standing-query delta round visits
// O(new edges), not O(anchor nodes), no matter how large the store has
// grown.
func (m *matcher) edgeDrivenOK() bool {
	return m.floor > 0 && m.oneHop && m.q.Patterns[0].Rels[0].Dir == DirOut
}

// matchEdgeDriven enumerates edges from the floor upward and binds each
// edge's endpoints against the pattern — semantically identical to the
// anchor-driven walk restricted to edges with ID >= MinEdgeID (WHERE is
// re-checked in full at emit), but linear in the number of new edges.
func (m *matcher) matchEdgeDriven() error {
	pat := &m.q.Patterns[0]
	rel := &pat.Rels[0]
	srcPat, dstPat := pat.Nodes[0], pat.Nodes[1]
	m.floored = 1 // every edge of the suffix is at or above the floor
	for ei := m.floor - 1; ei < int64(len(m.vedges)); ei++ {
		if err := m.checkCancel(); err != nil {
			return err
		}
		e := &m.vedges[ei]
		m.stats.EdgesTraversed++
		if !typeMatches(rel.Types, e.Type) {
			continue
		}
		okS, boundS, err := m.bindNode(srcPat, e.From)
		if err != nil {
			return err
		}
		if !okS {
			continue
		}
		okD, boundD, err := m.bindNode(dstPat, e.To)
		if err == nil && okD {
			if rel.Var != "" {
				m.edges[rel.Var] = ei + 1
			}
			if m.pruneOK() {
				err = m.emit()
			}
			delete(m.edges, rel.Var)
		}
		if boundD {
			delete(m.nodes, dstPat.Var)
		}
		if boundS {
			delete(m.nodes, srcPat.Var)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// matchPattern advances through pattern pi starting at node position ni.
// ni indexes q.Patterns[pi].Nodes; hop ni-1 connects node ni-1 to ni.
func (m *matcher) matchPattern(pi, ni int) error {
	if pi == len(m.q.Patterns) {
		return m.emit()
	}
	pat := &m.q.Patterns[pi]
	if ni == len(pat.Nodes) {
		return m.matchPattern(pi+1, 0)
	}
	np := pat.Nodes[ni]
	if ni == 0 {
		// Anchor: enumerate candidates for the first node of the pattern.
		cands, err := m.candidates(np)
		if err != nil {
			return err
		}
		for _, id := range cands {
			if err := m.checkCancel(); err != nil {
				return err
			}
			ok, bound, err := m.bindNode(np, id)
			if err != nil {
				return err
			}
			if !ok {
				continue
			}
			if !bound || m.pruneOK() {
				if err := m.matchHop(pi, ni); err != nil {
					return err
				}
			}
			if bound {
				delete(m.nodes, np.Var)
			}
		}
		return nil
	}
	return nil // unreachable: non-anchor nodes are matched by matchHop
}

// matchHop matches hop ni (connecting node ni to node ni+1) of pattern pi,
// then recurses. A single hop binds each adjacent edge in turn. A
// variable-length hop has two expansions: bounded BFS (reach), which
// offers each node within [Min, Max] hops once, when the run cannot expose
// its trails — a DISTINCT query, no MinEdgeID floor, Min ≤ 1 (see
// reachOK); otherwise the edge-unique trail DFS, which offers a node once
// per trail reaching it. Both yield the same DISTINCT row set.
func (m *matcher) matchHop(pi, ni int) error {
	pat := &m.q.Patterns[pi]
	if ni == len(pat.Rels) {
		return m.matchPattern(pi+1, 0)
	}
	rel := pat.Rels[ni]
	srcPat := pat.Nodes[ni]
	dstPat := pat.Nodes[ni+1]
	src := m.nodes[srcPat.Var] // anchors and prior hops guarantee binding
	if srcPat.Var == "" {
		return fmt.Errorf("cypher: internal: anonymous source nodes in mid-pattern are unsupported")
	}

	tryDst := func(edgeID int64, dst int64) error {
		ok, bound, err := m.bindNode(dstPat, dst)
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		var edgeBound bool
		if rel.Var != "" && !rel.IsVarLen() {
			if _, exists := m.edges[rel.Var]; !exists {
				m.edges[rel.Var] = edgeID
				edgeBound = true
			} else if m.edges[rel.Var] != edgeID {
				if bound {
					delete(m.nodes, dstPat.Var)
				}
				return nil
			}
		}
		if (bound || edgeBound) && !m.pruneOK() {
			if edgeBound {
				delete(m.edges, rel.Var)
			}
			if bound {
				delete(m.nodes, dstPat.Var)
			}
			return nil
		}
		err = m.matchHop(pi, ni+1)
		if edgeBound {
			delete(m.edges, rel.Var)
		}
		if bound {
			delete(m.nodes, dstPat.Var)
		}
		return err
	}

	if !rel.IsVarLen() {
		adj := m.adjacent(src, rel.Dir)
		if rel.Var != "" && rel.Dir != DirBoth {
			// A declared time window narrows the sorted adjacency list to
			// the in-window span by binary search.
			if w, ok := m.windows[rel.Var]; ok {
				adj[0] = windowSliceIn(m.vedges, adj[0], w[0], w[1])
			}
		}
		// The floor compares edge element IDs (ei+1) — exactly what a
		// "e.id >= N" WHERE conjunct compares, since resolve answers "id"
		// with the element ID. Callers flooring by an external ID space
		// (the TBQL engine's audit event IDs) rely on their own
		// element-ID == external-ID invariant; the engine pins its dense
		// event-ID mapping with TestGraphEdgeIDsMatchEventIDs. A query
		// whose only relationship is this hop skips older edges outright.
		for _, list := range adj {
			for _, ei := range list {
				id := int64(ei) + 1
				if m.oneHop && id < m.floor {
					continue
				}
				e := &m.vedges[ei]
				m.stats.EdgesTraversed++
				if !typeMatches(rel.Types, e.Type) {
					continue
				}
				fresh := m.countFloored(id)
				err := tryDst(id, e.next(src, rel.Dir))
				m.floored -= fresh
				if err != nil {
					return err
				}
			}
		}
		return nil
	}

	maxDepth := rel.Max
	if maxDepth < 0 {
		maxDepth = len(m.vedges) // bounded by edge-uniqueness anyway
	}
	if m.reachOK(&rel, dstPat, src) {
		return m.reach(src, &rel, maxDepth, tryDst)
	}

	// Variable-length hop by trail enumeration: edge-unique DFS from src,
	// trying every node reached within [Min, Max] hops as the destination,
	// once per trail. Edge uniqueness is tracked in a pooled bitset over
	// the edge arena instead of a per-hop map: the DFS clears each bit
	// when it backtracks, so the bitset returns to the pool clean and one
	// allocation serves every traversal of the query.
	used := m.acquireVisited()
	var dfs func(cur int64, depth int) error
	dfs = func(cur int64, depth int) error {
		// Depth-step cancellation checkpoint: a runaway var-length
		// traversal is exactly the hunt that must stay cancellable.
		if err := m.checkCancel(); err != nil {
			return err
		}
		if depth >= rel.Min {
			// A zero-length hop (Min=0) binds dst to src itself.
			if err := tryDst(0, cur); err != nil {
				return err
			}
		}
		if depth == maxDepth {
			return nil
		}
		for _, list := range m.adjacent(cur, rel.Dir) {
			for _, ei := range list {
				if used[ei>>6]&(1<<(uint(ei)&63)) != 0 {
					continue
				}
				e := &m.vedges[ei]
				m.stats.EdgesTraversed++
				if !typeMatches(rel.Types, e.Type) {
					continue
				}
				used[ei>>6] |= 1 << (uint(ei) & 63)
				fresh := m.countFloored(int64(ei) + 1)
				err := dfs(e.next(cur, rel.Dir), depth+1)
				m.floored -= fresh
				used[ei>>6] &^= 1 << (uint(ei) & 63)
				if err != nil {
					return err
				}
			}
		}
		return nil
	}
	err := dfs(src, 0)
	m.releaseVisited(used)
	return err
}

// reachOK reports whether a variable-length hop from src may expand by
// bounded BFS (reach) instead of trail enumeration. The rest of the match
// reads only the destination's binding — a var-length hop binds no edge
// variable — so under DISTINCT the rows a destination produces are the
// same whichever trail reached it, and one offer per destination yields
// the trail DFS's row set. A node lies on a trail of length in [Min, Max]
// exactly when its BFS distance lies in that range (a shortest path never
// repeats an edge), except that at Min = 1 the source itself is reached
// only through a closed trail; a hop whose destination pattern admits the
// source keeps the DFS. A floored run keeps it too: the floor is a
// property of the trail, not of the destination.
func (m *matcher) reachOK(rel *RelPat, dstPat NodePat, src int64) bool {
	if !m.q.Distinct || m.floor > 0 || rel.Min > 1 {
		return false
	}
	if rel.Min == 0 {
		return true
	}
	ok, _ := m.admits(dstPat, m.node(src), src)
	return !ok
}

// reachScratch is one BFS's pooled state: seen is a bitset over node IDs,
// and queue holds the reached nodes in BFS order — every node whose seen
// bit is set, so clearing the queue's bits returns the bitset clean.
type reachScratch struct {
	seen  []uint64
	queue []int64
}

// reach is the var-length hop's bounded BFS (see reachOK): it collects the
// nodes within maxDepth hops of src along the hop's direction and types,
// then offers each once — src first when Min is 0, since queue[0] is the
// only node at depth 0 — to tryDst.
func (m *matcher) reach(src int64, rel *RelPat, maxDepth int, tryDst func(edgeID, dst int64) error) error {
	sc := m.acquireReach()
	defer m.releaseReach(sc)
	mark := func(id int64) {
		if sc.seen[id>>6]&(1<<(uint(id)&63)) == 0 {
			sc.seen[id>>6] |= 1 << (uint(id) & 63)
			sc.queue = append(sc.queue, id)
		}
	}
	mark(src)
	for depth, level := 0, 0; depth < maxDepth && level < len(sc.queue); depth++ {
		end := len(sc.queue)
		for _, cur := range sc.queue[level:end] {
			if err := m.checkCancel(); err != nil {
				return err
			}
			for _, list := range m.adjacent(cur, rel.Dir) {
				for _, ei := range list {
					e := &m.vedges[ei]
					m.stats.EdgesTraversed++
					if typeMatches(rel.Types, e.Type) {
						mark(e.next(cur, rel.Dir))
					}
				}
			}
		}
		level = end
	}
	for _, id := range sc.queue[rel.Min:] {
		if err := tryDst(0, id); err != nil {
			return err
		}
	}
	return nil
}

// acquireReach pops a clean BFS scratch from the pool, or allocates one
// whose bitset covers every node ID of the bound store.
func (m *matcher) acquireReach() *reachScratch {
	if n := len(m.reachPool); n > 0 {
		sc := m.reachPool[n-1]
		m.reachPool = m.reachPool[:n-1]
		return sc
	}
	nodes := len(m.g.nodes)
	if m.view != nil {
		nodes = m.view.NumNodes()
	}
	return &reachScratch{seen: make([]uint64, nodes/64+1)}
}

// releaseReach clears the scratch's bitset through its queue and pools it.
func (m *matcher) releaseReach(sc *reachScratch) {
	for _, id := range sc.queue {
		sc.seen[id>>6] &^= 1 << (uint(id) & 63)
	}
	sc.queue = sc.queue[:0]
	m.reachPool = append(m.reachPool, sc)
}

// countFloored pushes edge id onto the trail's floored count when it is at
// or above the floor, and returns what the caller pops after recursing.
func (m *matcher) countFloored(id int64) int {
	if m.floor > 0 && id >= m.floor {
		m.floored++
		return 1
	}
	return 0
}

// acquireVisited pops a clean edge bitset from the pool, or allocates one
// sized to the edge arena. Nested variable-length hops (one var-length
// relationship reached while another's DFS is on the stack) each take
// their own bitset, preserving per-hop edge-uniqueness semantics.
func (m *matcher) acquireVisited() []uint64 {
	if n := len(m.visitedPool); n > 0 {
		bs := m.visitedPool[n-1]
		m.visitedPool = m.visitedPool[:n-1]
		return bs
	}
	return make([]uint64, (len(m.vedges)+63)/64)
}

func (m *matcher) releaseVisited(bs []uint64) {
	m.visitedPool = append(m.visitedPool, bs)
}

// adjacent returns the candidate edge arena offsets from node id in the
// direction, as lists the caller walks in turn: the outgoing or incoming
// list alone, or for DirBoth the outgoing list then the incoming one (a
// self-loop appears in both), with no concatenated copy.
func (m *matcher) adjacent(id int64, dir Direction) [2][]int32 {
	switch dir {
	case DirOut:
		return [2][]int32{m.outOffsets(id)}
	case DirIn:
		return [2][]int32{m.inOffsets(id)}
	default:
		return [2][]int32{m.outOffsets(id), m.inOffsets(id)}
	}
}

// timeWindows extracts per-variable start_time bounds from literal
// comparison conjuncts ("e.start_time >= 123", in either operand order).
func timeWindows(conjuncts []relational.Expr) map[string][2]int64 {
	var windows map[string][2]int64
	narrow := func(name string, op string, k int64) {
		if windows == nil {
			windows = make(map[string][2]int64)
		}
		w, ok := windows[name]
		if !ok {
			w = [2]int64{math.MinInt64, math.MaxInt64}
		}
		switch op {
		case ">=":
			if k > w[0] {
				w[0] = k
			}
		case ">":
			if k+1 > w[0] {
				w[0] = k + 1
			}
		case "<=":
			if k < w[1] {
				w[1] = k
			}
		case "<":
			if k-1 < w[1] {
				w[1] = k - 1
			}
		}
		windows[name] = w
	}
	flip := map[string]string{">=": "<=", ">": "<", "<=": ">=", "<": ">"}
	for _, c := range conjuncts {
		bin, ok := c.(relational.BinOp)
		if !ok {
			continue
		}
		if _, cmp := flip[bin.Op]; !cmp {
			continue
		}
		if col, ok := bin.L.(relational.ColRef); ok && col.Column == "start_time" && col.Qualifier != "" {
			if lit, ok := bin.R.(relational.Lit); ok && lit.V.K == relational.KindInt {
				narrow(col.Qualifier, bin.Op, lit.V.I)
				continue
			}
		}
		if col, ok := bin.R.(relational.ColRef); ok && col.Column == "start_time" && col.Qualifier != "" {
			if lit, ok := bin.L.(relational.Lit); ok && lit.V.K == relational.KindInt {
				narrow(col.Qualifier, flip[bin.Op], lit.V.I)
			}
		}
	}
	return windows
}

func typeMatches(types []string, t string) bool {
	if len(types) == 0 {
		return true
	}
	for _, want := range types {
		if strings.EqualFold(want, t) {
			return true
		}
	}
	return false
}

// bindNode checks node constraints and binds the variable if new.
// ok reports whether the node satisfies the pattern; bound reports whether
// this call created the binding (the caller must remove it when
// backtracking).
func (m *matcher) bindNode(np NodePat, id int64) (ok, bound bool, err error) {
	n := m.node(id)
	if n == nil {
		return false, false, nil
	}
	m.stats.NodesVisited++
	if ok, fresh := m.admits(np, n, id); !ok || !fresh {
		return ok, false, nil
	}
	m.nodes[np.Var] = id
	return true, true, nil
}

// admits reports whether node n (ID id; nil for no such node) satisfies
// the node pattern under the current bindings: label, inline properties,
// the variable's bound ID list, and any earlier binding of the variable.
// fresh reports that the pattern names a variable not yet bound.
func (m *matcher) admits(np NodePat, n *Node, id int64) (ok, fresh bool) {
	if n == nil || np.Label != "" && !strings.EqualFold(np.Label, n.Label) {
		return false, false
	}
	for k, want := range np.Props {
		got, has := n.Prop(k)
		if !has || !got.Equal(want) {
			return false, false
		}
	}
	if np.Var == "" {
		return true, false
	}
	if ids := m.params.nodeBinding(np.Var); ids != nil && !containsID(ids, id) {
		return false, false
	}
	if prev, exists := m.nodes[np.Var]; exists {
		return prev == id, false
	}
	return true, true
}

// containsID binary-searches a sorted unique ID list.
func containsID(ids []int64, id int64) bool {
	return relational.ContainsSortedInt64(ids, id)
}

// candidates enumerates anchor candidates for a node pattern, preferring
// a bound ID list (fed forward by the TBQL scheduler), then an explicit ID
// constraint in WHERE ("s.id IN (...)"), then the label scan, then all
// nodes. Inline properties ({k: v}) filter candidates in bindNode.
func (m *matcher) candidates(np NodePat) ([]int64, error) {
	if np.Var != "" {
		if id, bound := m.nodes[np.Var]; bound {
			return []int64{id}, nil
		}
		if ids := m.params.nodeBinding(np.Var); ids != nil {
			m.stats.IndexLookups++
			// The binding set and the label's ID list are both sorted:
			// galloping intersection drops wrong-label candidates here,
			// instead of a node lookup + label check per candidate inside
			// bindNode.
			if np.Label != "" {
				if lbl, ok := m.sortedLabelIDs(np.Label); ok {
					// Fresh slice: nested anchors (multi-pattern queries)
					// may still be iterating an earlier result.
					return intersectSortedIDs(ids, lbl, nil), nil
				}
			}
			return ids, nil
		}
		if ids, ok := m.idConstraint(np.Var); ok {
			m.stats.IndexLookups++
			return ids, nil
		}
	}
	if np.Label != "" {
		return m.labelIDs(np.Label), nil
	}
	if m.view != nil {
		return m.view.allNodeIDs(), nil
	}
	return m.g.AllNodeIDs(), nil
}

// sortedLabelIDs and labelIDs dispatch the anchor label probes on the
// matcher's mode (view probes lock and trim; live probes are the
// writer-goroutine fast path).
func (m *matcher) sortedLabelIDs(label string) ([]int64, bool) {
	if m.view != nil {
		return m.view.sortedLabelIDs(label)
	}
	return m.g.sortedLabelIDs(label)
}

func (m *matcher) labelIDs(label string) []int64 {
	if m.view != nil {
		return m.view.labelIDs(label)
	}
	return m.g.byLabel[label]
}

// idConstraint scans the WHERE conjuncts for "var.id = n" or
// "var.id IN (n1, n2, ...)" with literal operands.
func (m *matcher) idConstraint(varName string) ([]int64, bool) {
	colMatches := func(e relational.Expr) bool {
		c, ok := e.(relational.ColRef)
		return ok && c.Qualifier == varName && (c.Column == "id" || c.Column == "")
	}
	for _, conj := range m.conjuncts {
		switch v := conj.(type) {
		case relational.BinOp:
			if v.Op == "=" && colMatches(v.L) {
				if lit, ok := v.R.(relational.Lit); ok && lit.V.K == relational.KindInt {
					return []int64{lit.V.I}, true
				}
			}
		case relational.InList:
			if v.Negate || !colMatches(v.E) {
				continue
			}
			ids := make([]int64, 0, len(v.Vals))
			allLit := true
			for _, ve := range v.Vals {
				lit, ok := ve.(relational.Lit)
				if !ok || lit.V.K != relational.KindInt {
					allLit = false
					break
				}
				ids = append(ids, lit.V.I)
			}
			if allLit {
				return ids, true
			}
		}
	}
	return nil, false
}

// emit evaluates WHERE against the complete bindings and projects a row.
// Under a floor, a match whose trail holds no floored edge is dropped.
func (m *matcher) emit() error {
	if m.floor > 0 && m.floored == 0 {
		return nil
	}
	if m.capture != nil {
		return m.capture()
	}
	if m.q.Where != nil {
		v, err := relational.EvalExpr(m.q.Where, m.resolve)
		if err != nil {
			return err
		}
		if !v.Truthy() {
			return nil
		}
	}
	row := make([]Value, len(m.proj))
	for i, item := range m.proj {
		v, err := m.resolve(relational.ColRef{Qualifier: item.Var, Column: item.Prop})
		if err != nil {
			return err
		}
		row[i] = v
	}
	m.rs.Rows = append(m.rs.Rows, row)
	return nil
}

// resolve looks up var.prop against node and edge bindings. A reference
// with an empty prop yields the element ID. Nodes expose the pseudo-props
// "id" and "label"; edges expose "id" and "type".
func (m *matcher) resolve(c relational.ColRef) (Value, error) {
	name := c.Qualifier
	if name == "" {
		name = c.Column // bare variable in RETURN: id projection
		if id, ok := m.nodes[name]; ok {
			return relational.Int(id), nil
		}
		if id, ok := m.edges[name]; ok {
			return relational.Int(id), nil
		}
		return relational.Null(), fmt.Errorf("cypher: unknown variable %q", c.Column)
	}
	if id, ok := m.nodes[name]; ok {
		n := m.node(id)
		switch c.Column {
		case "", "id":
			return relational.Int(id), nil
		case "label":
			return relational.Str(n.Label), nil
		}
		if v, has := n.Prop(c.Column); has {
			return v, nil
		}
		return relational.Null(), nil
	}
	if id, ok := m.edges[name]; ok {
		e := m.edgeAtID(id)
		switch c.Column {
		case "", "id":
			return relational.Int(id), nil
		case "type":
			return relational.Str(e.Type), nil
		}
		if v, has := e.Prop(c.Column); has {
			return v, nil
		}
		return relational.Null(), nil
	}
	return relational.Null(), fmt.Errorf("cypher: unknown variable %q", name)
}

func dedupRows(rows [][]Value) [][]Value {
	return relational.DedupRows(rows)
}

func orderRows(rs *ResultSet, q *Query) error {
	keyIdx := make([]int, len(q.OrderBy))
	for i, item := range q.OrderBy {
		name := item.Var
		if item.Prop != "" {
			name = item.Var + "." + item.Prop
		}
		found := -1
		for j, label := range rs.Columns {
			if strings.EqualFold(label, name) {
				found = j
				break
			}
		}
		if found < 0 {
			return fmt.Errorf("cypher: ORDER BY %q not in RETURN", name)
		}
		keyIdx[i] = found
	}
	var sortErr error
	sort.SliceStable(rs.Rows, func(a, b int) bool {
		for k, pos := range keyIdx {
			cmp, err := rs.Rows[a][pos].Compare(rs.Rows[b][pos])
			if err != nil {
				sortErr = err
				return false
			}
			if cmp != 0 {
				if q.OrderBy[k].Desc {
					return cmp > 0
				}
				return cmp < 0
			}
		}
		return false
	})
	return sortErr
}
