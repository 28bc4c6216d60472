package graphdb

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"

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
	// Vals binds the WHERE's value slots: relational.ValParam{Slot: i}
	// reads Vals[i], so one Prepared serves every literal vector of a
	// query shape.
	Vals []relational.Value
}

// Prepared is a Query compiled for repeated execution. Every named node
// and edge variable resolves to a binding slot, so the matcher binds and
// reads variables by position, never by name. Every WHERE conjunct is
// attached to the slot whose binding completes it — the variable it reads
// that the walk binds last — and is checked once, right after that
// binding; the return items compile to slot reads. A Prepared is
// immutable and safe for concurrent executions; the matchers that run it
// come from one package-wide pool (see acquire), so a Prepared allocates
// no matcher of its own.
type Prepared struct {
	q    *Query
	cols []string
	// nodeVars and edgeVars name the query's node variables and its
	// single-hop edge variables by slot (a variable-length relationship
	// binds no edge and gets no slot). Queries bind a handful of
	// variables, so a linear search finds a name's slot.
	nodeVars []string
	edgeVars []string
	// slots[pi] holds pattern pi's node and relationship positions'
	// slots (-1: the position binds no variable).
	slots []patSlots
	// conjs are the AND-split WHERE terms in conjunct order. onNode[s]
	// and onEdge[s] list the conjuncts checked when node or edge slot s
	// binds. A conjunct in neither reads a variable no step binds, or the
	// query binds no variable at all; emit checks it, and atEmit reports
	// that one exists.
	conjs  []conj
	onNode [][]int32
	onEdge [][]int32
	atEmit bool
	// windows[s] is edge slot s's [lo, hi] start_time bound from literal
	// conjuncts; hops binding a windowed edge binary-search the
	// time-sorted adjacency lists instead of scanning them.
	windows []edgeWindow
	proj    []ref
	oneHop  bool
}

type patSlots struct {
	nodes []int
	rels  []int
}

type edgeWindow struct {
	lo, hi int64
	ok     bool
}

// conj is one compiled WHERE conjunct: the expression and the distinct
// variable references it reads, resolved to slots. step reports that a
// binding step checks it (onNode/onEdge); otherwise emit does.
type conj struct {
	e    relational.Expr
	refs []ref
	step bool
}

// ref is a "var.prop" reference resolved to a slot: prop "" and "id" read
// the element ID, "label" (nodes) and "type" (edges) the element's own
// field, anything else its attribute (NULL when absent). slot < 0 names a
// variable the walk never binds; reading it fails like an unknown name.
type ref struct {
	c    relational.ColRef
	name string
	prop string
	edge bool
	slot int
}

// Prepare compiles q, which must not be modified afterwards. Nothing in q
// is rejected here: a reference to a variable the walk never binds, or an
// expression the evaluator cannot run, fails the execution that reaches
// it, exactly as when the whole WHERE is evaluated at emit.
func Prepare(q *Query) *Prepared {
	p := &Prepared{q: q}
	p.cols = make([]string, len(q.Return))
	for i, item := range q.Return {
		switch {
		case item.As != "":
			p.cols[i] = item.As
		case item.Prop != "":
			p.cols[i] = item.Var + "." + item.Prop
		default:
			p.cols[i] = item.Var
		}
	}
	p.oneHop = len(q.Patterns) == 1 && len(q.Patterns[0].Rels) == 1 && !q.Patterns[0].Rels[0].IsVarLen()

	// Slots are numbered in walk order — each pattern's anchor, then per
	// hop its edge and its destination — so a variable's rank (the order
	// in which the walk first binds it) is its position in rank.
	var rank []ref // slot identities in binding order
	slotOf := func(names *[]string, name string, edge bool) int {
		if s := slices.Index(*names, name); s >= 0 {
			return s
		}
		s := len(*names)
		*names = append(*names, name)
		rank = append(rank, ref{name: name, edge: edge, slot: s})
		return s
	}
	p.slots = make([]patSlots, len(q.Patterns))
	for pi := range q.Patterns {
		pat := &q.Patterns[pi]
		ps := &p.slots[pi]
		ps.nodes = make([]int, len(pat.Nodes))
		ps.rels = make([]int, len(pat.Rels))
		for ni, np := range pat.Nodes {
			if ni > 0 {
				rel := &pat.Rels[ni-1]
				ps.rels[ni-1] = -1
				if rel.Var != "" && !rel.IsVarLen() {
					ps.rels[ni-1] = slotOf(&p.edgeVars, rel.Var, true)
				}
			}
			ps.nodes[ni] = -1
			if np.Var != "" {
				ps.nodes[ni] = slotOf(&p.nodeVars, np.Var, false)
			}
		}
	}
	p.onNode = make([][]int32, len(p.nodeVars))
	p.onEdge = make([][]int32, len(p.edgeVars))
	nodeRank, edgeRank := make([]int, len(p.nodeVars)), make([]int, len(p.edgeVars))
	for i, r := range rank {
		if r.edge {
			edgeRank[r.slot] = i
		} else {
			nodeRank[r.slot] = i
		}
	}

	var conjuncts []relational.Expr
	if q.Where != nil {
		conjuncts = flattenConjuncts(q.Where, nil)
	}
	p.conjs = make([]conj, len(conjuncts))
	for i, e := range conjuncts {
		c := &p.conjs[i]
		c.e = e
		c.refs = p.collectRefs(e, nil)
		// The conjunct's trigger is the variable it reads that the walk
		// binds last. One that reads none is checked at the walk's first
		// binding, where it prunes (or passes) every branch at once.
		last, known := 0, len(rank) > 0
		for _, r := range c.refs {
			if r.slot < 0 {
				known = false
				break
			}
			if r.edge {
				last = max(last, edgeRank[r.slot])
			} else {
				last = max(last, nodeRank[r.slot])
			}
		}
		if !known {
			p.atEmit = true
			continue
		}
		c.step = true
		if t := rank[last]; t.edge {
			p.onEdge[t.slot] = append(p.onEdge[t.slot], int32(i))
		} else {
			p.onNode[t.slot] = append(p.onNode[t.slot], int32(i))
		}
	}
	p.windows = make([]edgeWindow, len(p.edgeVars))
	for name, w := range timeWindows(conjuncts) {
		if s := slices.Index(p.edgeVars, name); s >= 0 {
			p.windows[s] = edgeWindow{lo: w[0], hi: w[1], ok: true}
		}
	}
	p.proj = make([]ref, len(q.Return))
	for i, item := range q.Return {
		p.proj[i] = p.resolveRef(relational.ColRef{Qualifier: item.Var, Column: item.Prop})
	}
	return p
}

// resolveRef resolves one column reference against the variable slots. A
// bare name ("x") reads the element ID, like "x.id".
func (p *Prepared) resolveRef(c relational.ColRef) ref {
	r := ref{c: c, name: c.Qualifier, prop: c.Column, slot: -1}
	if r.name == "" {
		r.name, r.prop = c.Column, ""
	}
	if s := slices.Index(p.nodeVars, r.name); s >= 0 {
		r.slot = s
	} else if s := slices.Index(p.edgeVars, r.name); s >= 0 {
		r.edge, r.slot = true, s
	}
	return r
}

// collectRefs appends e's distinct column references, resolved, to refs.
func (p *Prepared) collectRefs(e relational.Expr, refs []ref) []ref {
	switch v := e.(type) {
	case relational.ColRef:
		for _, r := range refs {
			if r.c == v {
				return refs
			}
		}
		return append(refs, p.resolveRef(v))
	case relational.BinOp:
		return p.collectRefs(v.R, p.collectRefs(v.L, refs))
	case relational.UnOp:
		return p.collectRefs(v.E, refs)
	case relational.InList:
		refs = p.collectRefs(v.E, refs)
		for _, x := range v.Vals {
			refs = p.collectRefs(x, refs)
		}
	case relational.ParamIDs:
		return p.collectRefs(v.E, refs)
	}
	return refs
}

// matcher holds the state of one pattern-matching run.
type matcher struct {
	g     *Graph
	p     *Prepared
	q     *Query
	stats ExecStats
	// view is non-nil for snapshot-pinned executions; vedges is the edge
	// arena the run reads (the view's captured header, or the live one),
	// bound once by bindStore so hot loops skip the mode branch.
	view   *View
	vedges []Edge
	// nodeVals and edgeVals are the variable bindings by slot (0 =
	// unbound: element IDs start at 1); nodeIDs[s] is the ID list
	// ExecParams binds to node slot s (nil = unconstrained).
	nodeVals []int64
	edgeVals []int64
	nodeIDs  [][]int64
	// errs[i] holds conjunct i's evaluation error on the current branch
	// (nerr counts them). A failing conjunct does not prune: the branch
	// fails the query only if it reaches emit with every other conjunct
	// true, exactly as evaluating the whole WHERE there would. An unbind
	// clears the errors of the conjuncts its slot triggered.
	errs []error
	nerr int
	// cur is the conjunct under evaluation; resolveFn (its resolver, a
	// method value bound once) reads cur's references. params carries the
	// execution's value slots (ExecParams.Vals) to the evaluator.
	cur       *conj
	resolveFn func(relational.ColRef) (Value, error)
	params    relational.Params
	// floor is ExecParams.MinEdgeID; floored counts the edges with ID >=
	// floor on the current trail (var-length DFS pushes and single-hop
	// binds), and a floored run emits only when it is positive.
	floor   int64
	floored int
	// visitedPool holds reusable edge-visited bitsets for var-length DFS:
	// one bitset per concurrently active traversal (nested var-length hops
	// stack), handed back clean — the DFS clears each bit on backtrack, so
	// no reset pass is needed.
	visitedPool [][]uint64
	// reachPool is the same for the var-length BFS (see reachOK): a node
	// bitset and the BFS queue, which doubles as the touched list the
	// bitset is cleared through before it goes back.
	reachPool []*reachScratch
	// Exactly one output is set: rs collects Value rows (ExecPrepared),
	// sink receives int tuples (QueryInts; row is its buffer, seen the
	// distinct tuples so far under DISTINCT, nil otherwise), and capture
	// collects raw bindings for the clause-at-a-time executor. seenSet is
	// the tuple set kept across pooled executions.
	rs      *ResultSet
	sink    relational.IntSink
	row     [5]int64
	seen    map[[5]int64]struct{}
	seenSet map[[5]int64]struct{}
	capture func() error
	// ctx/done drive cooperative cancellation: done caches ctx.Done() so
	// the checkpoints cost a nil compare when no cancellable context is
	// bound; tick amortizes the poll to every 64th step.
	ctx  context.Context
	done <-chan struct{}
	tick uint32
}

// maxPooledSeen caps the distinct-tuple set a pooled matcher keeps.
const maxPooledSeen = 1 << 16

// matchers pools matchers across every Prepared: acquire sizes a
// matcher's slot arrays to the Prepared it runs.
var matchers sync.Pool

// sized returns s with length n: s itself when its capacity allows
// (release leaves every element zero), a new slice otherwise.
func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// acquire takes a pooled matcher for one execution of p on g and binds
// the execution's parameters, snapshot and context.
func (p *Prepared) acquire(g *Graph, ctx context.Context, params *ExecParams) *matcher {
	m, _ := matchers.Get().(*matcher)
	if m == nil {
		m = &matcher{}
		m.resolveFn = m.resolveCur
	}
	m.p, m.q = p, p.q
	m.nodeVals = sized(m.nodeVals, len(p.nodeVars))
	m.edgeVals = sized(m.edgeVals, len(p.edgeVars))
	m.nodeIDs = sized(m.nodeIDs, len(p.nodeVars))
	m.errs = sized(m.errs, len(p.conjs))
	m.g = g
	if params != nil {
		m.view, m.floor, m.params.Vals = params.View, params.MinEdgeID, params.Vals
		for _, nb := range params.Nodes {
			if s := slices.Index(p.nodeVars, nb.Var); s >= 0 {
				m.nodeIDs[s] = nb.IDs
			}
		}
	}
	if ctx != nil {
		m.ctx, m.done = ctx, ctx.Done()
	}
	m.bindStore()
	return m
}

// release returns m to the pool with nothing of the execution pinned. A
// walk that returned an error part way may leave bindings and errors set;
// they are cleared here. A walk that panicked is not released: its
// var-length bitsets may still hold marks.
func (p *Prepared) release(m *matcher) {
	clear(m.nodeVals)
	clear(m.edgeVals)
	clear(m.nodeIDs)
	clear(m.errs)
	m.nerr, m.floored, m.tick = 0, 0, 0
	m.g, m.view, m.vedges, m.floor, m.params.Vals = nil, nil, nil, 0, nil
	m.rs, m.sink, m.capture, m.cur = nil, nil, nil, nil
	m.p, m.q = nil, nil
	m.ctx, m.done = nil, nil
	m.stats = ExecStats{}
	if len(m.seenSet) > maxPooledSeen {
		m.seenSet = nil
	}
	clear(m.seenSet)
	m.seen = nil
	matchers.Put(m)
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

// check evaluates the conjuncts a binding completed (see Prepared): a
// definite false prunes the branch, and an evaluation error is recorded
// on the branch instead (see matcher.errs).
func (m *matcher) check(list []int32) bool {
	for _, ci := range list {
		v, err := m.eval(ci)
		if err != nil {
			m.errs[ci] = err
			m.nerr++
			continue
		}
		if !v.Truthy() {
			return false
		}
	}
	return true
}

// eval evaluates conjunct ci under the current bindings.
func (m *matcher) eval(ci int32) (Value, error) {
	m.cur = &m.p.conjs[ci]
	return relational.EvalExprWith(m.cur.e, m.resolveFn, &m.params)
}

// resolveCur resolves a column reference of the conjunct under evaluation.
func (m *matcher) resolveCur(c relational.ColRef) (Value, error) {
	for i := range m.cur.refs {
		if m.cur.refs[i].c == c {
			return m.refValue(&m.cur.refs[i])
		}
	}
	return relational.Null(), fmt.Errorf("cypher: unknown variable %q", c.Qualifier)
}

// refValue reads one resolved reference under the current bindings.
func (m *matcher) refValue(r *ref) (Value, error) {
	if r.slot >= 0 && !r.edge {
		if id := m.nodeVals[r.slot]; id != 0 {
			switch r.prop {
			case "", "id":
				return relational.Int(id), nil
			case "label":
				return relational.Str(m.node(id).Label), nil
			}
			if v, has := m.node(id).Prop(r.prop); has {
				return v, nil
			}
			return relational.Null(), nil
		}
	} else if r.slot >= 0 {
		if id := m.edgeVals[r.slot]; id != 0 {
			switch r.prop {
			case "", "id":
				return relational.Int(id), nil
			case "type":
				return relational.Str(m.edgeAtID(id).Type), nil
			}
			if v, has := m.edgeAtID(id).Prop(r.prop); has {
				return v, nil
			}
			return relational.Null(), nil
		}
	}
	return relational.Null(), fmt.Errorf("cypher: unknown variable %q", r.name)
}

// bindEdge binds edge slot s to edge id unless it is bound already (or
// s < 0: the hop binds no variable). ok false means the slot is bound to
// another edge; fresh reports a new binding the caller undoes with
// unbindEdge.
func (m *matcher) bindEdge(s int, id int64) (ok, fresh bool) {
	if s < 0 {
		return true, false
	}
	if prev := m.edgeVals[s]; prev != 0 {
		return prev == id, false
	}
	m.edgeVals[s] = id
	return true, true
}

// unbindNode and unbindEdge undo a fresh binding, with the errors its
// conjuncts recorded.
func (m *matcher) unbindNode(s int) {
	m.nodeVals[s] = 0
	if m.nerr > 0 {
		m.clearErrs(m.p.onNode[s])
	}
}

func (m *matcher) unbindEdge(s int) {
	m.edgeVals[s] = 0
	if m.nerr > 0 {
		m.clearErrs(m.p.onEdge[s])
	}
}

func (m *matcher) clearErrs(list []int32) {
	for _, ci := range list {
		if m.errs[ci] != nil {
			m.errs[ci] = nil
			m.nerr--
		}
	}
}

// ExecPrepared runs a prepared query with execution-time parameter
// bindings and returns its rows as a ResultSet. The query stays immutable,
// so one Prepared serves every call; the parameters vary per call. The
// clause-at-a-time execution model (multi-pattern queries with
// ClauseAtATime set — the naive RQ4 comparison plan) does not support
// parameters. The matcher polls ctx.Done() at anchor candidates,
// variable-length DFS depth steps, and edge-driven scan iterations,
// returning ctx.Err() promptly once the context is cancelled; a nil or
// never-cancelled context adds no work.
func (g *Graph) ExecPrepared(ctx context.Context, p *Prepared, params *ExecParams) (*ResultSet, ExecStats, error) {
	q := p.q
	if q.ClauseAtATime && len(q.Patterns) > 1 {
		if params != nil {
			return nil, ExecStats{}, fmt.Errorf("graphdb: parameters are not supported with clause-at-a-time execution")
		}
		g.ensureAdjSorted()
		return g.execClauseAtATime(q)
	}
	m := p.acquire(g, ctx, params)
	m.rs = &ResultSet{Columns: p.cols}
	err := m.run()
	rs, stats := m.rs, m.stats
	p.release(m)
	if err != nil {
		return nil, stats, err
	}
	if q.Distinct {
		rs.Rows = dedupRows(rs.Rows)
	}
	return rs, stats, nil
}

// QueryInts runs a prepared query whose return items read integers (IDs
// and integer attributes, at most five) and hands each row to sink as an
// int tuple, in the order ExecPrepared returns them: no Value row is
// built. A NULL item reads as 0; any other non-integer item fails the
// query, so distinct strings never collapse into one tuple. DISTINCT
// drops repeated tuples as they are found (first one wins, as in
// ExecPrepared); clause-at-a-time execution needs ExecPrepared.
func (g *Graph) QueryInts(ctx context.Context, p *Prepared, params *ExecParams, sink relational.IntSink) (ExecStats, error) {
	q := p.q
	switch {
	case len(q.Return) > len([5]int64{}):
		return ExecStats{}, fmt.Errorf("graphdb: QueryInts returns at most 5 items, query has %d", len(q.Return))
	case q.ClauseAtATime && len(q.Patterns) > 1:
		return ExecStats{}, fmt.Errorf("graphdb: QueryInts does not run clause-at-a-time queries")
	}
	m := p.acquire(g, ctx, params)
	m.sink = sink
	if q.Distinct {
		if m.seenSet == nil {
			m.seenSet = make(map[[5]int64]struct{})
		}
		m.seen = m.seenSet
	}
	err := m.run()
	stats := m.stats
	p.release(m)
	return stats, err
}

// run walks the query from its anchors (or, for a floored single hop,
// from the edge suffix) and emits every match.
func (m *matcher) run() error {
	if m.view == nil {
		// Snapshot runs skip the lazy re-sort: their capture already
		// sorted, and sorting here would race with the concurrent writer.
		m.g.ensureAdjSorted()
	}
	if m.edgeDrivenOK() {
		return m.matchEdgeDriven()
	}
	return m.matchPattern(0, 0)
}

// edgeDrivenOK reports whether the execution can be driven off the edge
// arena suffix instead of anchor enumeration: a floored query whose only
// relationship is one outbound hop. The floor then applies to that hop
// alone, and edge IDs are dense arena offsets, so "edges with ID >=
// floor" is a direct suffix slice — a standing-query delta round visits
// O(new edges), not O(anchor nodes), no matter how large the store has
// grown.
func (m *matcher) edgeDrivenOK() bool {
	return m.floor > 0 && m.p.oneHop && m.q.Patterns[0].Rels[0].Dir == DirOut
}

// matchEdgeDriven enumerates edges from the floor upward and binds each
// edge's endpoints against the pattern — semantically identical to the
// anchor-driven walk restricted to edges with ID >= MinEdgeID, but linear
// in the number of new edges.
func (m *matcher) matchEdgeDriven() error {
	pat := &m.q.Patterns[0]
	rel := &pat.Rels[0]
	srcPat, dstPat := pat.Nodes[0], pat.Nodes[1]
	ss, ds, es := m.p.slots[0].nodes[0], m.p.slots[0].nodes[1], m.p.slots[0].rels[0]
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
		okS, boundS := m.bindNode(srcPat, ss, e.From)
		if !okS {
			continue
		}
		var err error
		okD, boundD := m.bindNode(dstPat, ds, e.To)
		if okD {
			_, boundE := m.bindEdge(es, ei+1)
			if m.checkFresh(ss, boundS) && m.checkFresh(ds, boundD) && (!boundE || m.check(m.p.onEdge[es])) {
				err = m.emit()
			}
			if boundE {
				m.unbindEdge(es)
			}
		}
		if boundD {
			m.unbindNode(ds)
		}
		if boundS {
			m.unbindNode(ss)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// checkFresh checks the conjuncts node slot s completes when this step
// bound it fresh.
func (m *matcher) checkFresh(s int, fresh bool) bool {
	return !fresh || m.check(m.p.onNode[s])
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
	s := m.p.slots[pi].nodes[ni]
	if ni == 0 {
		// Anchor: enumerate candidates for the first node of the pattern.
		cands, err := m.candidates(np, s)
		if err != nil {
			return err
		}
		for _, id := range cands {
			if err := m.checkCancel(); err != nil {
				return err
			}
			ok, bound := m.bindNode(np, s, id)
			if !ok {
				continue
			}
			if m.checkFresh(s, bound) {
				err = m.matchHop(pi, ni)
			}
			if bound {
				m.unbindNode(s)
			}
			if err != nil {
				return err
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
	ps := &m.p.slots[pi]
	if srcPat.Var == "" {
		return fmt.Errorf("cypher: internal: anonymous source nodes in mid-pattern are unsupported")
	}
	src := m.nodeVals[ps.nodes[ni]] // anchors and prior hops guarantee binding
	ds, es := ps.nodes[ni+1], ps.rels[ni]

	tryDst := func(edgeID int64, dst int64) error {
		ok, bound := m.bindNode(dstPat, ds, dst)
		if !ok {
			return nil
		}
		okE, edgeBound := m.bindEdge(es, edgeID)
		var err error
		if okE && m.checkFresh(ds, bound) && (!edgeBound || m.check(m.p.onEdge[es])) {
			err = m.matchHop(pi, ni+1)
		}
		if edgeBound {
			m.unbindEdge(es)
		}
		if bound {
			m.unbindNode(ds)
		}
		return err
	}

	if !rel.IsVarLen() {
		adj := m.adjacent(src, rel.Dir)
		if es >= 0 && rel.Dir != DirBoth {
			// A declared time window narrows the sorted adjacency list to
			// the in-window span by binary search.
			if w := m.p.windows[es]; w.ok {
				adj[0] = windowSliceIn(m.vedges, adj[0], w.lo, w.hi)
			}
		}
		// The floor compares edge element IDs (ei+1) — exactly what a
		// "e.id >= N" WHERE conjunct compares, since an edge's "id" reads
		// its element ID. Callers flooring by an external ID space
		// (the TBQL engine's audit event IDs) rely on their own
		// element-ID == external-ID invariant; the engine pins its dense
		// event-ID mapping with TestGraphEdgeIDsMatchEventIDs. A query
		// whose only relationship is this hop skips older edges outright.
		for _, list := range adj {
			for _, ei := range list {
				id := int64(ei) + 1
				if m.p.oneHop && id < m.floor {
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
	if m.reachOK(&rel, dstPat, ds, src) {
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
func (m *matcher) reachOK(rel *RelPat, dstPat NodePat, ds int, src int64) bool {
	if !m.q.Distinct || m.floor > 0 || rel.Min > 1 {
		return false
	}
	if rel.Min == 0 {
		return true
	}
	ok, _ := m.admits(dstPat, ds, m.node(src), src)
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

// acquireReach pops a clean BFS scratch from the pool, or allocates one,
// with a bitset that covers every node ID of the bound store (a pooled
// matcher's earlier execution may have read a smaller one).
func (m *matcher) acquireReach() *reachScratch {
	words := len(m.g.nodes)/64 + 1
	if m.view != nil {
		words = m.view.NumNodes()/64 + 1
	}
	if n := len(m.reachPool); n > 0 {
		sc := m.reachPool[n-1]
		m.reachPool = m.reachPool[:n-1]
		if len(sc.seen) < words {
			sc.seen = make([]uint64, words)
		}
		return sc
	}
	return &reachScratch{seen: make([]uint64, words)}
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

// acquireVisited pops a clean edge bitset from the pool, or allocates one,
// sized to the bound edge arena. Nested variable-length hops (one
// var-length relationship reached while another's DFS is on the stack)
// each take their own bitset, preserving per-hop edge-uniqueness
// semantics.
func (m *matcher) acquireVisited() []uint64 {
	words := (len(m.vedges) + 63) / 64
	if n := len(m.visitedPool); n > 0 {
		bs := m.visitedPool[n-1]
		m.visitedPool = m.visitedPool[:n-1]
		if len(bs) >= words {
			return bs
		}
	}
	return make([]uint64, words)
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

// bindNode checks node constraints and binds slot s (the pattern's
// variable; -1 for none) if it is unbound. ok reports whether the node
// satisfies the pattern; bound reports whether this call created the
// binding (the caller undoes it with unbindNode when backtracking).
func (m *matcher) bindNode(np NodePat, s int, id int64) (ok, bound bool) {
	n := m.node(id)
	if n == nil {
		return false, false
	}
	m.stats.NodesVisited++
	if ok, fresh := m.admits(np, s, n, id); !ok || !fresh {
		return ok, false
	}
	m.nodeVals[s] = id
	return true, true
}

// admits reports whether node n (ID id; nil for no such node) satisfies
// the node pattern under the current bindings: label, inline properties,
// the variable's bound ID list, and any earlier binding of the variable
// (slot s). fresh reports that the pattern names a variable not yet bound.
func (m *matcher) admits(np NodePat, s int, n *Node, id int64) (ok, fresh bool) {
	if n == nil || np.Label != "" && !strings.EqualFold(np.Label, n.Label) {
		return false, false
	}
	for k, want := range np.Props {
		got, has := n.Prop(k)
		if !has || !got.Equal(want) {
			return false, false
		}
	}
	if s < 0 {
		return true, false
	}
	if ids := m.nodeIDs[s]; ids != nil && !containsID(ids, id) {
		return false, false
	}
	if prev := m.nodeVals[s]; prev != 0 {
		return prev == id, false
	}
	return true, true
}

// containsID binary-searches a sorted unique ID list.
func containsID(ids []int64, id int64) bool {
	return relational.ContainsSortedInt64(ids, id)
}

// candidates enumerates anchor candidates for a node pattern (slot s),
// preferring a bound ID list (fed forward by the TBQL scheduler), then an
// explicit ID constraint in WHERE ("s.id IN (...)"), then the label scan,
// then all nodes. Inline properties ({k: v}) filter candidates in
// bindNode.
func (m *matcher) candidates(np NodePat, s int) ([]int64, error) {
	if s >= 0 {
		if id := m.nodeVals[s]; id != 0 {
			return []int64{id}, nil
		}
		if ids := m.nodeIDs[s]; ids != nil {
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

// intConst reads an integer literal or an integer bound to a value slot.
func (m *matcher) intConst(e relational.Expr) (int64, bool) {
	var v relational.Value
	switch c := e.(type) {
	case relational.Lit:
		v = c.V
	case relational.ValParam:
		if c.Slot < 0 || c.Slot >= len(m.params.Vals) {
			return 0, false
		}
		v = m.params.Vals[c.Slot]
	}
	return v.I, v.K == relational.KindInt
}

// idConstraint scans the WHERE conjuncts for "var.id = n" or
// "var.id IN (n1, n2, ...)" with constant operands.
func (m *matcher) idConstraint(varName string) ([]int64, bool) {
	colMatches := func(e relational.Expr) bool {
		c, ok := e.(relational.ColRef)
		return ok && c.Qualifier == varName && (c.Column == "id" || c.Column == "")
	}
	for i := range m.p.conjs {
		switch v := m.p.conjs[i].e.(type) {
		case relational.BinOp:
			if v.Op == "=" && colMatches(v.L) {
				if id, ok := m.intConst(v.R); ok {
					return []int64{id}, true
				}
			}
		case relational.InList:
			if v.Negate || !colMatches(v.E) {
				continue
			}
			ids := make([]int64, 0, len(v.Vals))
			allLit := true
			for _, ve := range v.Vals {
				id, ok := m.intConst(ve)
				if !ok {
					allLit = false
					break
				}
				ids = append(ids, id)
			}
			if allLit {
				return ids, true
			}
		}
	}
	return nil, false
}

// emit finishes a complete binding: under a floor a match whose trail
// holds no floored edge is dropped; then WHERE settles as its whole
// evaluation would, conjunct by conjunct in order — a conjunct a step
// checked is true or recorded an error, one checked here may also be
// false (the row is dropped) — and the row is projected into the run's
// output.
func (m *matcher) emit() error {
	if m.floor > 0 && m.floored == 0 {
		return nil
	}
	if m.nerr > 0 || m.p.atEmit {
		for i := range m.p.conjs {
			if m.p.conjs[i].step {
				if err := m.errs[i]; err != nil {
					return err
				}
				continue
			}
			v, err := m.eval(int32(i))
			if err != nil {
				return err
			}
			if !v.Truthy() {
				return nil
			}
		}
	}
	switch {
	case m.capture != nil:
		return m.capture()
	case m.sink != nil:
		var r [5]int64
		for i := range m.p.proj {
			v, err := m.refValue(&m.p.proj[i])
			if err != nil {
				return err
			}
			if v.K != relational.KindInt && v.K != relational.KindNull {
				return fmt.Errorf("graphdb: QueryInts reads integers, return item %s is %v", m.p.cols[i], v)
			}
			r[i] = v.I
		}
		if m.seen != nil {
			if _, dup := m.seen[r]; dup {
				return nil
			}
			m.seen[r] = struct{}{}
		}
		m.row = r
		m.sink.Row(m.row[:len(m.p.proj)])
		return nil
	}
	row := make([]Value, len(m.p.proj))
	for i := range m.p.proj {
		v, err := m.refValue(&m.p.proj[i])
		if err != nil {
			return err
		}
		row[i] = v
	}
	m.rs.Rows = append(m.rs.Rows, row)
	return nil
}

func dedupRows(rows [][]Value) [][]Value {
	return relational.DedupRows(rows)
}
