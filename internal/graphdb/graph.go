// Package graphdb is an in-process property graph database with a matcher
// for Cypher-subset query ASTs (MATCH with variable-length relationships,
// WHERE, RETURN DISTINCT), compiled once by Prepare and printed as Cypher
// for EXPLAIN.
//
// It is the Neo4j stand-in for ThreatRaptor's graph storage backend
// (Section III-B): system entities are stored as nodes and system events as
// edges, and TBQL variable-length event path patterns are compiled into
// Cypher data queries executed here. The engine builds those queries as
// ASTs; the package reads no Cypher text (the test support package
// cyphertext does).
//
// Property values and WHERE expressions reuse the typed Value and
// expression AST of the relational engine so both backends share one
// comparison and LIKE semantics.
package graphdb

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"threatraptor/internal/relational"
)

// Value is the property value type (shared with the relational engine).
type Value = relational.Value

// Props is a node or edge property bag. As a node's Attrs it answers
// from the map, so graphs built from literals need no adapter.
type Props map[string]Value

// Prop implements Attrs.
func (p Props) Prop(key string) (Value, bool) {
	v, ok := p[key]
	return v, ok
}

// Attrs is a node's attribute source. Implementations must be immutable
// once the node is inserted: live queries and published views read them
// lock-free from any goroutine.
type Attrs interface {
	Prop(key string) (Value, bool)
}

// Node is a labeled node. Node IDs are dense: the node at arena offset i
// has ID i+1, so a node carries no ID of its own.
type Node struct {
	Label string
	Attrs Attrs
}

// Prop reads one node attribute; a node without an attribute source has
// none.
func (n *Node) Prop(key string) (Value, bool) {
	if n.Attrs == nil {
		return Value{}, false
	}
	return n.Attrs.Prop(key)
}

// Edge is a typed, directed property edge. Event edges (the dominant
// population: one per audit event) carry their four attributes in the
// typed columnar fields below with a nil Props map — AddEventEdge inserts
// them without allocating any per-edge property bag. Generic edges keep
// the Props map.
type Edge struct {
	ID    int64
	From  int64
	To    int64
	Type  string
	Props Props // nil for event edges; see the typed fields
	// startTime caches the "start_time" property (math.MinInt64 when
	// absent) so adjacency lists can sort and binary-search by time
	// without a property-map lookup per edge.
	startTime int64
	// endTime, amount, and evID are the remaining event-edge attributes
	// ("end_time", "amount", "id"), valid when typed is set.
	endTime int64
	amount  int64
	evID    int64
	typed   bool
}

// Prop returns one edge property. Event edges resolve the four typed
// attributes from their columnar fields; generic edges consult the bag.
func (e *Edge) Prop(name string) (Value, bool) {
	if !e.typed {
		v, ok := e.Props[name]
		return v, ok
	}
	switch name {
	case "id":
		return relational.Int(e.evID), true
	case "start_time":
		if e.startTime != noStartTime {
			return relational.Int(e.startTime), true
		}
	case "end_time":
		return relational.Int(e.endTime), true
	case "amount":
		return relational.Int(e.amount), true
	}
	return Value{}, false
}

// next returns the node edge e leads to from cur when walked in the
// direction: its head going out, its tail coming in, and for DirBoth the
// endpoint other than cur (cur itself for a self-loop).
func (e *Edge) next(cur int64, dir Direction) int64 {
	if dir == DirIn || dir == DirBoth && e.To == cur {
		return e.From
	}
	return e.To
}

// noStartTime marks edges without a start_time property; they sort before
// every timestamped edge, matching NULL-sorts-first comparison semantics.
const noStartTime = math.MinInt64

// Graph stores nodes and edges in slice-backed arenas: node and edge
// structs live contiguously, adjacency is per-node []int32 arena offsets
// (CSR-style), and each node's outgoing/incoming edge list is kept sorted
// by the edges' start_time so windowed traversals binary-search to the
// first in-window edge instead of scanning the whole neighborhood.
type Graph struct {
	nodes   []Node    // node ID i lives at arena offset i-1
	edges   []Edge    // edge ID i lives at arena offset i-1
	out     [][]int32 // node arena offset -> outgoing edge offsets
	in      [][]int32 // node arena offset -> incoming edge offsets
	byLabel map[string][]int64
	// adjArena is the spare backing store new adjacency lists are carved
	// from (see appendAdj); it keeps per-edge ingest allocation-free for
	// the dominant low-degree nodes.
	adjArena []int32

	// dirtyOut/dirtyIn hold the node arena offsets whose adjacency list
	// received an out-of-time-order edge append; only those lists are
	// re-sorted lazily before the next query. Keeping the dirt per node
	// makes live ingestion sublinear: a late event re-sorts two
	// neighborhoods, not the whole graph.
	dirtyOut map[int32]struct{}
	dirtyIn  map[int32]struct{}
	sortMu   sync.Mutex

	// pubOut/pubIn are the published chunked adjacency copies handed to
	// views (see view.go): the outer slice holds one chunk of adjChunkSize
	// inner-list headers per adjChunkSize node offsets. Chunks are
	// copy-on-write — a publish clones only the chunks whose dirty bit is
	// set below, so publishing costs O(touched chunks), not O(nodes).
	pubOut, pubIn [][][]int32
	// dirtyPubOut/dirtyPubIn are bitsets over chunk indices: bit ci set
	// means live adjacency inside chunk ci changed (edge append, node
	// append, lazy re-sort, rollback) since the last publish, so pubOut/
	// pubIn chunk ci must be re-cloned. Writer-only, like the arenas.
	dirtyPubOut, dirtyPubIn []uint64

	// mu synchronizes byLabel between the single writer and snapshot-view
	// readers: node inserts and rollbacks take the write lock, view label
	// probes the read lock (see view.go). Live queries run on the writer's
	// own goroutine and need no locking; edge appends mutate no map a view
	// reads and stay lock-free. Because IDs are dense and ascending, every
	// label list is sorted, so anchor enumeration can merge-intersect it
	// against the sorted binding ID lists the TBQL scheduler feeds forward.
	mu sync.RWMutex
}

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	return &Graph{byLabel: make(map[string][]int64)}
}

// ReserveNodes preallocates arena capacity for n additional nodes. Growth
// follows relational.GrowCap so live append batches amortize to O(1)
// copies per element (a cold arena still gets exactly the requested size).
func (g *Graph) ReserveNodes(n int) {
	need := len(g.nodes) + n
	if cap(g.nodes) < need {
		grown := make([]Node, len(g.nodes), relational.GrowCap(cap(g.nodes), need))
		copy(grown, g.nodes)
		g.nodes = grown
	}
	growAdj := func(adj [][]int32) [][]int32 {
		if cap(adj) < need {
			grown := make([][]int32, len(adj), relational.GrowCap(cap(adj), need))
			copy(grown, adj)
			return grown
		}
		return adj
	}
	g.out = growAdj(g.out)
	g.in = growAdj(g.in)
}

// ReserveEdges preallocates arena capacity for n additional edges.
func (g *Graph) ReserveEdges(n int) {
	need := len(g.edges) + n
	if cap(g.edges) < need {
		grown := make([]Edge, len(g.edges), relational.GrowCap(cap(g.edges), need))
		copy(grown, g.edges)
		g.edges = grown
	}
}

// AddNode inserts a node and returns its ID, the next dense ID.
func (g *Graph) AddNode(label string, attrs Attrs) int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	ni := int32(len(g.nodes))
	id := int64(ni) + 1
	g.nodes = append(g.nodes, Node{Label: label, Attrs: attrs})
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	markAdjChunkDirty(&g.dirtyPubOut, ni)
	markAdjChunkDirty(&g.dirtyPubIn, ni)
	g.byLabel[label] = append(g.byLabel[label], id)
	return id
}

// AddNodeWithID inserts a node under a caller-chosen ID (used when
// mirroring entity IDs from the relational store). The ID must be the
// next dense one.
func (g *Graph) AddNodeWithID(id int64, label string, attrs Attrs) error {
	if next := int64(len(g.nodes)) + 1; id != next {
		return fmt.Errorf("graphdb: node id %d is not the next id %d", id, next)
	}
	g.AddNode(label, attrs)
	return nil
}

// AddEdge inserts a directed edge and returns its ID. Both endpoints must
// exist.
func (g *Graph) AddEdge(from, to int64, typ string, props Props) (int64, error) {
	st := int64(noStartTime)
	if v, has := props["start_time"]; has && v.K == relational.KindInt {
		st = v.I
	}
	return g.addEdge(Edge{From: from, To: to, Type: typ, Props: props, startTime: st})
}

// AddEventEdge inserts a directed event edge carrying the four standard
// audit-event attributes (id, start_time, end_time, amount) in the edge's
// typed fields — no per-edge property map is allocated. This is the bulk
// ingest path for both store loading and live appends.
func (g *Graph) AddEventEdge(from, to int64, typ string, evID, start, end, amount int64) (int64, error) {
	return g.addEdge(Edge{
		From: from, To: to, Type: typ,
		startTime: start, endTime: end, amount: amount, evID: evID, typed: true,
	})
}

func (g *Graph) addEdge(e Edge) (int64, error) {
	fi, okF := g.offsetOf(e.From)
	ti, okT := g.offsetOf(e.To)
	if !okF || !okT {
		return 0, fmt.Errorf("graphdb: edge endpoints must exist (%d -> %d)", e.From, e.To)
	}
	st := e.startTime
	ei := int32(len(g.edges))
	e.ID = int64(ei) + 1
	g.edges = append(g.edges, e)
	if l := g.out[fi]; len(l) > 0 && g.edges[l[len(l)-1]].startTime > st {
		if g.dirtyOut == nil {
			g.dirtyOut = make(map[int32]struct{})
		}
		g.dirtyOut[fi] = struct{}{}
	}
	g.out[fi] = g.appendAdj(g.out[fi], ei)
	markAdjChunkDirty(&g.dirtyPubOut, fi)
	if l := g.in[ti]; len(l) > 0 && g.edges[l[len(l)-1]].startTime > st {
		if g.dirtyIn == nil {
			g.dirtyIn = make(map[int32]struct{})
		}
		g.dirtyIn[ti] = struct{}{}
	}
	g.in[ti] = g.appendAdj(g.in[ti], ei)
	markAdjChunkDirty(&g.dirtyPubIn, ti)
	return e.ID, nil
}

// Published adjacency is chunked so a snapshot publish clones only the
// chunks an append batch touched (audit batches touch few distinct
// neighborhoods) instead of re-copying one slice header per node.
const (
	adjChunkShift = 6 // 64 node offsets per chunk
	adjChunkSize  = 1 << adjChunkShift
)

// markAdjChunkDirty flags the published-adjacency chunk holding node
// offset ni as stale. Writer-only.
func markAdjChunkDirty(set *[]uint64, ni int32) {
	ci := uint32(ni) >> adjChunkShift
	w := ci >> 6
	for uint32(len(*set)) <= w {
		*set = append(*set, 0)
	}
	(*set)[w] |= 1 << (ci & 63)
}

// publishAdj refreshes and returns the published chunked copies of both
// adjacency directions. It must run writer-synchronized (Capture's
// contract): stale chunks are re-cloned from the live arrays, clean
// chunks are shared with every previously published view. The returned
// outer slices are immutable — the next publish builds fresh ones.
func (g *Graph) publishAdj() (out, in [][][]int32) {
	out = publishAdjChunks(&g.pubOut, g.out, g.dirtyPubOut)
	in = publishAdjChunks(&g.pubIn, g.in, g.dirtyPubIn)
	clear(g.dirtyPubOut)
	clear(g.dirtyPubIn)
	return out, in
}

func publishAdjChunks(pub *[][][]int32, live [][]int32, dirty []uint64) [][][]int32 {
	nchunks := (len(live) + adjChunkSize - 1) >> adjChunkShift
	old := *pub
	clean := true
	for _, w := range dirty {
		if w != 0 {
			clean = false
			break
		}
	}
	if clean && len(old) == nchunks {
		return old
	}
	isStale := func(ci int) bool {
		if ci >= len(old) {
			return true
		}
		return ci>>6 < len(dirty) && dirty[ci>>6]&(1<<(uint(ci)&63)) != 0
	}
	next := make([][][]int32, nchunks)
	copy(next, old)
	// All stale-chunk clones share one backing allocation: a 512-event
	// append batch can dirty dozens of chunks, and one allocation per
	// chunk would put per-batch alloc count back on an O(batch) slope.
	total := 0
	for ci := 0; ci < nchunks; ci++ {
		if isStale(ci) {
			end := (ci + 1) << adjChunkShift
			if end > len(live) {
				end = len(live)
			}
			total += end - ci<<adjChunkShift
		}
	}
	buf := make([][]int32, 0, total)
	for ci := 0; ci < nchunks; ci++ {
		if !isStale(ci) {
			continue
		}
		start := ci << adjChunkShift
		end := start + adjChunkSize
		if end > len(live) {
			end = len(live)
		}
		at := len(buf)
		buf = append(buf, live[start:end]...)
		next[ci] = buf[at:len(buf):len(buf)]
	}
	*pub = next
	return next
}

// appendAdj appends to an adjacency list. New lists are carved from the
// graph's shared arena at capacity 4 (low-degree nodes dominate audit
// graphs), so the dominant "first edge of a node" case allocates nothing;
// lists that outgrow their carve fall back to ordinary doubling.
func (g *Graph) appendAdj(l []int32, ei int32) []int32 {
	if cap(l) == 0 {
		l = carveList(&g.adjArena)
	}
	return append(l, ei)
}

// carveList cuts a len-0 cap-4 slice from the arena, refilling it in bulk
// when exhausted. Abandoned carve remainders (lists that grew past 4 and
// relocated) stay unreferenced inside old chunks — a bounded waste of at
// most 16 bytes per high-degree node.
func carveList(arena *[]int32) []int32 {
	a := *arena
	if cap(a) < 4 {
		a = make([]int32, 4096)
	}
	s := a[0:0:4]
	*arena = a[4:]
	return s
}

// ensureAdjSorted restores the by-start_time order of the adjacency lists
// touched by out-of-order inserts. Live queries call it once on entry;
// audit logs arrive mostly in time order, so in the steady state it is two
// map checks, and a late event costs two neighborhood sorts — never a
// whole-graph pass. The re-sort is copy-on-write: a freshly sorted array
// is swapped into the adjacency slot rather than sorting in place, so
// published views (which hold the old inner-list headers) keep reading the
// order they captured.
func (g *Graph) ensureAdjSorted() {
	g.sortMu.Lock()
	defer g.sortMu.Unlock()
	if len(g.dirtyOut) == 0 && len(g.dirtyIn) == 0 {
		return
	}
	sortList := func(l []int32) []int32 {
		s := append([]int32(nil), l...)
		sort.Slice(s, func(a, b int) bool {
			ea, eb := &g.edges[s[a]], &g.edges[s[b]]
			if ea.startTime != eb.startTime {
				return ea.startTime < eb.startTime
			}
			return s[a] < s[b]
		})
		return s
	}
	for fi := range g.dirtyOut {
		g.out[fi] = sortList(g.out[fi])
		markAdjChunkDirty(&g.dirtyPubOut, fi)
	}
	for ti := range g.dirtyIn {
		g.in[ti] = sortList(g.in[ti])
		markAdjChunkDirty(&g.dirtyPubIn, ti)
	}
	g.dirtyOut = nil
	g.dirtyIn = nil
}

// Mark captures the graph's append high-water marks so a failed batch
// append can be rolled back with Rollback.
type Mark struct {
	nodes int
	edges int
}

// Mark returns the current append high-water marks. Take it immediately
// before an append batch; no live query may run between Mark and Rollback
// (the append path is single-writer), though snapshot views published
// before the mark may be read throughout — they never cover the elements
// a rollback removes.
func (g *Graph) Mark() Mark {
	return Mark{nodes: len(g.nodes), edges: len(g.edges)}
}

// Rollback removes every node and edge appended since the mark, restoring
// the arenas, adjacency lists and label lists. It relies on append-only
// tails: adjacency and label lists only ever append between Mark and
// Rollback (lazy adjacency re-sorts happen on query entry, and queries are
// excluded), so the appended suffix of each list is exactly what must be
// popped.
func (g *Graph) Rollback(m Mark) {
	// Pop edges newest-first so each one sits at the tail of its
	// endpoints' adjacency lists when removed.
	for ei := len(g.edges) - 1; ei >= m.edges; ei-- {
		e := &g.edges[ei]
		fi, _ := g.offsetOf(e.From)
		if l := g.out[fi]; len(l) > 0 && l[len(l)-1] == int32(ei) {
			g.out[fi] = l[:len(l)-1]
			markAdjChunkDirty(&g.dirtyPubOut, fi)
		}
		ti, _ := g.offsetOf(e.To)
		if l := g.in[ti]; len(l) > 0 && l[len(l)-1] == int32(ei) {
			g.in[ti] = l[:len(l)-1]
			markAdjChunkDirty(&g.dirtyPubIn, ti)
		}
		*e = Edge{} // release Props/string references held by the arena
	}
	g.edges = g.edges[:m.edges]

	// Pop nodes newest-first: label lists appended the IDs in insertion
	// order, so each removed ID is a list tail. The map mutations take the
	// write lock so concurrent view probes never see a half-popped list
	// (the popped entries are all post-capture IDs, so views lose nothing
	// they covered).
	g.mu.Lock()
	for ni := len(g.nodes) - 1; ni >= m.nodes; ni-- {
		n := &g.nodes[ni]
		if l := g.byLabel[n.Label]; len(l) > 0 && l[len(l)-1] == int64(ni)+1 {
			if len(l) == 1 {
				delete(g.byLabel, n.Label)
			} else {
				g.byLabel[n.Label] = l[:len(l)-1]
			}
		}
		*n = Node{}
	}
	g.nodes = g.nodes[:m.nodes]
	g.out = g.out[:m.nodes]
	g.in = g.in[:m.nodes]
	g.mu.Unlock()

	// Dirty-list entries for removed nodes would make the next lazy
	// re-sort index past the truncated adjacency arrays; entries for
	// surviving nodes stay (re-sorting a clean list is harmless).
	g.sortMu.Lock()
	for fi := range g.dirtyOut {
		if int(fi) >= m.nodes {
			delete(g.dirtyOut, fi)
		}
	}
	for ti := range g.dirtyIn {
		if int(ti) >= m.nodes {
			delete(g.dirtyIn, ti)
		}
	}
	g.sortMu.Unlock()
}

// offsetOf resolves a node ID to its arena offset: IDs are dense, so it
// is a bounds check.
func (g *Graph) offsetOf(id int64) (int32, bool) {
	if id < 1 || id > int64(len(g.nodes)) {
		return 0, false
	}
	return int32(id - 1), true
}

// node returns a pointer into the node arena, or nil. The pointer is
// valid until the next node insert (arena growth may relocate it).
func (g *Graph) node(id int64) *Node {
	i, ok := g.offsetOf(id)
	if !ok {
		return nil
	}
	return &g.nodes[i]
}

// edgeByID returns a pointer into the edge arena, or nil; edge IDs are
// dense (arena offset + 1), so this is a bounds check, not a map lookup.
func (g *Graph) edgeByID(id int64) *Edge {
	if id < 1 || id > int64(len(g.edges)) {
		return nil
	}
	return &g.edges[id-1]
}

// Node returns the node with the given ID, or nil. The pointer is valid
// until the next insert.
func (g *Graph) Node(id int64) *Node { return g.node(id) }

// Edge returns the edge with the given ID, or nil. The pointer is valid
// until the next insert.
func (g *Graph) Edge(id int64) *Edge { return g.edgeByID(id) }

// NumNodes and NumEdges report store sizes.
func (g *Graph) NumNodes() int { return len(g.nodes) }
func (g *Graph) NumEdges() int { return len(g.edges) }

// NodesByLabel returns the IDs of all nodes with the label.
func (g *Graph) NodesByLabel(label string) []int64 { return g.byLabel[label] }

// sortedLabelIDs returns the ascending node IDs of the label for sorted
// intersection: the label must resolve to exactly one stored label under
// the case-insensitive match bindNode applies (EqualFold). Ambiguity
// returns ok=false and the caller falls back to per-candidate bindNode
// checks — never a semantic change, only a lost shortcut.
func (g *Graph) sortedLabelIDs(label string) ([]int64, bool) {
	found, ok := g.resolveLabelLocked(label)
	if !ok {
		return nil, false
	}
	return g.byLabel[found], true
}

// resolveLabelLocked maps a query label to the unique stored label it
// case-insensitively matches, or ok=false on ambiguity. Callers must hold
// g.mu (any mode) or be the writer.
func (g *Graph) resolveLabelLocked(label string) (string, bool) {
	found, n := label, 0
	if _, ok := g.byLabel[label]; ok {
		n = 1
	}
	for stored := range g.byLabel {
		if stored != label && strings.EqualFold(stored, label) {
			found = stored
			n++
		}
	}
	return found, n == 1
}

// intersectSortedIDs writes into dst (reset to length 0) the values
// present in both sorted unique ID lists, iterating the smaller list and
// galloping through the larger: exponential probing from the last match
// position, then a binary search inside the bracketed window. For the
// skewed sizes anchor enumeration sees — a scheduler binding set of a few
// dozen IDs against a label list of many thousands — this costs
// O(small · log(gap)) instead of O(small + large).
func intersectSortedIDs(a, b, dst []int64) []int64 {
	if len(a) > len(b) {
		a, b = b, a
	}
	dst = dst[:0]
	lo := 0
	for _, v := range a {
		// Gallop: bracket the window [lo, lo+step] containing v, then
		// binary search for the first element >= v inside it.
		step := 1
		for lo+step < len(b) && b[lo+step] < v {
			step <<= 1
		}
		hi := lo + step
		if hi > len(b) {
			hi = len(b)
		}
		lo += relational.LowerBoundInt64(b[lo:hi], v)
		if lo >= len(b) {
			break
		}
		if b[lo] == v {
			dst = append(dst, v)
			lo++
		}
	}
	return dst
}

// AllNodeIDs returns every node ID in ascending order.
func (g *Graph) AllNodeIDs() []int64 { return denseIDs(len(g.nodes)) }

// denseIDs returns the node IDs 1..n.
func denseIDs(n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i) + 1
	}
	return out
}

// Out and In return the outgoing/incoming edge IDs of a node, ordered by
// the edges' start_time.
func (g *Graph) Out(id int64) []int64 { return g.edgeIDs(g.outOffsets(id)) }
func (g *Graph) In(id int64) []int64  { return g.edgeIDs(g.inOffsets(id)) }

func (g *Graph) edgeIDs(offsets []int32) []int64 {
	ids := make([]int64, len(offsets))
	for i, o := range offsets {
		ids[i] = int64(o) + 1
	}
	return ids
}

// outOffsets and inOffsets return adjacency as edge arena offsets.
func (g *Graph) outOffsets(id int64) []int32 {
	i, ok := g.offsetOf(id)
	if !ok {
		return nil
	}
	return g.out[i]
}

func (g *Graph) inOffsets(id int64) []int32 {
	i, ok := g.offsetOf(id)
	if !ok {
		return nil
	}
	return g.in[i]
}

// windowSlice narrows a time-sorted adjacency list to the edges whose
// start_time lies in [lo, hi], via binary search on both bounds.
func (g *Graph) windowSlice(adj []int32, lo, hi int64) []int32 {
	return windowSliceIn(g.edges, adj, lo, hi)
}

// windowSliceIn is windowSlice against an explicit edge arena (a view's
// captured arena, or the live one).
func windowSliceIn(edges []Edge, adj []int32, lo, hi int64) []int32 {
	start := sort.Search(len(adj), func(i int) bool {
		return edges[adj[i]].startTime >= lo
	})
	end := sort.Search(len(adj), func(i int) bool {
		return edges[adj[i]].startTime > hi
	})
	if start >= end {
		return nil
	}
	return adj[start:end]
}
