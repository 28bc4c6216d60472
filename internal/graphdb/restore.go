package graphdb

// Segment restore: a graph is rebuilt from a durable columnar image by
// adopting arenas directly — node structs without property bags
// (properties resolve through a read-only callback into the restored
// entity slab), the edge arena from event columns, and adjacency as
// subslices of the dumped CSR arrays. Nothing here replays per-element
// inserts, which is what makes opening a segment-backed store cheap.

import "fmt"

// PropResolver resolves a property of a restored node by node ID. It
// must be pure and safe for concurrent use (it is called lock-free from
// live queries and published views alike); the graph installs it once
// at restore and never changes it.
type PropResolver func(id int64, key string) (Value, bool)

// nodeProp reads a node property: materialized bags win, and bag-less
// restored nodes (ID within the restored prefix) resolve through the
// installed resolver.
func (g *Graph) nodeProp(n *Node, key string) (Value, bool) {
	if n.Props != nil {
		v, ok := n.Props[key]
		return v, ok
	}
	if g.propFn != nil && n.ID >= 1 && n.ID <= int64(g.idxBase) {
		return g.propFn(n.ID, key)
	}
	return Value{}, false
}

// offsetOf resolves a node ID to its arena offset. Dense graphs (the
// engine's, restored or not) compute it; sparse graphs probe the index
// map, falling back to the restored dense prefix, which is never in the
// map.
func (g *Graph) offsetOf(id int64) (int32, bool) {
	if g.idsDense {
		if id < 1 || id > int64(len(g.nodes)) {
			return 0, false
		}
		return int32(id - 1), true
	}
	if i, ok := g.nodeIdx[id]; ok {
		return i, true
	}
	if id >= 1 && id <= int64(g.idxBase) {
		return int32(id - 1), true
	}
	return 0, false
}

// RestoreNodes installs the node arena for a restored graph: node i
// (ID i+1) gets labels[i] and a nil property bag resolved through
// propFn. The graph must be freshly created and empty.
func (g *Graph) RestoreNodes(labels []string, propFn PropResolver) error {
	if len(g.nodes) != 0 {
		return fmt.Errorf("graphdb: restore into non-empty graph")
	}
	n := len(labels)
	g.nodes = make([]Node, n)
	// Labels come from a tiny set (the engine restores three), so both
	// passes keep per-label state in a small slice — scanning it is a few
	// pointer compares (label strings are shared constants) — and touch
	// the byLabel map only once per distinct label at the end.
	type labelList struct {
		l   string
		c   int
		ids []int64
	}
	var perLabel []labelList
	last := 0
count:
	for _, l := range labels {
		if len(perLabel) > 0 && perLabel[last].l == l {
			perLabel[last].c++
			continue
		}
		for i := range perLabel {
			if perLabel[i].l == l {
				perLabel[i].c++
				last = i
				continue count
			}
		}
		last = len(perLabel)
		perLabel = append(perLabel, labelList{l: l, c: 1})
	}
	// The per-label ID lists are carved from one arena.
	arena := make([]int64, 0, n)
	for i := range perLabel {
		c := perLabel[i].c
		perLabel[i].ids = arena[len(arena) : len(arena) : len(arena)+c]
		arena = arena[:len(arena)+c]
	}
	for i, l := range labels {
		id := int64(i) + 1
		g.nodes[i] = Node{ID: id, Label: l}
		if perLabel[last].l != l {
			for j := range perLabel {
				if perLabel[j].l == l {
					last = j
					break
				}
			}
		}
		perLabel[last].ids = append(perLabel[last].ids, id)
	}
	for i := range perLabel {
		g.byLabel[perLabel[i].l] = perLabel[i].ids
	}
	g.out = make([][]int32, n)
	g.in = make([][]int32, n)
	g.nextNode = int64(n)
	g.idxBase = n
	g.propFn = propFn
	return nil
}

// RestoreEventEdges installs the edge arena from columnar event data:
// edge i (ID i+1) is the typed event edge for row i, exactly as
// AddEventEdge would have built it. Adjacency is installed separately
// by RestoreAdjacency.
func (g *Graph) RestoreEventEdges(evID, from, to, start, end, amount []int64, types []string) error {
	if len(g.edges) != 0 {
		return fmt.Errorf("graphdb: restore into non-empty edge arena")
	}
	n := len(evID)
	if len(from) != n || len(to) != n || len(start) != n || len(end) != n || len(amount) != n || len(types) != n {
		return fmt.Errorf("graphdb: restore edge columns disagree on length")
	}
	maxNode := int64(len(g.nodes))
	g.edges = make([]Edge, n)
	for i := 0; i < n; i++ {
		if from[i] < 1 || from[i] > maxNode || to[i] < 1 || to[i] > maxNode {
			return fmt.Errorf("graphdb: restored edge %d endpoints (%d -> %d) outside %d nodes", i, from[i], to[i], maxNode)
		}
		g.edges[i] = Edge{
			ID: int64(i) + 1, From: from[i], To: to[i], Type: types[i],
			startTime: start[i], endTime: end[i], amount: amount[i], evID: evID[i], typed: true,
		}
	}
	return nil
}

// RestoreAdjacency installs the adjacency lists from sparse CSR arrays
// of edge arena offsets: node offset outNodes[i] owns
// out[sum(outCounts[:i]) : +outCounts[i]], time-sorted, and nodes not
// listed have no outgoing edges (likewise for in). The lists alias the
// flat arrays with capacity == length, so a later append relocates the
// list privately and never writes into a neighbor's range.
func (g *Graph) RestoreAdjacency(outNodes, outCounts, out, inNodes, inCounts, in []int32) error {
	n := int32(len(g.nodes))
	nEdges := int32(len(g.edges))
	fill := func(dst [][]int32, nodes, counts, flat []int32) error {
		if len(nodes) != len(counts) {
			return fmt.Errorf("graphdb: adjacency lists %d nodes, %d counts", len(nodes), len(counts))
		}
		for _, ei := range flat {
			if ei < 0 || ei >= nEdges {
				return fmt.Errorf("graphdb: adjacency edge offset %d outside %d edges", ei, nEdges)
			}
		}
		pos := int32(0)
		for i, c := range counts {
			if c <= 0 || int64(pos)+int64(c) > int64(len(flat)) {
				return fmt.Errorf("graphdb: adjacency counts overrun flat list")
			}
			if nd := nodes[i]; nd < 0 || nd >= n {
				return fmt.Errorf("graphdb: adjacency node offset %d outside %d nodes", nd, n)
			}
			dst[nodes[i]] = flat[pos : pos+c : pos+c]
			pos += c
		}
		if int(pos) != len(flat) {
			return fmt.Errorf("graphdb: adjacency counts sum %d, flat list has %d", pos, len(flat))
		}
		return nil
	}
	if err := fill(g.out, outNodes, outCounts, out); err != nil {
		return err
	}
	return fill(g.in, inNodes, inCounts, in)
}

// RestorePropIndexLazy declares a property index on (label, prop)
// without building it: the first probe materializes it via CreateIndex.
// Restores use this because building the value maps is the single most
// expensive part of reopening a store, while most recoveries serve
// their first hunt well after startup.
func (g *Graph) RestorePropIndexLazy(label, prop string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.lazyProp == nil {
		g.lazyProp = make(map[string]map[string]bool)
	}
	m := g.lazyProp[label]
	if m == nil {
		m = make(map[string]bool)
		g.lazyProp[label] = m
	}
	m[prop] = true
}
