// Package fuzzy implements ThreatRaptor's fuzzy search mode based on
// inexact graph pattern matching, extending Poirot (Milajerdi et al., CCS
// 2019). A TBQL query defines a query graph of entities and event
// patterns; node-level alignment matches IOC strings to stored entity
// attributes by Levenshtein similarity, and graph-level alignment matches
// the query subgraph against the system provenance graph, scoring
// candidate alignments by attacker influence (the number of compromised
// ancestor processes along connecting flows). That graph is the store's
// own: a pinned engine.Snapshot's entities and event edges.
//
// Two search modes are provided: ModeFirstAcceptable reproduces Poirot
// (stop at the first alignment whose score passes the threshold), and
// ModeExhaustive is ThreatRaptor-Fuzzy (search all candidate alignments).
package fuzzy

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"threatraptor/internal/audit"
	"threatraptor/internal/engine"
	"threatraptor/internal/graphdb"
	"threatraptor/internal/relational"
	"threatraptor/internal/tbql"
)

// Mode selects the search strategy.
type Mode uint8

// Search modes.
const (
	ModeExhaustive      Mode = iota // ThreatRaptor-Fuzzy
	ModeFirstAcceptable             // Poirot
)

// The evaluation configuration of the alignment search.
const (
	// NodeSimilarity is the minimum Levenshtein similarity for node-level
	// alignment. Exact containment always matches.
	NodeSimilarity = 0.6
	// MaxPathLen bounds flow paths (in events) that substitute for a
	// single query edge.
	MaxPathLen = 4
	// ScoreThreshold is the minimum graph alignment score Γ to accept.
	ScoreThreshold = 0.7
)

// QueryNode is one entity of the query graph with its string constraint.
type QueryNode struct {
	ID      string
	Kind    audit.EntityKind
	Pattern string // constraint with wildcards stripped; "" = any
}

// QueryEdge is one event pattern between query nodes.
type QueryEdge struct {
	From, To int // indexes into Nodes
	Ops      map[string]bool
}

// QueryGraph is the subgraph of system events a TBQL query specifies.
type QueryGraph struct {
	Nodes []QueryNode
	Edges []QueryEdge
}

// FromTBQL converts an analyzed TBQL query into a query graph. Attribute
// filters contribute their string constants as node constraints.
func FromTBQL(a *tbql.Analyzed) (*QueryGraph, error) {
	qg := &QueryGraph{}
	index := make(map[string]int)
	for _, id := range a.EntityOrder {
		decl := a.Entities[id]
		index[id] = len(qg.Nodes)
		qg.Nodes = append(qg.Nodes, QueryNode{
			ID:      id,
			Kind:    decl.Type.Kind(),
			Pattern: constraintString(decl),
		})
	}
	for _, p := range a.Query.Patterns {
		var ops map[string]bool
		if p.Op != nil {
			ops = p.Op.Ops()
		}
		qg.Edges = append(qg.Edges, QueryEdge{
			From: index[p.Subject.ID],
			To:   index[p.Object.ID],
			Ops:  ops,
		})
	}
	if len(qg.Nodes) == 0 {
		return nil, fmt.Errorf("fuzzy: empty query graph")
	}
	return qg, nil
}

// constraintString extracts the first string literal of the entity filter
// with LIKE wildcards stripped.
func constraintString(decl *tbql.EntityDecl) string {
	if decl.Filter == nil {
		return ""
	}
	return strings.Trim(firstStringLit(decl.Filter), "%_")
}

func firstStringLit(e relational.Expr) string {
	switch v := e.(type) {
	case relational.Lit:
		if v.V.K == relational.KindString {
			return v.V.S
		}
	case relational.BinOp:
		if s := firstStringLit(v.L); s != "" {
			return s
		}
		return firstStringLit(v.R)
	case relational.UnOp:
		return firstStringLit(v.E)
	case relational.InList:
		if s := firstStringLit(v.E); s != "" {
			return s
		}
		for _, x := range v.Vals {
			if s := firstStringLit(x); s != "" {
				return s
			}
		}
	}
	return ""
}

// Alignment is one graph alignment: query node index -> entity ID (0 when
// unaligned), with its Γ score.
type Alignment struct {
	NodeMap []int64
	Score   float64
	// Events lists the audit event IDs covered by the aligned flows.
	Events []int64
}

// Searcher runs alignment search over one pinned store snapshot.
type Searcher struct {
	Snap *engine.Snapshot
	QG   *QueryGraph
	Mode Mode
	// Candidates[i] lists entity IDs aligned to query node i.
	Candidates [][]int64
	// Iterations counts seed alignments explored (profiling, Table IX
	// discussion).
	Iterations int
}

// NewSearcher computes node-level alignment (candidate sets) eagerly.
func NewSearcher(snap *engine.Snapshot, qg *QueryGraph, mode Mode) *Searcher {
	s := &Searcher{Snap: snap, QG: qg, Mode: mode}
	s.Candidates = make([][]int64, len(qg.Nodes))
	for i, qn := range qg.Nodes {
		s.Candidates[i] = s.nodeCandidates(qn)
	}
	return s
}

// nodeCandidates performs node-level alignment for one query node.
func (s *Searcher) nodeCandidates(qn QueryNode) []int64 {
	var out []int64
	for _, e := range s.Snap.Entities {
		if qn.Kind != audit.EntityInvalid && e.Kind != qn.Kind {
			continue
		}
		if qn.Pattern == "" {
			out = append(out, e.ID)
			continue
		}
		attr, _ := e.Attr(audit.DefaultAttr(e.Kind))
		if Similarity(attr, qn.Pattern) >= NodeSimilarity {
			out = append(out, e.ID)
		}
	}
	return out
}

// Name returns an entity's default security-analysis attribute (file
// name, process exename, destination IP), or "" for an ID the snapshot
// does not hold.
func (s *Searcher) Name(id int64) string {
	if id < 1 || id > int64(len(s.Snap.Entities)) {
		return ""
	}
	e := s.Snap.Entities[id-1]
	v, _ := e.Attr(audit.DefaultAttr(e.Kind))
	return v
}

// Search runs the graph alignment. In exhaustive mode it returns every
// accepted alignment; in first-acceptable mode at most one. The search
// checks ctx once per seed candidate and once per flow-BFS level, and
// returns ctx.Err() with no alignments once it is cancelled; a nil ctx is
// never cancelled.
func (s *Searcher) Search(ctx context.Context) ([]Alignment, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	seed := s.componentSeed(make([]bool, len(s.QG.Nodes)))
	if seed < 0 {
		return nil, nil
	}
	var out []Alignment
	for _, cand := range s.Candidates[seed] {
		s.Iterations++
		al := s.expand(ctx, seed, cand)
		// A flow BFS cut short by cancellation leaves al partial.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if al.Score >= ScoreThreshold {
			out = append(out, al)
			if s.Mode == ModeFirstAcceptable {
				return out, nil
			}
		}
	}
	return out, nil
}

// expand grows an alignment from a seed assignment by BFS over the query
// graph, greedily picking for each query edge the reachable candidate with
// the highest influence score. Query graphs can be disconnected (distinct
// attack stages whose IOCs never co-occur in a sentence); each remaining
// component is expanded from its own local seed.
func (s *Searcher) expand(ctx context.Context, seed int, seedEntity int64) Alignment {
	n := len(s.QG.Nodes)
	al := Alignment{NodeMap: make([]int64, n)}
	al.NodeMap[seed] = seedEntity

	visited := make([]bool, n)
	var total float64
	eventSet := make(map[int64]bool)

	total += s.expandComponent(ctx, seed, &al, visited, eventSet)
	for {
		next := s.componentSeed(visited)
		if next < 0 {
			break
		}
		// Align the local seed to its best candidate by trying each and
		// keeping the highest-scoring sub-expansion.
		bestScore := -1.0
		var bestAl Alignment
		var bestVisited []bool
		bestEvents := map[int64]bool{}
		for _, cand := range s.Candidates[next] {
			trial := Alignment{NodeMap: append([]int64(nil), al.NodeMap...)}
			trial.NodeMap[next] = cand
			tv := append([]bool(nil), visited...)
			te := map[int64]bool{}
			sc := s.expandComponent(ctx, next, &trial, tv, te)
			if sc > bestScore {
				bestScore, bestAl, bestVisited, bestEvents = sc, trial, tv, te
			}
		}
		if bestScore < 0 {
			// No candidates: mark the component visited and move on.
			s.markComponent(next, visited)
			continue
		}
		al.NodeMap = bestAl.NodeMap
		visited = bestVisited
		total += bestScore
		for ev := range bestEvents {
			eventSet[ev] = true
		}
	}

	if len(s.QG.Edges) > 0 {
		al.Score = total / float64(len(s.QG.Edges))
	} else if len(s.QG.Nodes) > 0 {
		al.Score = 1
	}
	for ev := range eventSet {
		al.Events = append(al.Events, ev)
	}
	sort.Slice(al.Events, func(a, b int) bool { return al.Events[a] < al.Events[b] })
	return al
}

// expandComponent walks the query-graph component containing start (whose
// node must already be aligned in al) and returns the sum of edge scores.
func (s *Searcher) expandComponent(ctx context.Context, start int, al *Alignment, visited []bool, eventSet map[int64]bool) float64 {
	type qedge struct {
		idx     int
		fromIdx int
		toIdx   int
		forward bool
	}
	visited[start] = true
	queue := []int{start}
	var order []qedge
	edgeSeen := make([]bool, len(s.QG.Edges))
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for ei, e := range s.QG.Edges {
			if edgeSeen[ei] {
				continue
			}
			switch u {
			case e.From:
				edgeSeen[ei] = true
				order = append(order, qedge{ei, e.From, e.To, true})
				if !visited[e.To] {
					visited[e.To] = true
					queue = append(queue, e.To)
				}
			case e.To:
				edgeSeen[ei] = true
				order = append(order, qedge{ei, e.To, e.From, false})
				if !visited[e.From] {
					visited[e.From] = true
					queue = append(queue, e.From)
				}
			}
		}
	}

	var total float64
	for _, qe := range order {
		// Network connection nodes are not pinned on either side: the same
		// query IP node legitimately aligns to multiple 5-tuple connection
		// entities (Poirot's k:1 node alignment).
		fromEnts := []int64{al.NodeMap[qe.fromIdx]}
		if s.QG.Nodes[qe.fromIdx].Kind == audit.EntityNetConn {
			fromEnts = s.Candidates[qe.fromIdx]
		}
		fixed := al.NodeMap[qe.toIdx]
		if s.QG.Nodes[qe.toIdx].Kind == audit.EntityNetConn {
			fixed = 0
		}
		edge := s.QG.Edges[qe.idx]
		var bestScore, bestSim float64
		var bestEnt int64
		var bestEvs []int64
		for _, fromEnt := range fromEnts {
			if fromEnt == 0 {
				continue // upstream alignment failed
			}
			score, ent, evs, sim := s.bestFlow(ctx, fromEnt, qe.toIdx, edge, qe.forward, fixed)
			if score > bestScore || (score == bestScore && sim > bestSim) {
				bestScore, bestSim, bestEnt, bestEvs = score, sim, ent, evs
			}
		}
		if bestEnt != 0 && al.NodeMap[qe.toIdx] == 0 {
			al.NodeMap[qe.toIdx] = bestEnt
		}
		total += bestScore
		for _, ev := range bestEvs {
			eventSet[ev] = true
		}
	}
	return total
}

// componentSeed returns an unvisited query node with the fewest nonzero
// candidates (any unvisited node when none has candidates), or -1 when
// every node is visited. With nothing visited it picks the search's seed.
func (s *Searcher) componentSeed(visited []bool) int {
	best, bestN := -1, 0
	for i, c := range s.Candidates {
		if visited[i] || len(c) == 0 {
			continue
		}
		if best < 0 || len(c) < bestN {
			best, bestN = i, len(c)
		}
	}
	if best >= 0 {
		return best
	}
	for i := range s.Candidates {
		if !visited[i] {
			return i
		}
	}
	return -1
}

// markComponent marks start's whole component visited (used when it has no
// candidates at all).
func (s *Searcher) markComponent(start int, visited []bool) {
	visited[start] = true
	queue := []int{start}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, e := range s.QG.Edges {
			for _, pair := range [2][2]int{{e.From, e.To}, {e.To, e.From}} {
				if pair[0] == u && !visited[pair[1]] {
					visited[pair[1]] = true
					queue = append(queue, pair[1])
				}
			}
		}
	}
}

// bestFlow finds the best-scoring flow realizing one query edge from one
// source entity toward a candidate of the target query node. A direct
// event with a matching operation scores 1; otherwise a flow path of up to
// MaxPathLen events scores 1/(distinct processes on the path). fixed pins
// the target entity when it is already aligned. The returned sim is the
// matched target's name similarity (2 for an exact match), used by the
// caller to choose among alternative source entities. A cancelled ctx
// stops the flow BFS at its next level with no flow found.
func (s *Searcher) bestFlow(ctx context.Context, from int64, toIdx int, edge QueryEdge, forward bool, fixed int64) (float64, int64, []int64, float64) {
	targets := make(map[int64]bool)
	if fixed != 0 {
		targets[fixed] = true
	} else {
		for _, c := range s.Candidates[toIdx] {
			targets[c] = true
		}
	}
	if len(targets) == 0 {
		return 0, 0, nil, 0
	}

	// Direct hit first: among all direct events with a matching operation,
	// prefer the target whose name best matches the query node's pattern
	// (an exact name match beats containment, so a fork artifact sharing
	// the parent's image does not shadow the real child process).
	pattern := s.QG.Nodes[toIdx].Pattern
	var directEnt, directEv int64
	directSim := -1.0
	s.Snap.Graph.VisitEventEdges(from, math.MaxInt64, func(ref graphdb.EventEdgeRef) bool {
		if ref.Out != forward {
			// Outgoing edges come first, so a forward lookup is done at
			// the first incoming edge; a backward one skips the outgoing.
			return !forward
		}
		if !targets[ref.Other] || (edge.Ops != nil && !edge.Ops[ref.Op]) {
			return true
		}
		if sim := s.nameSim(ref.Other, pattern); sim > directSim {
			directSim, directEnt, directEv = sim, ref.Other, ref.EventID
		}
		return true
	})
	if directEnt != 0 {
		return 1, directEnt, []int64{directEv}, directSim
	}

	// BFS for a flow path within MaxPathLen events, tracking the events
	// and the number of distinct processes traversed (attacker influence).
	// Candidate targets are ranked first by how well their name matches
	// the query node's pattern, then by influence score, so a nearby
	// vaguely-matching node never shadows the exactly-named one further
	// down the flow.
	type state struct {
		ent    int64
		events []int64
		procs  int
	}
	bestScore, bestSim, bestEnt := 0.0, -1.0, int64(0)
	var bestEvents []int64
	seen := map[int64]bool{from: true}
	level := []state{{ent: from}}
	for depth := 0; depth < MaxPathLen && len(level) > 0; depth++ {
		if ctx.Err() != nil {
			return 0, 0, nil, 0
		}
		var next []state
		for _, st := range level {
			s.Snap.Graph.VisitEventEdges(st.ent, math.MaxInt64, func(ref graphdb.EventEdgeRef) bool {
				if seen[ref.Other] {
					return true
				}
				seen[ref.Other] = true
				n := state{
					ent:    ref.Other,
					events: append(append([]int64(nil), st.events...), ref.EventID),
					procs:  st.procs,
				}
				if s.Snap.Entities[ref.Other-1].Kind == audit.EntityProcess {
					n.procs++
				}
				if targets[ref.Other] {
					denom := n.procs
					if denom < 1 {
						denom = 1
					}
					score := 1 / float64(denom+1)
					sim := s.nameSim(ref.Other, pattern)
					if sim > bestSim || (sim == bestSim && score > bestScore) {
						bestSim, bestScore, bestEnt, bestEvents = sim, score, ref.Other, n.events
					}
				}
				next = append(next, n)
				return true
			})
		}
		level = next
	}
	return bestScore, bestEnt, bestEvents, bestSim
}

// nameSim ranks a target entity by how well its name matches the query
// node's pattern: 2 for an exact match, Similarity otherwise, and 1 when
// the node has no pattern.
func (s *Searcher) nameSim(id int64, pattern string) float64 {
	if pattern == "" {
		return 1
	}
	name := s.Name(id)
	if strings.EqualFold(name, pattern) {
		return 2
	}
	return Similarity(name, pattern)
}

// Similarity is the node-level alignment metric: 1 for containment
// (either direction), otherwise a normalized Levenshtein similarity over
// the path basenames. Comparing basenames keeps long shared directory
// prefixes ("/usr/bin/...") from making every system binary look alike.
func Similarity(attr, pattern string) float64 {
	a, p := strings.ToLower(attr), strings.ToLower(pattern)
	if a == "" || p == "" {
		return 0
	}
	if strings.Contains(a, p) || strings.Contains(p, a) {
		return 1
	}
	// Basename similarity gates the match; full-path similarity can then
	// lift it (a typo inside the basename still leaves the directory part
	// nearly identical). Averaging keeps long shared directory prefixes
	// ("/usr/bin/...") from making every system binary look alike.
	base := levSim(baseName(a), baseName(p))
	full := levSim(a, p)
	return (base + full) / 2
}

func levSim(a, b string) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	d := Levenshtein(a, b)
	max := len(a)
	if len(b) > max {
		max = len(b)
	}
	return 1 - float64(d)/float64(max)
}

func baseName(s string) string {
	if i := strings.LastIndexAny(s, "/\\"); i >= 0 && i+1 < len(s) {
		return s[i+1:]
	}
	return s
}

// Levenshtein computes the edit distance between two strings.
func Levenshtein(a, b string) int {
	if len(a) == 0 {
		return len(b)
	}
	if len(b) == 0 {
		return len(a)
	}
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			m := prev[j] + 1
			if cur[j-1]+1 < m {
				m = cur[j-1] + 1
			}
			if prev[j-1]+cost < m {
				m = prev[j-1] + cost
			}
			cur[j] = m
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}
