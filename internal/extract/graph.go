// Package extract implements ThreatRaptor's unsupervised threat behavior
// extraction pipeline (Algorithm 1 and Section III-C): OSCTI report
// parsing, IOC entity extraction, IOC relation extraction, and threat
// behavior graph construction.
package extract

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"threatraptor/internal/ioc"
)

// Node is one IOC entity in the threat behavior graph. Mentions of the
// same indicator across blocks are merged into a single node (Step 8 of
// Algorithm 1); Aliases keeps the distinct surface forms.
type Node struct {
	ID      int
	Text    string // canonical (longest) surface form
	Type    ioc.Type
	Aliases []string
}

// Edge is one IOC relation: a directed step from a subject IOC to an
// object IOC with a lemmatized relation verb. Seq is the step order
// (1-based), assigned by the occurrence offset of the relation verb in the
// OSCTI text — the sequential information Figure 2 highlights.
type Edge struct {
	From, To int // node IDs
	Verb     string
	Seq      int
	Offset   int // byte offset of the verb in the document
}

// Graph is the threat behavior graph: nodes are IOCs, edges are IOC
// relations ordered by sequence number.
type Graph struct {
	Nodes []*Node
	Edges []*Edge
}

// Node returns the node with the given ID, or nil.
func (g *Graph) Node(id int) *Node {
	for _, n := range g.Nodes {
		if n.ID == id {
			return n
		}
	}
	return nil
}

// String renders the graph as one "subj -verb(seq)-> obj" line per edge.
func (g *Graph) String() string {
	var b strings.Builder
	for _, e := range g.Edges {
		from, to := g.Node(e.From), g.Node(e.To)
		fmt.Fprintf(&b, "%s -%s(%d)-> %s\n", from.Text, e.Verb, e.Seq, to.Text)
	}
	return b.String()
}

// Triplet is one extracted ⟨subject IOC, relation verb, object IOC⟩, the
// unit scored in the paper's RQ1 relation evaluation.
type Triplet struct {
	Subj       ioc.IOC
	Verb       string // lemmatized
	Obj        ioc.IOC
	VerbOffset int // byte offset of the verb in the document
}

// Result bundles everything the pipeline produces for one document.
type Result struct {
	// IOCs are the recognized IOC entity mentions that survived alignment
	// with the dependency trees (used for entity P/R/F1).
	IOCs []ioc.IOC
	// Triplets are the extracted IOC relations (used for relation P/R/F1).
	Triplets []Triplet
	// Graph is the constructed threat behavior graph.
	Graph *Graph
	// ExtractTime and GraphTime split the pipeline's wall time between
	// text→entities&relations and graph construction (paper Table VII).
	ExtractTime time.Duration
	GraphTime   time.Duration
}

// buildGraph constructs the threat behavior graph from merged IOC nodes
// and extracted triplets (Step 10 of Algorithm 1).
func buildGraph(merged *mergeTable, triplets []Triplet) *Graph {
	g := &Graph{}
	byCanon := make([]*Node, len(merged.groups)) // group index -> node
	nodeFor := func(mention ioc.IOC) *Node {
		ci := merged.canonical(mention.Text)
		if n := byCanon[ci]; n != nil {
			return n
		}
		group := merged.groups[ci]
		n := &Node{
			ID:      len(g.Nodes) + 1,
			Text:    group.canonText,
			Type:    group.typ,
			Aliases: group.aliases(),
		}
		byCanon[ci] = n
		g.Nodes = append(g.Nodes, n)
		return n
	}

	sorted := slices.Clone(triplets)
	slices.SortStableFunc(sorted, func(a, b Triplet) int { return a.VerbOffset - b.VerbOffset })
	type edgeKey struct {
		from, to int
		verb     string
	}
	seen := make(map[edgeKey]bool)
	for _, t := range sorted {
		from := nodeFor(t.Subj)
		to := nodeFor(t.Obj)
		key := edgeKey{from.ID, to.ID, t.Verb}
		if seen[key] {
			continue
		}
		seen[key] = true
		g.Edges = append(g.Edges, &Edge{
			From:   from.ID,
			To:     to.ID,
			Verb:   t.Verb,
			Seq:    len(g.Edges) + 1,
			Offset: t.VerbOffset,
		})
	}
	return g
}
