package graphdb

import "threatraptor/internal/relational"

// Cypher-subset abstract syntax tree.

// Query is a parsed MATCH ... WHERE ... RETURN statement.
type Query struct {
	Patterns []Pattern // comma-separated path patterns of all MATCH clauses
	Where    relational.Expr
	// Distinct deduplicates the returned rows. It also lets an unfloored
	// variable-length hop with Min ≤ 1 expand by bounded BFS, one offer
	// per reachable node, instead of enumerating every edge-unique trail:
	// the row set is the same, only the pre-dedup multiplicity and the
	// row order (first discovery) differ. Without it each trail yields
	// its own row.
	Distinct bool
	Return   []ReturnItem
	// ClauseAtATime selects the Neo4j-style execution model for
	// multi-pattern queries: every pattern clause is materialized
	// independently (label scan plus expansion, with only its own WHERE
	// conjuncts), and the clause results are hash-joined on shared
	// variables afterwards. This is how production graph databases
	// frequently plan multi-MATCH statements, and it is the behaviour the
	// ThreatRaptor paper's monolithic-Cypher comparison exercises. The
	// default (false) pipelines bindings across clauses.
	ClauseAtATime bool
}

// ReturnItem is one projected property reference ("var.prop") with an
// optional alias.
type ReturnItem struct {
	Var  string
	Prop string
	As   string
}

// Pattern is a linear path: node, (rel, node)*.
type Pattern struct {
	Nodes []NodePat
	Rels  []RelPat // len(Rels) == len(Nodes)-1
}

// NodePat is "(var:Label {prop: value, ...})"; all parts optional.
type NodePat struct {
	Var   string
	Label string
	Props Props // inline equality constraints
}

// Direction of a relationship pattern.
type Direction uint8

// Relationship directions.
const (
	DirOut  Direction = iota // -[...]->
	DirIn                    // <-[...]-
	DirBoth                  // -[...]-
)

// RelPat is "-[var:TYPE*min..max]->". A nil VarLen means exactly one hop.
type RelPat struct {
	Var   string
	Types []string // empty = any type
	Dir   Direction
	// Variable-length bounds; Min=Max=1 for plain single-hop patterns.
	Min int
	Max int // -1 = unbounded
}

// IsVarLen reports whether the pattern spans other than exactly one hop.
func (r RelPat) IsVarLen() bool { return r.Min != 1 || r.Max != 1 }
