// Package synth implements ThreatRaptor's TBQL query synthesis
// (Section III-E): it turns a threat behavior graph into a runnable TBQL
// query through pre-synthesis screening, IOC relation mapping, TBQL
// pattern synthesis, pattern relationship synthesis, and return clause
// synthesis.
package synth

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"threatraptor/internal/extract"
	"threatraptor/internal/ioc"
	"threatraptor/internal/relational"
	"threatraptor/internal/tbql"
)

// Mode selects the pattern syntax of the synthesized query.
type Mode uint8

// Synthesis modes. ModeEventPatterns is the default plan the paper's
// Figure 2 shows; ModeLength1Paths emits the semantically equivalent
// length-1 event path patterns (executed on the graph backend; query type
// (c) in RQ4); ModeVarLenPaths emits variable-length paths for bridging
// the semantic gap when intermediate processes are omitted in the text.
const (
	ModeEventPatterns Mode = iota
	ModeLength1Paths
	ModeVarLenPaths
)

// Options configures synthesis. Window and ReturnAttrs form the
// user-defined synthesis plan of the paper's Section III-E: they overwrite
// the default plan with attributes that the query subsystem supports but
// the threat behavior graph does not capture (e.g. a time window, extra
// return attributes).
type Options struct {
	Mode Mode
	// MaxPathLen bounds variable-length paths (ModeVarLenPaths);
	// 0 means unbounded.
	MaxPathLen int
	// Window, when set, becomes the synthesized query's global time
	// window.
	Window *tbql.Window
	// ReturnAttrs lists additional attributes to return per entity type,
	// beyond the default attribute (e.g. proc -> ["pid", "user"]).
	ReturnAttrs map[tbql.EntityType][]string
}

// Report records what pre-synthesis screening dropped.
type Report struct {
	DroppedNodes []string // IOC texts whose type is not captured by auditing
	DroppedEdges []string // edges whose relation maps to no operation
}

// capturedTypes are the IOC types observable by the system auditing
// component; nodes of other types (registry entries, URLs, hashes, CVEs)
// are screened out (Step 1).
var capturedTypes = map[ioc.Type]bool{
	ioc.TypeFilepathLinux: true,
	ioc.TypeFilepathWin:   true,
	ioc.TypeFilename:      true,
	ioc.TypePackage:       true,
	ioc.TypeIPv4:          true,
	ioc.TypeCIDR:          true,
}

// Synthesize builds a TBQL query from a threat behavior graph using the
// default synthesis plan. It fails only when screening leaves no edges.
func Synthesize(g *extract.Graph, opts Options) (*tbql.Query, *Report, error) {
	rep := &Report{}
	for _, n := range g.Nodes {
		if !capturedTypes[n.Type] {
			rep.DroppedNodes = append(rep.DroppedNodes, n.Text)
		}
	}
	kept := func(id int) bool { // the node survives screening
		n := g.Node(id)
		return n != nil && capturedTypes[n.Type]
	}

	s := &synthesizer{g: g, opts: opts, entityOf: make(map[roleKey]string, len(g.Nodes))}
	q := &tbql.Query{Patterns: make([]*tbql.Pattern, 0, len(g.Edges))}
	offsets := make([]int, 0, len(g.Edges)) // source verb occurrence per synthesized pattern
	for _, e := range g.Edges {
		if !kept(e.From) || !kept(e.To) {
			continue
		}
		patt, ok := s.synthesizePattern(e)
		if !ok {
			from, to := g.Node(e.From), g.Node(e.To)
			rep.DroppedEdges = append(rep.DroppedEdges,
				fmt.Sprintf("%s -%s-> %s", from.Text, e.Verb, to.Text))
			continue
		}
		q.Patterns = append(q.Patterns, patt)
		offsets = append(offsets, e.Offset)
	}
	if len(q.Patterns) == 0 {
		return nil, rep, fmt.Errorf("synth: no synthesizable patterns in the threat behavior graph")
	}

	// Step 3: temporal relationships follow the ascending sequence numbers
	// (event patterns only; path patterns carry no temporal relations).
	// Edges extracted from the same relation verb occurrence describe one
	// attack step ("downloaded X from Y" yields both a file write and a
	// network receive); no order is imposed within a step, since the
	// underlying system events interleave.
	if opts.Mode != ModeVarLenPaths {
		q.Relations = make([]tbql.Relation, 0, len(q.Patterns)-1)
		groupStart := 0
		for i := 1; i < len(q.Patterns); i++ {
			if offsets[i] != offsets[groupStart] {
				q.Relations = append(q.Relations, tbql.Relation{
					Kind: tbql.RelBefore,
					A:    q.Patterns[groupStart].ID,
					B:    q.Patterns[i].ID,
				})
				groupStart = i
			}
		}
	}

	// Step 4: return all entity IDs in first-use order (default attributes
	// are inferred at execution — TBQL sugar), plus any user-plan extras.
	q.Return.Distinct = true
	q.Return.Items = make([]tbql.Attr, 0, s.nProc+s.nFile+s.nIP)
	for _, p := range q.Patterns {
		for _, side := range [2]tbql.Entity{p.Subject, p.Object} {
			if slices.ContainsFunc(q.Return.Items, func(it tbql.Attr) bool { return it.EntityID == side.ID }) {
				continue
			}
			q.Return.Items = append(q.Return.Items, tbql.Attr{EntityID: side.ID})
			for _, attr := range opts.ReturnAttrs[side.Type] {
				q.Return.Items = append(q.Return.Items, tbql.Attr{EntityID: side.ID, Attr: attr})
			}
		}
	}
	q.GlobalWindow = opts.Window
	return q, rep, nil
}

type roleKey struct {
	node int
	typ  tbql.EntityType
}

type synthesizer struct {
	g        *extract.Graph
	opts     Options
	entityOf map[roleKey]string
	nProc    int
	nFile    int
	nIP      int
	nPatt    int
}

// entity returns (creating on first use) the TBQL entity for a node in a
// given role. The first use carries the attribute filter; later uses rely
// on the entity-ID-reuse sugar. Network connection entities are never
// reused: TBQL entity identity is the 5-tuple, and separate attack steps
// reaching the same address use separate connections, so each edge gets a
// fresh ip entity carrying the same dstip filter.
func (s *synthesizer) entity(nodeID int, typ tbql.EntityType) tbql.Entity {
	key := roleKey{nodeID, typ}
	if id, ok := s.entityOf[key]; ok && typ != tbql.EntIP {
		return tbql.Entity{Type: typ, ID: id}
	}
	var id string
	switch typ {
	case tbql.EntProc:
		s.nProc++
		id = "p" + strconv.Itoa(s.nProc)
	case tbql.EntFile:
		s.nFile++
		id = "f" + strconv.Itoa(s.nFile)
	case tbql.EntIP:
		s.nIP++
		id = "i" + strconv.Itoa(s.nIP)
	}
	s.entityOf[key] = id
	node := s.g.Node(nodeID)
	return tbql.Entity{Type: typ, ID: id, Filter: attrFilter(node, typ)}
}

// attrFilter synthesizes the bare-value attribute filter (Step 2): file
// and process names are wrapped in wildcards; IPs match exactly. The
// literal owns its bytes: a node's text is a substring of the report, which
// a compiled-query cache holding the query would otherwise keep alive.
func attrFilter(node *extract.Node, typ tbql.EntityType) relational.Expr {
	text := node.Text
	if typ == tbql.EntIP {
		return bareValue(strings.Clone(cidrToPattern(text)))
	}
	return bareValue("%" + text + "%")
}

// bareValue builds the parser's representation of the bare-value sugar.
func bareValue(v string) relational.Expr {
	lit := relational.Lit{V: relational.Str(v)}
	if strings.ContainsAny(v, "%_") {
		return relational.BinOp{Op: "like", L: relational.ColRef{}, R: lit}
	}
	return relational.BinOp{Op: "=", L: relational.ColRef{}, R: lit}
}

// cidrToPattern renders an IP or CIDR as a match pattern: /32 (or no
// mask) is exact; octet-aligned masks become prefix wildcards.
func cidrToPattern(text string) string {
	slash := strings.IndexByte(text, '/')
	if slash < 0 {
		return text
	}
	host := text[:slash]
	switch text[slash+1:] {
	case "32":
		return host
	case "24", "16", "8":
		keep := map[string]int{"24": 3, "16": 2, "8": 1}[text[slash+1:]]
		parts := strings.Split(host, ".")
		return strings.Join(parts[:keep], ".") + ".%"
	default:
		return host // approximate non-octet masks by the host address
	}
}

// synthesizePattern maps one threat behavior edge to a TBQL pattern.
func (s *synthesizer) synthesizePattern(e *extract.Edge) (*tbql.Pattern, bool) {
	to := s.g.Node(e.To)
	objType := objectType(to, e.Verb)
	op, ok := mapRelation(e.Verb, objType)
	if !ok {
		return nil, false
	}
	subj := s.entity(e.From, tbql.EntProc)
	obj := s.entity(e.To, objType)
	s.nPatt++
	patt := &tbql.Pattern{
		Subject: subj,
		Object:  obj,
		ID:      "evt" + strconv.Itoa(s.nPatt),
		Op:      &tbql.OpExpr{Op: op},
	}
	switch s.opts.Mode {
	case ModeLength1Paths:
		patt.Path = &tbql.PathSpec{MinLen: 1, MaxLen: 1}
	case ModeVarLenPaths:
		max := s.opts.MaxPathLen
		if max == 0 {
			max = -1
		}
		patt.Path = &tbql.PathSpec{MinLen: 1, MaxLen: max}
	}
	return patt, true
}

// objectType decides the object entity type (Step 2): IP IOCs become
// network connections; process-creation verbs make the object a process;
// everything else is a file. The default plan prefers the file
// interpretation for execute-like verbs (the paper discusses this
// ambiguity in RQ2: "run" could be execute-file or start-process).
func objectType(node *extract.Node, verb string) tbql.EntityType {
	if node.Type == ioc.TypeIPv4 || node.Type == ioc.TypeCIDR {
		return tbql.EntIP
	}
	switch verb {
	case "start", "spawn", "launch":
		return tbql.EntProc
	}
	return tbql.EntFile
}

// relationMap maps (verb, object type) to the TBQL operation, encoding the
// paper's rule examples: "download" between two Filepath IOCs is a write
// (the process writes the file); "download" toward an IP is a receive
// (the process reads from the network).
var relationMap = map[tbql.EntityType]map[string]string{
	tbql.EntFile: {
		"read": "read", "open": "read", "access": "read", "scan": "read",
		"load": "read", "steal": "read", "crack": "read",
		"write": "write", "download": "write", "save": "write",
		"store": "write", "create": "write", "drop": "write",
		"copy": "write", "compress": "write", "encrypt": "write",
		"decrypt": "write", "extract": "write", "dump": "write",
		"gather": "write", "modify": "write", "inject": "write",
		"delete": "write", "upload": "read",
		"execute": "execute", "run": "execute", "launch": "execute",
		"rename": "rename",
	},
	tbql.EntProc: {
		"start": "start", "spawn": "start", "launch": "start",
		"execute": "start", "run": "start", "create": "start",
		"end": "end", "kill": "end",
	},
	tbql.EntIP: {
		"connect": "connect", "communicate": "connect", "visit": "connect",
		"request": "connect", "resolve": "connect",
		"send": "send", "upload": "send", "leak": "send",
		"transfer": "send", "exfiltrate": "send", "write": "send",
		"download": "receive", "receive": "receive", "read": "receive",
		"fetch": "receive", "get": "receive",
	},
}

// mapRelation returns the TBQL operation for an IOC relation verb and
// object type; ok=false drops the edge (screening, Step 1 tail).
func mapRelation(verb string, objType tbql.EntityType) (string, bool) {
	op, ok := relationMap[objType][verb]
	return op, ok
}
