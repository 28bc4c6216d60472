// Package tactical is the detection layer above the query engine: it
// turns rule-tagged audit events (alerts) into ranked incidents, following
// the RapSheet tactical-provenance design (Hassan et al., Oakland 2020).
//
// Per sealed batch, a tactical round runs against the pinned store
// snapshot — never inside AppendBatch — in three steps:
//
//  1. Alert tagging. Every event of the delta is matched against the
//     compiled rule set (internal/rules); matches become Alerts carrying
//     the rule's tactic/technique label and severity.
//  2. IIP extraction. Each alert is attributed to an incident by bounded
//     backward reachability over the snapshot's time-sorted adjacency
//     (graphdb.View.VisitEventEdges): if the alert's subject is causally
//     reachable from an entity an earlier alert touched, the alert joins
//     that incident; otherwise its subject is a new initial infection
//     point (IIP) and opens a new incident. The entities on the
//     connecting paths form the incident's IIP subgraph.
//  3. TPG scoring. An incident's alerts form its tactical provenance
//     graph (TPG): vertices are alerts, edges are happens-before pairs
//     (u ends before v starts). The kill-chain score is the longest
//     happens-before-ordered alert subsequence whose MITRE tactic ranks
//     are non-decreasing, computed with an incremental DP; incidents rank
//     by chain length, then chain severity, then earliest alert.
//
// Everything is deterministic: the same log produces the same ranked
// incident list byte for byte (adjacency is time-sorted, ties break on
// IDs), which the golden tests pin.
package tactical

import (
	"encoding/json"
	"sort"
	"sync"

	"threatraptor/internal/audit"
	"threatraptor/internal/engine"
	"threatraptor/internal/graphdb"
	"threatraptor/internal/rules"
)

// Alert is one rule-tagged audit event — a vertex of its incident's TPG.
type Alert struct {
	EventID   int64  `json:"event_id"`
	Rule      string `json:"rule"`
	Tactic    string `json:"tactic"`
	Technique string `json:"technique,omitempty"`
	Severity  int    `json:"severity"`
	Op        string `json:"op"`
	SubjectID int64  `json:"subject_id"`
	ObjectID  int64  `json:"object_id"`
	Subject   string `json:"subject"`
	Object    string `json:"object"`
	StartUS   int64  `json:"start_us"`
	EndUS     int64  `json:"end_us"`

	tacticRank int
	// chainLen/chainSev memoize the DP: the best kill chain ending at
	// this alert (length, severity sum).
	chainLen int
	chainSev int
}

// Incident is one ranked incident: an IIP subgraph plus the TPG built
// from the alerts attributed to it.
type Incident struct {
	ID int `json:"id"`
	// RootEntityID / RootEntity identify the initial infection point (the
	// first attributed alert's subject).
	RootEntityID int64  `json:"root_entity_id"`
	RootEntity   string `json:"root_entity"`
	// ChainLen and ChainScore are the kill-chain DP result: the length of
	// the longest happens-before-ordered, tactic-ordered alert
	// subsequence, and that chain's severity sum.
	ChainLen   int `json:"chain_len"`
	ChainScore int `json:"chain_score"`
	// SeveritySum adds up every attributed alert's severity.
	SeveritySum int `json:"severity_sum"`
	// AlertCount counts every attributed alert, including ones beyond
	// the per-incident TPG cap.
	AlertCount int   `json:"alert_count"`
	FirstUS    int64 `json:"first_us"`
	LastUS     int64 `json:"last_us"`
	// Entities is the sorted IIP subgraph vertex set: alert endpoints
	// plus the backward-reachability path entities that attributed the
	// alerts here.
	Entities []int64 `json:"iip_entities"`
	// Alerts holds the TPG vertices in happens-before (start time, event
	// ID) order, capped at MaxAlerts.
	Alerts []Alert `json:"alerts"`
}

// Config bounds a tactical analyzer.
type Config struct {
	// Rules is the compiled rule set; nil disables tagging entirely.
	Rules *rules.Set
	// MaxDepth bounds the backward-reachability BFS depth (default 8).
	MaxDepth int
	// MaxVisited bounds the entities one attribution BFS may visit
	// (default 512).
	MaxVisited int
	// MaxAlerts caps how many alerts one incident keeps in its TPG
	// (default 256); alerts past the cap still count toward AlertCount
	// and SeveritySum but add no DP vertices, keeping a round's scoring
	// cost bounded however long an incident lives.
	MaxAlerts int
}

func (c Config) withDefaults() Config {
	if c.MaxDepth <= 0 {
		c.MaxDepth = 8
	}
	if c.MaxVisited <= 0 {
		c.MaxVisited = 512
	}
	if c.MaxAlerts <= 0 {
		c.MaxAlerts = 256
	}
	return c
}

// Stats are an analyzer's lifetime totals.
type Stats struct {
	// AlertsTagged counts every alert ever tagged.
	AlertsTagged int64
	// Rounds counts completed tactical rounds.
	Rounds int64
	// Incidents counts incidents currently open.
	Incidents int
}

// RoundStats summarizes one tactical round.
type RoundStats struct {
	// Alerts tagged in this round's delta.
	Alerts int
	// NewIncidents opened by this round.
	NewIncidents int
	// Incidents open after the round.
	Incidents int
}

// Analyzer accumulates incidents across tactical rounds. One analyzer
// belongs to one session; Round is called from the ingest path (after a
// successful append) and the read accessors are safe from any goroutine.
type Analyzer struct {
	mu        sync.Mutex
	cfg       Config
	marked    map[int64]int // entity ID -> incident index (first mark wins)
	incidents []*Incident
	tagged    int64
	rounds    int64
	// scratch buffers reused across rounds.
	matchBuf []int
	queue    []int64
}

// NewAnalyzer creates an analyzer over the given config.
func NewAnalyzer(cfg Config) *Analyzer {
	return &Analyzer{cfg: cfg.withDefaults(), marked: make(map[int64]int)}
}

// Stats returns the analyzer's lifetime totals.
func (a *Analyzer) Stats() Stats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return Stats{AlertsTagged: a.tagged, Rounds: a.rounds, Incidents: len(a.incidents)}
}

// SnapSource is the pinned store generation a tactical round reads: an
// event frontier, the per-batch op bitmap, the ID-ordered event slice,
// dense entity resolution, and time-bounded adjacency visits, all over
// one engine snapshot. A sharded store (see internal/shard) feeds the
// analyzer its global snapshot, so the analyzer never knows about
// sharding.
type SnapSource struct{ Snap *engine.Snapshot }

// Frontier is the exclusive event-ID ceiling: every readable event has
// ID < Frontier().
func (s SnapSource) Frontier() int64 { return s.Snap.NextEventID }

// OpMaskBetween folds the op-code bits of events with ID in [lo, hi)
// (a conservative superset).
func (s SnapSource) OpMaskBetween(lo, hi int64) uint32 { return s.Snap.OpMaskBetween(lo, hi) }

// Entity resolves an entity ID (nil when unknown).
func (s SnapSource) Entity(id int64) *audit.Entity { return snapEntity(s.Snap, id) }

// EventsSince returns the events with ID >= lo in ascending ID order.
func (s SnapSource) EventsSince(lo int64) []audit.Event {
	events := s.Snap.Events
	start := sort.Search(len(events), func(i int) bool { return events[i].ID >= lo })
	return events[start:]
}

// VisitEventEdges calls fn for every event edge incident to entity id
// with start_time <= maxStart: outgoing first, then incoming, each in
// ascending (start_time, event ID) order; fn returning false stops.
func (s SnapSource) VisitEventEdges(id int64, maxStart int64, fn func(graphdb.EventEdgeRef) bool) {
	s.Snap.Graph.VisitEventEdges(id, maxStart, fn)
}

// Round runs one tactical round over the events with IDs in
// [lo, snap.NextEventID): tags them against the rule set, attributes the
// alerts to incidents, and rescores the touched incidents. It reads only
// the pinned snapshot, so it runs strictly after AppendBatch published —
// a rolled-back append was never published and can produce no alert.
func (a *Analyzer) Round(snap *engine.Snapshot, lo int64) RoundStats {
	return a.RoundOn(SnapSource{Snap: snap}, lo)
}

// RoundOn is Round over src (a nil src.Snap behaves like a nil snapshot:
// the round counts but tags nothing).
func (a *Analyzer) RoundOn(src SnapSource, lo int64) RoundStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.rounds++
	rs := RoundStats{Incidents: len(a.incidents)}
	set := a.cfg.Rules
	if set == nil || src.Snap == nil {
		return rs
	}
	hi := src.Frontier()
	if lo < 1 {
		lo = 1
	}
	if src.OpMaskBetween(lo, hi)&set.OpMask() == 0 {
		// No event in the delta carries any rule's trigger operation.
		return rs
	}
	events := src.EventsSince(lo)
	touched := map[int]bool{}
	for i := 0; i < len(events) && events[i].ID < hi; i++ {
		ev := &events[i]
		subj := src.Entity(ev.SubjectID)
		obj := src.Entity(ev.ObjectID)
		a.matchBuf = set.Match(ev, subj, obj, a.matchBuf[:0])
		for _, ri := range a.matchBuf {
			r := set.Rule(ri)
			al := Alert{
				EventID:    ev.ID,
				Rule:       r.Name,
				Tactic:     r.Tactic,
				Technique:  r.Technique,
				Severity:   set.RuleSeverity(ri),
				Op:         ev.Op.String(),
				SubjectID:  ev.SubjectID,
				ObjectID:   ev.ObjectID,
				Subject:    entityName(subj),
				Object:     entityName(obj),
				StartUS:    ev.StartTime,
				EndUS:      ev.EndTime,
				tacticRank: set.RuleTacticRank(ri),
			}
			a.tagged++
			rs.Alerts++
			if a.attribute(src, al, touched) {
				rs.NewIncidents++
			}
		}
	}
	for idx := range touched {
		a.rescore(a.incidents[idx])
	}
	// Deterministic map drain isn't needed: rescore per incident is
	// order-independent (the DP reads only that incident's alerts).
	rs.Incidents = len(a.incidents)
	return rs
}

// attribute assigns one alert to an incident, opening a new one when no
// causal predecessor is marked. Returns true when a new incident opened.
func (a *Analyzer) attribute(src SnapSource, al Alert, touched map[int]bool) bool {
	idx, path := a.findIncident(src, al)
	opened := false
	if idx < 0 {
		inc := &Incident{
			ID:           len(a.incidents) + 1,
			RootEntityID: al.SubjectID,
			RootEntity:   al.Subject,
			FirstUS:      al.StartUS,
			LastUS:       al.EndUS,
		}
		a.incidents = append(a.incidents, inc)
		idx = len(a.incidents) - 1
		opened = true
	}
	inc := a.incidents[idx]
	inc.AlertCount++
	inc.SeveritySum += al.Severity
	if al.StartUS < inc.FirstUS {
		inc.FirstUS = al.StartUS
	}
	if al.EndUS > inc.LastUS {
		inc.LastUS = al.EndUS
	}
	a.mark(al.SubjectID, idx, inc)
	a.mark(al.ObjectID, idx, inc)
	for _, id := range path {
		a.mark(id, idx, inc)
	}
	if len(inc.Alerts) < a.cfg.MaxAlerts {
		// Alerts arrive in event-ID order; keep the TPG vertex list in
		// happens-before (start time, event ID) order for the DP.
		pos := sort.Search(len(inc.Alerts), func(i int) bool {
			x := &inc.Alerts[i]
			return x.StartUS > al.StartUS || (x.StartUS == al.StartUS && x.EventID > al.EventID)
		})
		inc.Alerts = append(inc.Alerts, Alert{})
		copy(inc.Alerts[pos+1:], inc.Alerts[pos:])
		inc.Alerts[pos] = al
		// A mid-list insertion shifts the DP inputs of everything to its
		// right; drop those memos so rescore recomputes them. The common
		// case appends at the tail and invalidates nothing.
		for i := pos + 1; i < len(inc.Alerts); i++ {
			inc.Alerts[i].chainLen = 0
		}
	}
	touched[idx] = true
	return opened
}

// mark records an entity as belonging to an incident; the first mark wins
// (an entity stays attributed to the earliest incident that touched it).
func (a *Analyzer) mark(id int64, idx int, inc *Incident) {
	if id <= 0 {
		return
	}
	if _, ok := a.marked[id]; !ok {
		a.marked[id] = idx
	}
	// The incident's IIP vertex set keeps every entity it touched, even
	// ones first marked by an earlier incident.
	n := len(inc.Entities)
	pos := sort.Search(n, func(i int) bool { return inc.Entities[i] >= id })
	if pos < n && inc.Entities[pos] == id {
		return
	}
	inc.Entities = append(inc.Entities, 0)
	copy(inc.Entities[pos+1:], inc.Entities[pos:])
	inc.Entities[pos] = id
}

// findIncident runs the bounded backward-reachability BFS from the
// alert's subject over the snapshot adjacency: the first marked entity
// reached decides the incident, and the connecting path (alert subject
// exclusive, marked entity inclusive) is returned for the IIP subgraph.
// Direct marks on the subject or object short-circuit the traversal.
func (a *Analyzer) findIncident(src SnapSource, al Alert) (int, []int64) {
	if idx, ok := a.marked[al.SubjectID]; ok {
		return idx, nil
	}
	if idx, ok := a.marked[al.ObjectID]; ok {
		return idx, nil
	}
	type visit struct {
		bound int64
		prev  int64
		depth int
	}
	visited := map[int64]visit{al.SubjectID: {bound: al.StartUS, prev: 0, depth: 0}}
	a.queue = append(a.queue[:0], al.SubjectID)
	for qi := 0; qi < len(a.queue); qi++ {
		id := a.queue[qi]
		v := visited[id]
		if v.depth >= a.cfg.MaxDepth {
			continue
		}
		foundIdx, foundID := -1, int64(0)
		src.VisitEventEdges(id, v.bound, func(e graphdb.EventEdgeRef) bool {
			// Causal predecessor: information flows against the edge for
			// read/receive (object -> subject), with it otherwise
			// (subject -> object) — the provenance-graph convention.
			into := e.Op == "read" || e.Op == "receive"
			var pred int64
			switch {
			case e.Out && into:
				pred = e.Other
			case !e.Out && !into:
				pred = e.Other
			default:
				return true
			}
			if _, ok := visited[pred]; ok {
				return true
			}
			if idx, ok := a.marked[pred]; ok {
				foundIdx, foundID = idx, pred
				visited[pred] = visit{bound: e.Start, prev: id, depth: v.depth + 1}
				return false
			}
			if len(visited) >= a.cfg.MaxVisited {
				return false
			}
			visited[pred] = visit{bound: e.Start, prev: id, depth: v.depth + 1}
			a.queue = append(a.queue, pred)
			return true
		})
		if foundIdx >= 0 {
			// Walk the parent chain back to (but excluding) the subject.
			var path []int64
			for id := foundID; id != 0 && id != al.SubjectID; id = visited[id].prev {
				path = append(path, id)
			}
			return foundIdx, path
		}
		if len(visited) >= a.cfg.MaxVisited {
			break
		}
	}
	return -1, nil
}

// rescore recomputes the incident's kill-chain DP for alerts whose memo
// is unset. The TPG vertex list is happens-before sorted, so dp[i] only
// looks left: the best chain ending at alert i extends the best chain
// ending at any j<i with j.End <= i.Start and tactic rank j <= i.
func (a *Analyzer) rescore(inc *Incident) {
	al := inc.Alerts
	for i := range al {
		if al[i].chainLen != 0 {
			continue
		}
		bestLen, bestSev := 1, al[i].Severity
		for j := 0; j < i; j++ {
			if al[j].EndUS > al[i].StartUS || al[j].tacticRank > al[i].tacticRank {
				continue
			}
			if l, s := al[j].chainLen+1, al[j].chainSev+al[i].Severity; l > bestLen || (l == bestLen && s > bestSev) {
				bestLen, bestSev = l, s
			}
		}
		al[i].chainLen, al[i].chainSev = bestLen, bestSev
	}
	inc.ChainLen, inc.ChainScore = 0, 0
	for i := range al {
		if al[i].chainLen > inc.ChainLen || (al[i].chainLen == inc.ChainLen && al[i].chainSev > inc.ChainScore) {
			inc.ChainLen, inc.ChainScore = al[i].chainLen, al[i].chainSev
		}
	}
}

// Ranked returns deep copies of the incidents in rank order: kill-chain
// length, then chain severity, then earliest alert time, then incident
// ID — a total order, so the ranking (and its JSON) is byte-stable.
func (a *Analyzer) Ranked() []Incident {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]Incident, len(a.incidents))
	for i, inc := range a.incidents {
		out[i] = *inc
		out[i].Alerts = append([]Alert(nil), inc.Alerts...)
		out[i].Entities = append([]int64(nil), inc.Entities...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := &out[i], &out[j]
		if a.ChainLen != b.ChainLen {
			return a.ChainLen > b.ChainLen
		}
		if a.ChainScore != b.ChainScore {
			return a.ChainScore > b.ChainScore
		}
		if a.FirstUS != b.FirstUS {
			return a.FirstUS < b.FirstUS
		}
		return a.ID < b.ID
	})
	return out
}

// Analyze is the one-shot entry: a single tactical round over every event
// of the snapshot, returning the ranked incidents. The CLI's batch mode
// uses it; live sessions drive an Analyzer per sealed batch instead.
func Analyze(snap *engine.Snapshot, cfg Config) []Incident {
	a := NewAnalyzer(cfg)
	a.Round(snap, 1)
	return a.Ranked()
}

// MarshalIncidents renders ranked incidents as indented JSON — the
// byte-stable form the golden tests pin and /v1/incidents serves.
func MarshalIncidents(incs []Incident) ([]byte, error) {
	return json.MarshalIndent(incs, "", "  ")
}

func snapEntity(snap *engine.Snapshot, id int64) *audit.Entity {
	if id < 1 || id > int64(len(snap.Entities)) {
		return nil
	}
	return snap.Entities[id-1]
}

// entityName resolves an entity's default display attribute (exename for
// processes, path for files, dstip for connections).
func entityName(e *audit.Entity) string {
	if e == nil {
		return ""
	}
	if v, ok := e.Attr(audit.DefaultAttr(e.Kind)); ok {
		return v
	}
	return ""
}
