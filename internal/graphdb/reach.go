package graphdb

import "sort"

// EventEdgeRef surfaces one event edge incident to a node, for causality
// traversals (fuzzy search's flow alignment, tactical IIP extraction)
// that want the graph's time-sorted binary-searchable adjacency without
// going through the Cypher execution machinery.
type EventEdgeRef struct {
	// EventID is the audit event the edge mirrors.
	EventID int64
	// Other is the node at the far end of the edge.
	Other int64
	// Out reports the direction: true when the visited node is the
	// edge's source (the event's subject), false when it is the target
	// (the event's object).
	Out bool
	// Op is the event's operation keyword.
	Op string
	// Start and End are the event's time bounds in µs.
	Start, End int64
}

// VisitEventEdges calls fn for every event edge incident to node id whose
// start_time is <= maxStart — outgoing edges first, then incoming, each
// in ascending start_time order. Because every captured adjacency list is
// sorted by start_time, the bound is applied with one binary search per
// direction rather than a scan of the whole neighborhood. fn returning
// false stops the enumeration. Non-event (generic property) edges are
// skipped.
func (v *View) VisitEventEdges(id int64, maxStart int64, fn func(EventEdgeRef) bool) {
	if !v.visitDir(v.outOffsets(id), true, maxStart, fn) {
		return
	}
	v.visitDir(v.inOffsets(id), false, maxStart, fn)
}

func (v *View) visitDir(offs []int32, out bool, maxStart int64, fn func(EventEdgeRef) bool) bool {
	// First offset whose edge starts after the bound; the prefix before
	// it is exactly the in-bound edges.
	n := sort.Search(len(offs), func(i int) bool {
		return v.edges[offs[i]].startTime > maxStart
	})
	for _, off := range offs[:n] {
		e := &v.edges[off]
		if !e.typed {
			continue
		}
		other := e.To
		if !out {
			other = e.From
		}
		if !fn(EventEdgeRef{
			EventID: e.evID,
			Other:   other,
			Out:     out,
			Op:      e.Type,
			Start:   e.startTime,
			End:     e.endTime,
		}) {
			return false
		}
	}
	return true
}
