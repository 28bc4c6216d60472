package segment

// Range segments. A flush writes what was appended since the previous
// one, so a role's live set is a list of images whose ranges tile the
// store's append order. BuildAdjacency derives a range's adjacency from
// its own event columns at dump time; Fold turns the live list back into
// the one image a store is restored from.

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"threatraptor/internal/audit"
)

// adjDir is one direction of an AdjCSR.
type adjDir struct{ nodes, counts, flat []int32 }

func (a *AdjCSR) dirs() [2]adjDir {
	return [2]adjDir{{a.OutNodes, a.OutCounts, a.Out}, {a.InNodes, a.InCounts, a.In}}
}

// BuildAdjacency derives a range's adjacency straight from its event
// columns: row i is an out-edge of node Subject[i]-1 and an in-edge of
// node Object[i]-1, and each node's list comes out in the graph's
// canonical (start time, offset) order. Rows are bucketed by node with a
// stable radix sort, so the cost is linear in the range and independent
// of how many nodes the store holds.
func BuildAdjacency(ev *EventCols) AdjCSR {
	var a AdjCSR
	a.OutNodes, a.OutCounts, a.Out = nodeLists(ev.Subject, ev.Start)
	a.InNodes, a.InCounts, a.In = nodeLists(ev.Object, ev.Start)
	return a
}

// nodeLists groups row offsets by node (ends[i]-1) in ascending node
// order, each node's rows in (start time, offset) order.
func nodeLists(ends, start []int64) (nodes, counts, flat []int32) {
	n := len(ends)
	keys := make([]uint64, 2*n)
	keys, tmp := keys[:n:n], keys[n:]
	var nodeBits uint64
	for i, e := range ends {
		nd := uint64(e - 1)
		keys[i] = nd<<32 | uint64(i)
		nodeBits |= nd
	}
	// LSD radix sort on the node half of the key, one byte per pass. The
	// rows enter in ascending order and every pass is stable, so within a
	// node they stay in offset order.
	for shift := 32; nodeBits>>(shift-32) != 0; shift += 8 {
		var pos [256]int
		for _, k := range keys {
			pos[k>>shift&0xff]++
		}
		at := 0
		for b, c := range pos {
			pos[b] = at
			at += c
		}
		for _, k := range keys {
			b := k >> shift & 0xff
			tmp[pos[b]] = k
			pos[b]++
		}
		keys, tmp = tmp, keys
	}
	flat = make([]int32, n)
	runs := 0
	for i, k := range keys {
		flat[i] = int32(uint32(k))
		if i == 0 || k>>32 != keys[i-1]>>32 {
			runs++
		}
	}
	slab := make([]int32, 2*runs)
	nodes, counts = slab[:0:runs], slab[runs:runs:2*runs]
	for i := 0; i < n; {
		j := i + 1
		for j < n && keys[j]>>32 == keys[i]>>32 {
			j++
		}
		nodes = append(nodes, int32(keys[i]>>32))
		counts = append(counts, int32(j-i))
		timeOrder(flat[i:j], start)
		i = j
	}
	return nodes, counts, flat
}

// timeOrder puts a node's list, given in offset order, into (start time,
// offset) order. Audit streams arrive nearly time-ordered, so the common
// case is one sortedness check.
func timeOrder(l []int32, start []int64) {
	for i := 1; i < len(l); i++ {
		if start[l[i]] < start[l[i-1]] {
			slices.SortStableFunc(l, func(a, b int32) int { return cmp.Compare(start[a], start[b]) })
			return
		}
	}
}

// Fold folds one role's live segments, given in manifest order, into the
// single image of everything they cover. The ranges must tile the
// store's append order from the start — the first begins at the zero
// Base, each next one where its predecessor ends, and node counts never
// shrink — or Fold returns a *CorruptError naming the first segment out
// of place: a gap, an overlap, and a reordered list all land there.
// Columns are concatenated; each node's lists are merged across segments
// with edge offsets rebased onto the folded rows, keeping the canonical
// (start time, offset) order. A single full image folds to itself. Each
// image must be valid on its own — decoded by DecodeSegment or dumped
// from a store; Fold checks only how the images fit together.
func Fold(imgs []*Image) (*Image, error) {
	bad := func(i int, reason string) error {
		return &CorruptError{File: "segment list", Offset: 0,
			Reason: fmt.Sprintf("segment %d of %d: %s", i+1, len(imgs), reason)}
	}
	if len(imgs) == 0 {
		return nil, &CorruptError{File: "segment list", Reason: "no live segments"}
	}
	var want Base
	var rows int64
	for i, img := range imgs {
		if img.Base != want {
			return nil, bad(i, fmt.Sprintf("range starts at %+v, want %+v", img.Base, want))
		}
		if i > 0 && img.Nodes < imgs[i-1].Nodes {
			return nil, bad(i, fmt.Sprintf("node count shrinks from %d to %d", imgs[i-1].Nodes, img.Nodes))
		}
		want = img.End()
		rows += int64(len(img.Events.ID))
	}
	if rows > math.MaxInt32 {
		return nil, bad(len(imgs)-1, "folded event rows overflow edge offsets")
	}
	if len(imgs) == 1 {
		return imgs[0], nil
	}

	last := imgs[len(imgs)-1]
	out := &Image{NextEventID: last.NextEventID, MinTime: last.MinTime, MaxTime: last.MaxTime, Nodes: last.Nodes}
	out.EntityCols, out.Entities = foldEntities(imgs)

	n := int(rows)
	ev := &out.Events
	slab := make([]int64, 7*n)
	for i, dst := range ev.intCols() {
		*dst = slab[i*n : i*n : (i+1)*n]
	}
	ev.Op = make([]uint8, 0, n)
	rowBase := make([]int32, len(imgs))
	for i, img := range imgs {
		rowBase[i] = int32(len(ev.ID))
		src := img.Events.intCols()
		for c, dst := range ev.intCols() {
			*dst = append(*dst, *src[c]...)
		}
		ev.Op = append(ev.Op, img.Events.Op...)
	}

	var dirs [2]adjDir
	for d := range dirs {
		parts := make([]adjDir, len(imgs))
		for i, img := range imgs {
			parts[i] = img.Adj.dirs()[d]
		}
		dirs[d] = foldDir(parts, rowBase, ev.Start)
	}
	a := &out.Adj
	a.OutNodes, a.OutCounts, a.Out = dirs[0].nodes, dirs[0].counts, dirs[0].flat
	a.InNodes, a.InCounts, a.In = dirs[1].nodes, dirs[1].counts, dirs[1].flat
	return out, nil
}

// foldEntities concatenates the segments' entity rows, or returns nils
// when the role carries no entities (shard partitions).
func foldEntities(imgs []*Image) (*EntityCols, []*audit.Entity) {
	n := 0
	for _, img := range imgs {
		n += len(img.Entities)
	}
	if n == 0 {
		return nil, nil
	}
	c := &EntityCols{Kind: make([]uint8, 0, n)}
	ints := make([]int64, 3*n)
	for i, dst := range c.intCols() {
		*dst = ints[i*n : i*n : (i+1)*n]
	}
	strs := make([]string, 10*n)
	for i, dst := range c.strCols() {
		*dst = strs[i*n : i*n : (i+1)*n]
	}
	ents := make([]*audit.Entity, 0, n)
	for _, img := range imgs {
		if len(img.Entities) == 0 {
			continue
		}
		src := img.EntityCols // decoded and dumped images carry both forms
		c.Kind = append(c.Kind, src.Kind...)
		srcInts := src.intCols()
		for i, dst := range c.intCols() {
			*dst = append(*dst, *srcInts[i]...)
		}
		srcStrs := src.strCols()
		for i, dst := range c.strCols() {
			*dst = append(*dst, *srcStrs[i]...)
		}
		ents = append(ents, img.Entities...)
	}
	return c, ents
}

// foldDir merges one adjacency direction across segments: the node
// lists are merged in ascending order, and a node present in several
// segments gets their lists concatenated in segment order with offsets
// rebased by rowBase — offset order, since later segments hold later
// rows — then put back into (start time, offset) order.
func foldDir(parts []adjDir, rowBase []int32, start []int64) adjDir {
	var nLists, nFlat int
	for _, p := range parts {
		nLists += len(p.nodes)
		nFlat += len(p.flat)
	}
	out := adjDir{nodes: make([]int32, 0, nLists), counts: make([]int32, 0, nLists), flat: make([]int32, 0, nFlat)}
	head := make([]int, len(parts))  // next list of each part
	pos := make([]int32, len(parts)) // that list's start in the part's flat
	for {
		node := int32(-1)
		for k, p := range parts {
			if h := head[k]; h < len(p.nodes) && (node < 0 || p.nodes[h] < node) {
				node = p.nodes[h]
			}
		}
		if node < 0 {
			return out
		}
		at := len(out.flat)
		for k, p := range parts {
			if h := head[k]; h < len(p.nodes) && p.nodes[h] == node {
				c := p.counts[h]
				for _, ei := range p.flat[pos[k] : pos[k]+c] {
					out.flat = append(out.flat, ei+rowBase[k])
				}
				pos[k] += c
				head[k]++
			}
		}
		out.nodes = append(out.nodes, node)
		out.counts = append(out.counts, int32(len(out.flat)-at))
		timeOrder(out.flat[at:], start)
	}
}
