package segment

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"threatraptor/internal/audit"
)

// rangeFixture builds a store's history the way a live session appends
// it — batches of new entities plus events over the entities seen so far,
// with gaps in the event IDs and start times that sometimes run backwards
// — and returns the full image plus one range image per batch.
func rangeFixture(seed int64, batches int) (full *Image, parts []*Image) {
	rng := rand.New(rand.NewSource(seed))
	var ents []*audit.Entity
	var ev EventCols
	nextID, minT, maxT := int64(1), int64(0), int64(0)
	for b := 0; b < batches; b++ {
		part := &Image{}
		if b > 0 {
			part.Base = parts[b-1].End()
		}
		entFrom, evFrom := len(ents), len(ev.ID)
		for i := rng.Intn(4); i > 0 || len(ents) < 2; i-- {
			id := int64(len(ents)) + 1
			var e *audit.Entity
			switch id % 3 {
			case 0:
				e = audit.NewFileEntity(fmt.Sprintf("/tmp/f%d", id), "root", "root")
			case 1:
				e = audit.NewProcessEntity(int(id), fmt.Sprintf("/bin/p%d", id%5), "alice", "users", "run")
			default:
				e = audit.NewNetConnEntity("10.0.0.1", int(id), "203.0.113.9", 443, "tcp")
			}
			e.ID = id
			ents = append(ents, e)
		}
		for i := 1 + rng.Intn(6); i > 0; i-- {
			nextID += 1 + int64(rng.Intn(2))
			start := int64(1000+10*len(ev.ID)) - int64(rng.Intn(40))
			ev.ID = append(ev.ID, nextID-1)
			ev.Subject = append(ev.Subject, 1+int64(rng.Intn(len(ents))))
			ev.Object = append(ev.Object, 1+int64(rng.Intn(len(ents))))
			ev.Start = append(ev.Start, start)
			ev.End = append(ev.End, start+5)
			ev.Amount = append(ev.Amount, int64(rng.Intn(1<<12)))
			ev.Failure = append(ev.Failure, 0)
			ev.Op = append(ev.Op, uint8(audit.OpRead)+uint8(rng.Intn(int(audit.OpReceive))))
			if minT == 0 || start < minT {
				minT = start
			}
			maxT = max(maxT, start+5)
		}
		part.NextEventID, part.MinTime, part.MaxTime, part.Nodes = nextID, minT, maxT, len(ents)
		part.Entities = ents[entFrom:]
		part.EntityCols = BuildEntityCols(part.Entities)
		part.Events = sliceEvents(&ev, evFrom, len(ev.ID))
		part.Adj = BuildAdjacency(&part.Events)
		parts = append(parts, part)
	}
	full = &Image{NextEventID: nextID, MinTime: minT, MaxTime: maxT, Nodes: len(ents),
		Entities: ents, EntityCols: BuildEntityCols(ents), Events: ev}
	full.Adj = BuildAdjacency(&full.Events)
	return full, parts
}

func sliceEvents(ev *EventCols, lo, hi int) EventCols {
	var out EventCols
	src := ev.intCols()
	for i, dst := range out.intCols() {
		*dst = (*src[i])[lo:hi:hi]
	}
	out.Op = ev.Op[lo:hi:hi]
	return out
}

// merged is the range image of parts[lo:hi] — what a merging flush dumps
// from the in-memory store.
func merged(full *Image, parts []*Image, lo, hi int) *Image {
	first, last := parts[lo], parts[hi-1]
	m := *last
	m.Base = first.Base
	m.Entities = full.Entities[first.Base.Entity:last.End().Entity]
	m.EntityCols = BuildEntityCols(m.Entities)
	rowLo := 0
	for _, p := range parts[:lo] {
		rowLo += len(p.Events.ID)
	}
	rowHi := rowLo
	for _, p := range parts[lo:hi] {
		rowHi += len(p.Events.ID)
	}
	m.Events = sliceEvents(&full.Events, rowLo, rowHi)
	m.Adj = BuildAdjacency(&m.Events)
	return &m
}

// roundTrip is the disk path minus the filesystem.
func roundTrip(t testing.TB, imgs ...*Image) []*Image {
	t.Helper()
	out := make([]*Image, len(imgs))
	for i, img := range imgs {
		got, err := DecodeSegment(Encode(img))
		if err != nil {
			t.Fatalf("decode range %d: %v", i, err)
		}
		out[i] = got
	}
	return out
}

// TestFoldEqualsFullImage pins the fold: range segments written one per
// batch — and lists where a merge replaced some of them — fold into an
// image whose encoding is byte-identical to the full image's, including
// adjacency lists whose later rows start earlier than older ones.
func TestFoldEqualsFullImage(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		full, parts := rangeFixture(seed, 9)
		want := Encode(full)
		lists := map[string][]*Image{
			"deltas":       parts,
			"base+deltas":  append([]*Image{merged(full, parts, 0, 5)}, parts[5:]...),
			"merge inside": append(append(append([]*Image{}, parts[:2]...), merged(full, parts, 2, 6)), parts[6:]...),
			"one merge":    {merged(full, parts, 0, len(parts))},
		}
		for name, list := range lists {
			got, err := Fold(roundTrip(t, list...))
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, name, err)
			}
			if enc := Encode(got); !bytes.Equal(enc, want) {
				t.Fatalf("seed %d %s: folded image encodes differently from the full image (%d vs %d bytes)", seed, name, len(enc), len(want))
			}
			requireCanonical(t, got)
		}
	}
}

// requireCanonical checks every adjacency list is in (start time,
// offset) order and lists exactly its node's edges.
func requireCanonical(t *testing.T, img *Image) {
	t.Helper()
	for d, dir := range img.Adj.dirs() {
		ends := [2][]int64{img.Events.Subject, img.Events.Object}[d]
		pos := int32(0)
		for i, node := range dir.nodes {
			l := dir.flat[pos : pos+dir.counts[i]]
			pos += dir.counts[i]
			for j, ei := range l {
				if ends[ei]-1 != int64(node) {
					t.Fatalf("edge %d listed under node %d", ei, node)
				}
				if j > 0 {
					a, b := l[j-1], ei
					if s := img.Events.Start; s[a] > s[b] || s[a] == s[b] && a > b {
						t.Fatalf("node %d list out of (start, offset) order at %d", node, j)
					}
				}
			}
		}
	}
}

// TestFoldRejectsBrokenLists: a gap, an overlap, or a reordered list is a
// typed corruption error, never a silently wrong store.
func TestFoldRejectsBrokenLists(t *testing.T) {
	_, parts := rangeFixture(7, 4)
	p := roundTrip(t, parts...)
	for name, list := range map[string][]*Image{
		"gap":        {p[0], p[2], p[3]},
		"overlap":    {p[0], p[1], p[1], p[2], p[3]},
		"reordered":  {p[0], p[2], p[1], p[3]},
		"no start":   {p[1], p[2], p[3]},
		"empty list": nil,
	} {
		_, err := Fold(list)
		var ce *CorruptError
		if !errors.As(err, &ce) || !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Fold error %v, want a *CorruptError", name, err)
		}
	}
}

// encodeV1 writes the version-1 format: a six-value meta section and
// dense per-node adjacency counts.
func encodeV1(img *Image) []byte {
	v2 := Encode(img)
	r := &reader{b: v2[8:], file: "v2"}
	secs := make([][]byte, 4)
	for i := range secs {
		s, _ := r.section(uint32(i + 1))
		secs[i] = s.b
	}
	b := append([]byte(segMagic), 1, 0, 0, 0)
	b, start := beginSection(b, secMeta)
	b = append(b, secs[0][:6*8]...)
	b = endSection(b, start)
	for _, id := range []uint32{secEntities, secEvents} {
		b, start = beginSection(b, id)
		b = append(b, secs[id-1]...)
		b = endSection(b, start)
	}
	dense := func(nodes, counts []int32) []int32 {
		d := make([]int32, img.Nodes)
		for i, n := range nodes {
			d[n] = counts[i]
		}
		return d
	}
	a := &img.Adj
	b, start = beginSection(b, secAdjacency)
	b = appendU32(b, uint32(img.Nodes))
	b = appendU32(b, uint32(len(a.Out)))
	b = appendU32(b, uint32(len(a.In)))
	b = appendI32s(b, dense(a.OutNodes, a.OutCounts))
	b = appendI32s(b, a.Out)
	b = appendI32s(b, dense(a.InNodes, a.InCounts))
	b = appendI32s(b, a.In)
	return endSection(b, start)
}

// TestSegmentVersion1Decodes: a file written before segments covered
// ranges reads as a full image — a range starting at zero — with its
// dense adjacency counts made sparse.
func TestSegmentVersion1Decodes(t *testing.T) {
	full, _ := rangeFixture(3, 6)
	got, err := DecodeSegment(encodeV1(full))
	if err != nil {
		t.Fatal(err)
	}
	want := roundTrip(t, full)[0]
	if got.Base != (Base{}) || !reflect.DeepEqual(got.Adj, want.Adj) || !reflect.DeepEqual(got.Events, want.Events) {
		t.Fatalf("version-1 image differs from the version-2 one: base %+v", got.Base)
	}
	if !bytes.Equal(Encode(got), Encode(want)) {
		t.Fatal("version-1 image re-encodes differently")
	}
}

// FuzzSegmentFold holds the fold's contract over arbitrary segment lists:
// it never panics; it succeeds on exactly the in-order list of a
// history's ranges, folding it into the full image; and on any other list
// — ranges dropped, repeated, reordered or shifted, or a decodable
// foreign segment mixed in — it either returns a *CorruptError or, if the
// ranges still happen to tile, an image that passes decode's invariants.
func FuzzSegmentFold(f *testing.F) {
	full, parts := rangeFixture(11, 4)
	foreign := Encode(merged(full, parts, 1, 3))
	f.Add([]byte{0, 1, 2, 3}, int64(0), int64(0), []byte(nil))
	f.Add([]byte{0, 2, 1, 3}, int64(0), int64(0), []byte(nil))
	f.Add([]byte{0, 1, 3}, int64(0), int64(0), []byte(nil))
	f.Add([]byte{0, 1, 1, 2, 3}, int64(0), int64(0), []byte(nil))
	f.Add([]byte{0, 1, 2, 3}, int64(1), int64(0), []byte(nil))
	f.Add([]byte{0, 1, 2, 3}, int64(0), int64(-1), []byte(nil))
	f.Add([]byte{0, 4, 3}, int64(0), int64(0), foreign)
	f.Add([]byte{4}, int64(0), int64(0), Encode(testImage()))
	want := Encode(full)
	f.Fuzz(func(t *testing.T, order []byte, entShift, evShift int64, raw []byte) {
		if len(order) > 16 {
			return
		}
		pool := roundTrip(t, parts...)
		if img, err := DecodeSegment(raw); err == nil {
			pool = append(pool, img)
		}
		list := make([]*Image, len(order))
		for i, o := range order {
			list[i] = pool[int(o)%len(pool)]
		}
		identity := len(list) == len(parts) && entShift == 0 && evShift == 0
		for i := range list {
			identity = identity && list[i] == pool[i]
		}
		if len(list) > 0 {
			// Shift a copy of the last range, so the pool stays intact.
			last := *list[len(list)-1]
			last.Base.Entity += entShift
			last.Base.Event += evShift
			list[len(list)-1] = &last
		}
		got, err := Fold(list)
		if identity {
			if err != nil {
				t.Fatalf("in-order ranges refused: %v", err)
			}
			if !bytes.Equal(Encode(got), want) {
				t.Fatal("in-order ranges fold to a different image")
			}
			return
		}
		if err != nil {
			var ce *CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("fold error is not a *CorruptError: %v", err)
			}
			return
		}
		if err := validateImage(got); err != nil {
			t.Fatalf("fold accepted a list and built an invalid image: %v", err)
		}
		if got.Base != (Base{}) {
			t.Fatalf("folded image starts at %+v", got.Base)
		}
	})
}
