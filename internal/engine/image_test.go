package engine

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"threatraptor/internal/audit"
	"threatraptor/internal/cases"
	"threatraptor/internal/segment"
)

// roundTripStore dumps s to segment bytes, decodes them, and opens a
// fresh store from the image — the full durability round trip minus the
// filesystem.
func roundTripStore(t testing.TB, s *Store) *Store {
	t.Helper()
	img := DumpImage(s, true)
	got, err := segment.DecodeSegment(segment.Encode(img))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	table := audit.RestoreTable(got.Entities)
	s2, err := OpenStore(got, got.EntityCols, got.Entities, table)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	return s2
}

// assertStoresEquivalent compares the externally observable state of two
// stores: the event log, the ID frontier, the time bounds, and the
// results of the data_leak hunt over every execution path.
func assertStoresEquivalent(t *testing.T, want, got *Store) {
	t.Helper()
	if !reflect.DeepEqual(want.Log.Events, got.Log.Events) {
		t.Fatalf("event logs differ: %d vs %d events", len(want.Log.Events), len(got.Log.Events))
	}
	if want.nextEventID != got.nextEventID {
		t.Fatalf("nextEventID %d vs %d", want.nextEventID, got.nextEventID)
	}
	if want.MinTime != got.MinTime || want.MaxTime != got.MaxTime {
		t.Fatalf("bounds [%d,%d] vs [%d,%d]", want.MinTime, want.MaxTime, got.MinTime, got.MaxTime)
	}
	if w, g := want.Log.Entities.Len(), got.Log.Entities.Len(); w != g {
		t.Fatalf("entity counts %d vs %d", w, g)
	}
	for id := int64(1); id <= int64(want.Log.Entities.Len()); id++ {
		w, g := want.Log.Entities.Lookup(id), got.Log.Entities.Lookup(id)
		if w.Key() != g.Key() {
			t.Fatalf("entity %d key %q vs %q", id, w.Key(), g.Key())
		}
	}
	a := analyzed(t, dataLeakTBQL)
	resW, _, err := (&Engine{Store: want}).Execute(nil, a)
	if err != nil {
		t.Fatalf("execute original: %v", err)
	}
	resG, _, err := (&Engine{Store: got}).Execute(nil, a)
	if err != nil {
		t.Fatalf("execute restored: %v", err)
	}
	if fmt.Sprintf("%v", resW.Set) != fmt.Sprintf("%v", resG.Set) {
		t.Fatalf("scheduled results differ:\n%v\nvs\n%v", resW.Set, resG.Set)
	}
	if !reflect.DeepEqual(resW.MatchedEvents, resG.MatchedEvents) {
		t.Fatalf("matched events differ")
	}
	rsW, _, err := (&Engine{Store: want}).ExecuteMonolithicCypher(nil, a)
	if err != nil {
		t.Fatalf("cypher original: %v", err)
	}
	rsG, _, err := (&Engine{Store: got}).ExecuteMonolithicCypher(nil, a)
	if err != nil {
		t.Fatalf("cypher restored: %v", err)
	}
	if fmt.Sprintf("%v", rsW) != fmt.Sprintf("%v", rsG) {
		t.Fatalf("graph-path results differ:\n%v\nvs\n%v", rsW, rsG)
	}
}

func TestOpenStoreRoundTrip(t *testing.T) {
	gen, err := cases.ByID("data_leak").Generate(0.5)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := NewStore(gen.Log)
	if err != nil {
		t.Fatal(err)
	}
	s2 := roundTripStore(t, s1)
	assertStoresEquivalent(t, s1, s2)
}

// TestOpenStoreThenAppend verifies a restored store accepts live appends
// exactly like the original: adopted columns relocate instead of
// clobbering shared buffers, restored indexes and adjacency extend, and
// new entities intern through the lazily hydrated table.
func TestOpenStoreThenAppend(t *testing.T) {
	gen, err := cases.ByID("data_leak").Generate(0.5)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := NewStore(gen.Log)
	if err != nil {
		t.Fatal(err)
	}
	s2 := roundTripStore(t, s1)
	appendTarBatch(t, s1, 9999, "/etc/passwd")
	appendTarBatch(t, s2, 9999, "/etc/passwd")
	assertStoresEquivalent(t, s1, s2)

	// And a second round trip after the append captures the appended state.
	s3 := roundTripStore(t, s2)
	assertStoresEquivalent(t, s1, s3)
}

// appendTarBatch appends a tar process (pid) reading and writing path on
// a new host: two events over two entities new to s.
func appendTarBatch(t *testing.T, s *Store, pid int, path string) {
	t.Helper()
	tbl := s.Log.Entities
	p := tbl.InternProcessOn("hostZ", pid, "/bin/tar", "mallory", "users", "tar cf /tmp/x /etc/passwd")
	f := tbl.InternFileOn("hostZ", path, "root", "root")
	base := s.MaxTime + 1000
	evs := []audit.Event{
		{SubjectID: p.ID, ObjectID: f.ID, Op: audit.OpRead, StartTime: base, EndTime: base + 5, DataAmount: 123},
		{SubjectID: p.ID, ObjectID: f.ID, Op: audit.OpWrite, StartTime: base + 10, EndTime: base + 11},
	}
	if err := s.AppendBatch([]*audit.Entity{p, f}, evs); err != nil {
		t.Fatalf("append: %v", err)
	}
}

// TestBuiltAndRecoveredIndexesAgree pins that a store loaded from a log
// and a store recovered from its segment image hold the same indexes:
// for every indexed column the same addressing (dense or hashed) and the
// same position list for every key. It checks after the build and the
// restore, after an append whose entity IDs lie past the dense range, and
// after a rolled-back append; events.op has no index on either store.
func TestBuiltAndRecoveredIndexesAgree(t *testing.T) {
	gen, err := cases.ByID("data_leak").Generate(0.5)
	if err != nil {
		t.Fatal(err)
	}
	built, err := NewStore(gen.Log)
	if err != nil {
		t.Fatal(err)
	}
	recovered := roundTripStore(t, built)
	entities := int64(built.Log.Entities.Len())

	check := func(stage string) {
		t.Helper()
		for table, cols := range map[string][]string{"entities": entityIndexes, "events": eventIndexes} {
			for _, col := range cols {
				want, wantDense, ok := built.Rel.Table(table).IndexLists(col)
				if !ok {
					t.Fatalf("%s: built store has no %s.%s index", stage, table, col)
				}
				got, gotDense, ok := recovered.Rel.Table(table).IndexLists(col)
				if !ok {
					t.Fatalf("%s: recovered store has no %s.%s index", stage, table, col)
				}
				if wantDense != gotDense {
					t.Fatalf("%s: %s.%s addresses %d dense slots built, %d recovered", stage, table, col, wantDense, gotDense)
				}
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("%s: %s.%s position lists differ (%d keys built, %d recovered)", stage, table, col, len(want), len(got))
				}
			}
		}
		// The entity IDs 1..n are the dense case; appended IDs overflow.
		ids, dense, _ := built.Rel.Table("entities").IndexLists("id")
		if dense != int(entities)+1 {
			t.Fatalf("%s: entities.id addresses %d dense slots, want %d", stage, dense, entities+1)
		}
		if n := int64(len(ids)); n != int64(built.Rel.Table("entities").Len()) {
			t.Fatalf("%s: entities.id holds %d keys for %d rows", stage, n, built.Rel.Table("entities").Len())
		}
		for _, s := range []*Store{built, recovered} {
			if _, _, ok := s.Rel.Table("events").IndexLists("op"); ok {
				t.Fatalf("%s: events.op is indexed", stage)
			}
		}
	}
	check("load")

	appendTarBatch(t, built, 9999, "/etc/passwd")
	appendTarBatch(t, recovered, 9999, "/etc/passwd")
	if got := int64(built.Rel.Table("entities").Len()); got <= entities {
		t.Fatalf("append added no entities (%d rows)", got)
	}
	check("append")

	for _, s := range []*Store{built, recovered} {
		m := s.Mark()
		appendTarBatch(t, s, 9998, "/etc/shadow")
		s.Rollback(m)
	}
	check("rollback")
}

// TestRecoveredStoreReplansAfterIndexBuild pins that a plan compiled on a
// recovered store before its deferred index builds does not keep its
// index-less access paths: after the first append builds the indexes, a
// hunt on the same Engine probes them exactly as a fresh Engine's does,
// for the scheduled hunt and the monolithic SQL baseline alike.
func TestRecoveredStoreReplansAfterIndexBuild(t *testing.T) {
	gen, err := cases.ByID("data_leak").Generate(0.5)
	if err != nil {
		t.Fatal(err)
	}
	built, err := NewStore(gen.Log)
	if err != nil {
		t.Fatal(err)
	}
	recovered := roundTripStore(t, built)
	a := analyzed(t, dataLeakTBQL)
	probes := func(en *Engine) (hunt, mono int) {
		t.Helper()
		_, st, err := en.Execute(nil, a)
		if err != nil {
			t.Fatal(err)
		}
		_, ms, err := en.ExecuteMonolithicSQL(nil, a)
		if err != nil {
			t.Fatal(err)
		}
		return st.Rel.IndexLookups, ms.Rel.IndexLookups
	}
	en := &Engine{Store: recovered}
	if hunt, mono := probes(en); hunt != 0 || mono != 0 {
		t.Fatalf("before the first append: %d hunt and %d monolithic index probes, want scans", hunt, mono)
	}
	appendTarBatch(t, recovered, 9999, "/etc/passwd")
	hunt, mono := probes(en)
	wantHunt, wantMono := probes(&Engine{Store: recovered})
	if wantHunt == 0 || wantMono == 0 {
		t.Fatalf("a fresh engine probed no index (%d hunt, %d monolithic)", wantHunt, wantMono)
	}
	if hunt != wantHunt || mono != wantMono {
		t.Fatalf("after the index build: %d hunt and %d monolithic index probes on the same engine, %d and %d on a fresh one",
			hunt, mono, wantHunt, wantMono)
	}
}

// TestDumpRangeFoldsToDumpImage dumps a growing store as range segments —
// one per append round, each round interning new entities and carrying an
// event that starts before events already stored on its process, so
// adjacency lists must re-sort across ranges — and holds the fold of the
// decoded ranges (and of a list where one range merges several) to the
// full dump byte for byte, then restores it and compares the store.
func TestDumpRangeFoldsToDumpImage(t *testing.T) {
	gen, err := cases.ByID("data_leak").Generate(0.5)
	if err != nil {
		t.Fatal(err)
	}
	events := gen.Log.Events
	third := len(events) / 3
	s, err := NewStore(&audit.Log{Entities: gen.Log.Entities, Events: append([]audit.Event(nil), events[:third]...)})
	if err != nil {
		t.Fatal(err)
	}
	ranges := []*segment.Image{DumpImage(s, true)}
	rest := events[third:]
	for round := 0; len(rest) > 0; round++ {
		n := min(len(rest), 1+len(rest)/3)
		batch := append([]audit.Event(nil), rest[:n]...)
		rest = rest[n:]
		for i := range batch {
			batch[i].ID = 0 // the store numbers appended events
		}
		// One late process across all rounds, so its lists span ranges.
		tbl := s.Log.Entities
		p := tbl.InternProcessOn("hostR", 7000, "/bin/late", "root", "root", "late")
		f := tbl.InternFileOn("hostR", fmt.Sprintf("/tmp/r%d", round), "root", "root")
		early := s.MinTime + int64(round)
		batch = append(batch,
			audit.Event{SubjectID: p.ID, ObjectID: f.ID, Op: audit.OpWrite, StartTime: s.MaxTime + 1, EndTime: s.MaxTime + 2},
			audit.Event{SubjectID: p.ID, ObjectID: f.ID, Op: audit.OpRead, StartTime: early, EndTime: early + 1})
		if err := s.AppendBatch(tbl.Since(ranges[len(ranges)-1].End().Entity), batch); err != nil {
			t.Fatal(err)
		}
		ranges = append(ranges, DumpRange(s, true, ranges[len(ranges)-1].End()))
	}
	want := segment.Encode(DumpImage(s, true))
	for name, list := range map[string][]*segment.Image{
		"every round": ranges,
		"merged tail": {ranges[0], DumpRange(s, true, ranges[1].Base)},
	} {
		decoded := make([]*segment.Image, len(list))
		for i, img := range list {
			if decoded[i], err = segment.DecodeSegment(segment.Encode(img)); err != nil {
				t.Fatalf("%s: decode range %d: %v", name, i, err)
			}
		}
		folded, err := segment.Fold(decoded)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := segment.Encode(folded); !bytes.Equal(got, want) {
			t.Fatalf("%s: folded ranges encode %d bytes, the full dump %d, or the bytes differ", name, len(got), len(want))
		}
		restored, err := OpenStore(folded, folded.EntityCols, folded.Entities, audit.RestoreTable(folded.Entities))
		if err != nil {
			t.Fatalf("%s: open: %v", name, err)
		}
		assertStoresEquivalent(t, s, restored)
		// The hunts above re-sorted the live graph's dirty lists; the lists
		// built from event columns must be in that same canonical order.
		for id := int64(1); id <= int64(s.Graph.NumNodes()); id++ {
			if !reflect.DeepEqual(s.Graph.Out(id), restored.Graph.Out(id)) || !reflect.DeepEqual(s.Graph.In(id), restored.Graph.In(id)) {
				t.Fatalf("%s: node %d adjacency differs from the live graph's", name, id)
			}
		}
	}
	if _, err := OpenStore(ranges[1], ranges[1].EntityCols, ranges[1].Entities, audit.RestoreTable(ranges[1].Entities)); err == nil {
		t.Fatal("OpenStore accepted a range that does not start at zero")
	}
}

// BenchmarkStoreOpenSegment measures the segment-restore path —
// checksum-validated decode plus arena adoption — which must beat
// BenchmarkStoreLoadEngine (reloading the same log through the insert
// paths) by a wide margin: that gap is what bounds recovery time.
func BenchmarkStoreOpenSegment(b *testing.B) {
	gen, err := cases.ByID("data_leak").Generate(1.0)
	if err != nil {
		b.Fatal(err)
	}
	s, err := NewStore(gen.Log)
	if err != nil {
		b.Fatal(err)
	}
	data := segment.Encode(DumpImage(s, true))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		img, err := segment.DecodeSegment(data)
		if err != nil {
			b.Fatal(err)
		}
		table := audit.RestoreTable(img.Entities)
		if _, err := OpenStore(img, img.EntityCols, img.Entities, table); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreOpenFirstAppend times what BenchmarkStoreOpenSegment
// leaves out: the restore defers every index build to the first append,
// so this opens the same data_leak ×1 image and appends one 512-event
// batch (the log's first 512 events, moved past its end) whose first
// event's subject is a new process, so both tables build their indexes:
// the open plus the deferred index builds plus the append.
func BenchmarkStoreOpenFirstAppend(b *testing.B) {
	gen, err := cases.ByID("data_leak").Generate(1.0)
	if err != nil {
		b.Fatal(err)
	}
	s, err := NewStore(gen.Log)
	if err != nil {
		b.Fatal(err)
	}
	data := segment.Encode(DumpImage(s, true))
	shift := s.MaxTime - s.MinTime + 1
	template := append([]audit.Event(nil), gen.Log.Events[:512]...)
	for i := range template {
		template[i].ID = 0
		template[i].StartTime += shift
		template[i].EndTime += shift
	}
	batch := make([]audit.Event, len(template))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		img, err := segment.DecodeSegment(data)
		if err != nil {
			b.Fatal(err)
		}
		table := audit.RestoreTable(img.Entities)
		s2, err := OpenStore(img, img.EntityCols, img.Entities, table)
		if err != nil {
			b.Fatal(err)
		}
		p := table.InternProcessOn("hostZ", 9999, "/bin/tar", "root", "root", "tar cf /tmp/x /etc")
		copy(batch, template)
		batch[0].SubjectID = p.ID
		if err := s2.AppendBatch([]*audit.Entity{p}, batch); err != nil {
			b.Fatal(err)
		}
	}
}
