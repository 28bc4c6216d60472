package segment

import (
	"errors"
	"testing"

	"threatraptor/internal/audit"
)

// FuzzSegmentOpen throws arbitrary bytes at the segment decoder and
// asserts its crash-safety contract: never panic, never allocate from
// unvalidated counts, and either return a typed error or an image whose
// cross-section invariants hold (column lengths agree, adjacency offsets
// in range). Seeds are a valid encoding plus truncated, bit-flipped, and
// garbage mutations, then range segments (a later batch's delta, a
// merged range) and a version-1 full image.
func FuzzSegmentOpen(f *testing.F) {
	valid := Encode(testImage())
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:7])
	flip := append([]byte(nil), valid...)
	flip[len(flip)/3] ^= 0x80
	f.Add(flip)
	f.Add([]byte("TSEG"))
	f.Add([]byte{})
	full, parts := rangeFixture(5, 5)
	f.Add(Encode(parts[3]))
	f.Add(Encode(merged(full, parts, 1, 4)))
	f.Add(encodeV1(full))
	f.Fuzz(func(t *testing.T, data []byte) {
		img, err := DecodeSegment(data)
		if err != nil {
			if img != nil {
				t.Fatal("error with non-nil image")
			}
			return
		}
		n := len(img.Events.ID)
		for _, col := range [][]int64{img.Events.Subject, img.Events.Object, img.Events.Start,
			img.Events.End, img.Events.Amount, img.Events.Failure} {
			if len(col) != n {
				t.Fatalf("event column length %d, want %d", len(col), n)
			}
		}
		if len(img.Events.Op) != n {
			t.Fatalf("op column length %d, want %d", len(img.Events.Op), n)
		}
		for _, dir := range img.Adj.dirs() {
			if len(dir.nodes) != len(dir.counts) {
				t.Fatalf("adjacency lists %d nodes, %d counts", len(dir.nodes), len(dir.counts))
			}
			for _, nd := range dir.nodes {
				if nd < 0 || int(nd) >= img.Nodes {
					t.Fatalf("adjacency node %d outside %d nodes", nd, img.Nodes)
				}
			}
			for _, ei := range dir.flat {
				if ei < 0 || int(ei) >= n {
					t.Fatalf("edge offset %d outside %d events", ei, n)
				}
			}
		}
		if img.Entities != nil && len(img.Entities) != len(img.EntityCols.Kind) {
			t.Fatal("entity slice and columns disagree")
		}
		if img.Base.Event > img.NextEventID || img.End().Entity > int64(img.Nodes) {
			t.Fatalf("range %+v..%+v outside the frontier", img.Base, img.End())
		}
		// Any image decode accepts is a one-segment live list: Fold takes
		// it when it starts at zero and refuses it with a typed error when
		// it does not.
		if _, err := Fold([]*Image{img}); (err == nil) != (img.Base == Base{}) {
			t.Fatalf("Fold of a lone range from %+v: %v", img.Base, err)
		}
	})
}

// FuzzWALScan throws arbitrary bytes at the WAL frame scanner (and,
// transitively, the record decoder) under both corruption policies and
// asserts: never panic, strict mode yields either a clean scan or an
// error wrapping ErrCorrupt, and recover-corrupt mode never fails — it
// must always degrade to a consistent prefix with a sane truncation
// offset. Seeds are real frame sequences plus torn and corrupt variants.
func FuzzWALScan(f *testing.F) {
	dir := f.TempDir()
	w, err := OpenWAL(dir)
	if err != nil {
		f.Fatal(err)
	}
	ents := testEntities()
	for _, e := range ents {
		e.ID = 0
	}
	frames := [][]byte{
		EncodeRecord(1, ents, []audit.Event{{SubjectID: 2, ObjectID: 1, Op: audit.OpRead, StartTime: 5, EndTime: 9}}),
		EncodeRecord(2, nil, []audit.Event{{SubjectID: 2, ObjectID: 3, Op: audit.OpSend, DataAmount: 1 << 20}}),
		EncodeRecord(2, nil, nil), // equal-seq retry
		EncodeRecord(3, nil, []audit.Event{{SubjectID: 1, ObjectID: 2, Op: audit.OpWrite}}),
	}
	for _, fr := range frames {
		if err := w.Append(fr); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	valid, err := ReadWAL(dir)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid, uint64(0))
	f.Add(valid, uint64(2))
	f.Add(valid[:len(valid)-5], uint64(0)) // torn tail
	flip := append([]byte(nil), valid...)
	flip[10] ^= 0x04 // mid-file corruption
	f.Add(flip, uint64(0))
	f.Add(append(append([]byte(nil), valid...), make([]byte, 32)...), uint64(0)) // zero tail
	f.Add([]byte{}, uint64(0))
	f.Fuzz(func(t *testing.T, data []byte, floor uint64) {
		res, err := ScanFrames(data, floor, false)
		if err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("strict scan error does not wrap ErrCorrupt: %v", err)
		}
		if err == nil {
			checkScan(t, res, data, floor)
		}
		// Degraded mode must always produce a usable prefix.
		res, err = ScanFrames(data, floor, true)
		if err != nil {
			t.Fatalf("recover-corrupt scan failed: %v", err)
		}
		checkScan(t, res, data, floor)
	})
}

func checkScan(t *testing.T, res ScanResult, data []byte, floor uint64) {
	t.Helper()
	if res.TruncateAt < -1 || res.TruncateAt > int64(len(data)) {
		t.Fatalf("TruncateAt %d outside [-1, %d]", res.TruncateAt, len(data))
	}
	prev := floor
	for _, rec := range res.Records {
		if rec.Seq <= prev {
			t.Fatalf("record seq %d not above %d", rec.Seq, prev)
		}
		prev = rec.Seq
	}
}
