package segment

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"threatraptor/internal/audit"
)

func testEntities() []*audit.Entity {
	f := audit.NewFileEntity("/etc/passwd", "root", "root")
	f.ID = 1
	p := audit.NewProcessEntity(42, "/usr/bin/scp", "alice", "users", "scp /etc/passwd out")
	p.ID = 2
	p.Proc.Host = "hostA"
	n := audit.NewNetConnEntity("10.0.0.1", 1234, "203.0.113.9", 443, "tcp")
	n.ID = 3
	return []*audit.Entity{f, p, n}
}

func testImage() *Image {
	ents := testEntities()
	return &Image{
		NextEventID: 3,
		MinTime:     100, MaxTime: 200,
		Nodes:    3,
		Entities: ents,
		Events: EventCols{
			ID: []int64{1, 2}, Subject: []int64{2, 2}, Object: []int64{1, 3},
			Start: []int64{100, 150}, End: []int64{110, 200},
			Amount: []int64{4096, 9000}, Failure: []int64{0, 0},
			Op: []uint8{uint8(audit.OpRead), uint8(audit.OpSend)},
		},
		Adj: AdjCSR{
			OutNodes: []int32{1}, OutCounts: []int32{2}, Out: []int32{0, 1},
			InNodes: []int32{0, 2}, InCounts: []int32{1, 1}, In: []int32{0, 1},
		},
	}
}

func TestSegmentRoundTrip(t *testing.T) {
	img := testImage()
	got, err := DecodeSegment(Encode(img))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.NextEventID != 3 || got.MinTime != 100 || got.MaxTime != 200 || got.Nodes != 3 {
		t.Fatalf("meta mismatch: %+v", got)
	}
	if len(got.Entities) != 3 {
		t.Fatalf("entities = %d, want 3", len(got.Entities))
	}
	if got.Entities[1].Proc == nil || got.Entities[1].Proc.ExeName != "/usr/bin/scp" ||
		got.Entities[1].Proc.PID != 42 || got.Entities[1].Proc.Host != "hostA" {
		t.Fatalf("proc entity mismatch: %+v", got.Entities[1])
	}
	if got.Entities[0].Key() != img.Entities[0].Key() || got.Entities[2].Key() != img.Entities[2].Key() {
		t.Fatal("entity keys changed across round trip")
	}
	if len(got.Events.ID) != 2 || got.Events.Op[1] != uint8(audit.OpSend) || got.Events.Amount[0] != 4096 {
		t.Fatalf("event columns mismatch: %+v", got.Events)
	}
	if !reflect.DeepEqual(got.Adj, img.Adj) {
		t.Fatalf("adjacency mismatch: %+v", got.Adj)
	}
	if !reflect.DeepEqual(BuildAdjacency(&img.Events), img.Adj) {
		t.Fatalf("adjacency built from the event columns differs: %+v", BuildAdjacency(&img.Events))
	}
}

func TestSegmentDetectsFlippedBit(t *testing.T) {
	data := Encode(testImage())
	for _, off := range []int{10, len(data) / 2, len(data) - 3} {
		mut := append([]byte(nil), data...)
		mut[off] ^= 0x40
		if _, err := DecodeSegment(mut); err == nil {
			t.Fatalf("flip at %d: decode accepted corrupt segment", off)
		} else if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flip at %d: error %v does not wrap ErrCorrupt", off, err)
		}
	}
}

func TestSegmentTruncatedInput(t *testing.T) {
	data := Encode(testImage())
	for cut := 0; cut < len(data); cut += 7 {
		if _, err := DecodeSegment(data[:cut]); err == nil {
			t.Fatalf("decode accepted truncation at %d", cut)
		}
	}
}

func TestRecordRoundTrip(t *testing.T) {
	ents := testEntities()
	evs := []audit.Event{
		{SubjectID: 2, ObjectID: 1, Op: audit.OpRead, StartTime: -5, EndTime: 10, DataAmount: 4096, FailureCode: 13},
	}
	rec, err := DecodeRecord(EncodeRecord(7, ents, evs))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if rec.Seq != 7 || len(rec.Entities) != 3 || len(rec.Events) != 1 {
		t.Fatalf("record mismatch: %+v", rec)
	}
	if rec.Entities[2].Net.DstPort != 443 || rec.Entities[0].File.Path != "/etc" {
		t.Fatalf("entity fields mismatch")
	}
	ev := rec.Events[0]
	if ev.ID != 0 || ev.StartTime != -5 || ev.FailureCode != 13 || ev.Op != audit.OpRead {
		t.Fatalf("event mismatch: %+v", ev)
	}
}

func writeWAL(t *testing.T, dir string, recs ...[]byte) *WAL {
	t.Helper()
	w, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return w
}

func walRecord(seq uint64) []byte {
	return EncodeRecord(seq, nil, []audit.Event{{SubjectID: 1, ObjectID: 2, Op: audit.OpRead, StartTime: int64(seq)}})
}

func TestWALScanFloorAndDedup(t *testing.T) {
	dir := t.TempDir()
	// seq 1, 2, 2 (retry superset), 3 — floor 1 drops the first.
	writeWAL(t, dir, walRecord(1), walRecord(2), walRecord(2), walRecord(3))
	data, err := ReadWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ScanFrames(data, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 2 || res.Records[0].Seq != 2 || res.Records[1].Seq != 3 {
		t.Fatalf("records = %+v", res.Records)
	}
	if res.TruncateAt != -1 || res.TornTail || res.Dropped != 0 {
		t.Fatalf("clean scan reported damage: %+v", res)
	}
}

func TestWALTornTailTruncates(t *testing.T) {
	dir := t.TempDir()
	writeWAL(t, dir, walRecord(1), walRecord(2))
	path := filepath.Join(dir, WALFileName)
	data, _ := os.ReadFile(path)
	for cut := len(data) - 1; cut > len(data)-10; cut-- {
		res, err := ScanFrames(data[:cut], 0, false)
		if err != nil {
			t.Fatalf("cut %d: torn tail misread as corruption: %v", cut, err)
		}
		if !res.TornTail || len(res.Records) != 1 || res.Records[0].Seq != 1 {
			t.Fatalf("cut %d: res = %+v", cut, res)
		}
		if res.TruncateAt < 0 || res.TruncateAt > int64(cut) {
			t.Fatalf("cut %d: bad TruncateAt %d", cut, res.TruncateAt)
		}
	}
	// Zero-filled tail (preallocated blocks after crash) is also torn.
	padded := append(append([]byte(nil), data...), make([]byte, 64)...)
	res, err := ScanFrames(padded, 0, false)
	if err != nil || !res.TornTail || len(res.Records) != 2 {
		t.Fatalf("zero tail: res=%+v err=%v", res, err)
	}
}

func TestWALMidFileCorruption(t *testing.T) {
	dir := t.TempDir()
	writeWAL(t, dir, walRecord(1), walRecord(2), walRecord(3))
	data, _ := os.ReadFile(filepath.Join(dir, WALFileName))
	mut := append([]byte(nil), data...)
	mut[12] ^= 0x01 // inside frame 1's payload, frames beyond it intact

	if _, err := ScanFrames(mut, 0, false); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corruption not refused: %v", err)
	}
	res, err := ScanFrames(mut, 0, true)
	if err != nil {
		t.Fatalf("recover-corrupt: %v", err)
	}
	if res.Dropped == 0 || res.TruncateAt != 0 || len(res.Records) != 0 {
		t.Fatalf("recover-corrupt res = %+v", res)
	}
}

func TestManifestRoundTripAndCorruption(t *testing.T) {
	dir := t.TempDir()
	if Exists(dir) {
		t.Fatal("Exists on empty dir")
	}
	m := &Manifest{Seq: 3, WALFloor: 17, Shards: 2, Partitioner: "hash",
		Segments: []SegmentRef{{Role: "global", File: SegmentFileName(3, "global")}}}
	if err := WriteManifest(dir, m); err != nil {
		t.Fatal(err)
	}
	if !Exists(dir) {
		t.Fatal("Exists false after write")
	}
	got, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != 3 || got.WALFloor != 17 || got.Shards != 2 || got.Partitioner != "hash" ||
		len(got.Segments) != 1 || got.Segments[0].File != "seg-00000003-global.seg" {
		t.Fatalf("manifest = %+v", got)
	}

	path := filepath.Join(dir, ManifestFileName)
	data, _ := os.ReadFile(path)
	data[len(data)-2] ^= 0x10
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadManifest(dir); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt manifest not refused: %v", err)
	}
}

func TestRemoveStale(t *testing.T) {
	dir := t.TempDir()
	live := SegmentFileName(2, "global")
	stale := SegmentFileName(1, "global")
	for _, n := range []string{live, stale, ManifestFileName + ".tmp", "unrelated.txt"} {
		if err := os.WriteFile(filepath.Join(dir, n), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	m := &Manifest{Segments: []SegmentRef{{Role: "global", File: live}}}
	if err := RemoveStale(dir, m); err != nil {
		t.Fatal(err)
	}
	for n, want := range map[string]bool{live: true, stale: false, ManifestFileName + ".tmp": false, "unrelated.txt": true} {
		_, err := os.Stat(filepath.Join(dir, n))
		if got := err == nil; got != want {
			t.Errorf("%s present=%v, want %v", n, got, want)
		}
	}
}
