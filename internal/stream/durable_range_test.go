package stream

// Range-segment tests for the durable session: crashes inside a merge,
// the failed-flush retry cadence, the tiered live list over many flushes,
// recovery by fold against a single full segment, and data directories
// written before segments covered ranges.

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"threatraptor/internal/audit"
	"threatraptor/internal/engine"
	"threatraptor/internal/faultinject"
	"threatraptor/internal/segment"
)

type opener func(testing.TB, Config) (*Session, RecoveryStats, error)

func openShards2(tb testing.TB, cfg Config) (*Session, RecoveryStats, error) {
	return openSharded(tb, cfg, 2)
}

var durableBackends = []struct {
	name string
	open opener
}{{"single", openSingle}, {"shards2", openShards2}}

func feedAll(t testing.TB, sess *Session, recs []audit.Record) {
	t.Helper()
	for _, r := range recs {
		if err := feedOne(sess, r); err != nil {
			t.Fatal(err)
		}
	}
}

// firstMergeRecord feeds recs through a durable session that never
// crashes and returns the index of the record whose flush first merged:
// some role's live list did not grow by the one segment a delta adds.
func firstMergeRecord(t *testing.T, open opener, recs []audit.Record) int {
	t.Helper()
	sess, _, err := open(t, durableConfig(t, t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	for i, r := range recs {
		gen := sess.dur.manifestSeq
		before := make([]int, len(sess.dur.live))
		for role, live := range sess.dur.live {
			before[role] = len(live)
		}
		if err := feedOne(sess, r); err != nil {
			t.Fatal(err)
		}
		if sess.dur.manifestSeq == gen {
			continue
		}
		for role, live := range sess.dur.live {
			if len(live) <= before[role] {
				return i
			}
		}
	}
	t.Fatal("no flush merged; the fixture must reach a merge")
	return 0
}

// TestDurableCrashMidMerge crashes the first merging flush at its last
// segment write (the other roles' merged files are already on disk) and
// at its manifest rename. Recovery must come back from the pre-merge live
// lists plus the WAL, ignore the orphaned files, equal the never-crashed
// oracle, and keep flushing and merging from there.
func TestDurableCrashMidMerge(t *testing.T) {
	defer faultinject.Disarm()
	recs := chaosRecords(40)
	oracle := oracleSession(t, recs)
	for _, b := range durableBackends {
		m := firstMergeRecord(t, b.open, recs)
		for _, point := range []string{segment.FaultSegmentFlush, segment.FaultManifestRename} {
			t.Run(b.name+"/"+point, func(t *testing.T) {
				cfg := durableConfig(t, t.TempDir())
				sess, _, err := b.open(t, cfg)
				if err != nil {
					t.Fatal(err)
				}
				feedAll(t, sess, recs[:m])
				hit := 1
				if point == segment.FaultSegmentFlush {
					hit = len(sess.dur.roles)
				}
				faultinject.Arm(faultinject.Plan{point: {Hits: []int{hit}, Mode: faultinject.ModePanic}})
				crashed := func() (crashed bool) {
					defer func() { crashed = recover() != nil }()
					_ = feedOne(sess, recs[m])
					return
				}()
				faultinject.Disarm()
				if !crashed {
					t.Fatal("the scheduled crash never fired")
				}
				if !flushMerges(sess) {
					t.Fatal("the crashed flush was not a merge")
				}
				rec, rs, err := b.open(t, cfg)
				if err != nil {
					t.Fatalf("recovery after a crash mid-merge: %v", err)
				}
				if !rs.Recovered || rs.ReplayedRecords == 0 {
					t.Fatalf("expected the pre-merge segments plus WAL replay, got %+v", rs)
				}
				assertRecoveredEquals(t, rec, oracleSession(t, recs[:m+1]))
				feedAll(t, rec, recs[m+1:])
				if err := rec.Close(); err != nil {
					t.Fatal(err)
				}
				final, _, err := b.open(t, cfg)
				if err != nil {
					t.Fatal(err)
				}
				assertRecoveredEquals(t, final, oracle)
				final.Close()
			})
		}
	}
}

// TestDurableFailedFlushRetriesAfterSegmentEvery pins the retry cadence:
// with every segment write failing, 12 batches at SegmentEvery 4 attempt
// 3 flushes, not one per batch from the first failure on. The WAL still
// covers everything, so a clean close persists the whole store.
func TestDurableFailedFlushRetriesAfterSegmentEvery(t *testing.T) {
	defer faultinject.Disarm()
	cfg := durableConfig(t, t.TempDir())
	var attempts []FlushStats
	cfg.Durability.OnSegmentFlush = func(st FlushStats) { attempts = append(attempts, st) }
	sess, _, err := openSingle(t, cfg)
	if err != nil {
		t.Fatal(err)
	}
	hits := make([]int, 64)
	for i := range hits {
		hits[i] = i + 1
	}
	faultinject.Arm(faultinject.Plan{segment.FaultSegmentFlush: {Hits: hits, Mode: faultinject.ModeError}})
	recs := chaosRecords(12)
	feedAll(t, sess, recs)
	faultinject.Disarm()
	if len(attempts) != 3 {
		t.Fatalf("%d flush attempts over 12 batches at SegmentEvery 4, want 3", len(attempts))
	}
	for _, st := range attempts {
		if st.Err == nil {
			t.Fatalf("flush succeeded under an armed write fault: %+v", st)
		}
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	rec, rs, err := openSingle(t, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rs.ReplayedRecords != 0 {
		t.Fatalf("clean close after failed flushes left %d WAL records to replay", rs.ReplayedRecords)
	}
	assertRecoveredEquals(t, rec, oracleSession(t, recs))
	rec.Close()
}

// TestDurableLiveSegmentsStayTiered flushes uneven deltas 200+ times and
// holds every role's live list to the size-tier policy after each flush:
// tiers never rise from older to newer segments, and no tier holds more
// than mergeFanIn-1 segments. The final live set still recovers the
// store a non-durable session builds from the same batches.
func TestDurableLiveSegmentsStayTiered(t *testing.T) {
	cfg := durableConfig(t, t.TempDir())
	cfg.Durability.SegmentEvery = 1
	cfg.Durability.Fsync = segment.FsyncOff
	sess, _, err := openShards2(t, cfg)
	if err != nil {
		t.Fatal(err)
	}
	oracle, _ := emptySession(t, Config{Tactical: cfg.Tactical})
	rng := rand.New(rand.NewSource(1))
	recs := chaosRecords(4200)
	fed := 0
	for sess.dur.manifestSeq < 200 {
		chunk := recs[fed : fed+1+rng.Intn(20)]
		fed += len(chunk)
		for _, s := range []*Session{sess, oracle} {
			if _, err := s.IngestRecords(chunk); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		for role, live := range sess.dur.live {
			perTier := map[int]int{}
			for i, sg := range live {
				tr := tier(sg.rows)
				if perTier[tr]++; perTier[tr] > mergeFanIn-1 {
					t.Fatalf("flush %d: role %s holds %d segments of tier %d", sess.dur.manifestSeq, sess.dur.roles[role], perTier[tr], tr)
				}
				if i > 0 && tr > tier(live[i-1].rows) {
					t.Fatalf("flush %d: role %s tiers rise from segment %d to %d", sess.dur.manifestSeq, sess.dur.roles[role], i-1, i)
				}
			}
		}
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	rec, rs, err := openShards2(t, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d flushes of %d records: %d live segment files", rs.ManifestSeq, fed, rs.Segments)
	assertRecoveredEquals(t, rec, oracle)
	rec.Close()
}

// TestDurableFoldEquivalence: a store recovered from a base, deltas and
// merges is the store a single full segment restores. For every role the
// recovered image encodes byte-identically to the never-recovered one;
// for the single store, a directory holding the oracle's store as one
// full segment recovers to the same encoding, event log and hunt rows.
func TestDurableFoldEquivalence(t *testing.T) {
	recs := chaosRecords(40)
	oracle := oracleSession(t, recs)
	var folded *Session
	for _, b := range durableBackends {
		t.Run(b.name, func(t *testing.T) {
			cfg := durableConfig(t, t.TempDir())
			sess, _, err := b.open(t, cfg)
			if err != nil {
				t.Fatal(err)
			}
			feedAll(t, sess, recs)
			want := make([][]byte, len(sess.dur.roles))
			for r := range want {
				want[r] = segment.Encode(sess.dur.backend.DumpRange(r, segment.Base{}))
			}
			if err := sess.Close(); err != nil {
				t.Fatal(err)
			}
			if global := sess.dur.live[0]; len(global) < 2 || int64(len(global)) >= sess.dur.manifestSeq {
				t.Fatalf("global live list %d segments after %d flushes: want a base, deltas and a merge", len(global), sess.dur.manifestSeq)
			}
			rec, rs, err := b.open(t, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if rs.ReplayedRecords != 0 {
				t.Fatalf("clean close replayed %d records", rs.ReplayedRecords)
			}
			for r := range want {
				if got := segment.Encode(rec.dur.backend.DumpRange(r, segment.Base{})); !bytes.Equal(got, want[r]) {
					t.Fatalf("role %s: folded store encodes differently from the store that wrote it", rec.dur.roles[r])
				}
			}
			assertRecoveredEquals(t, rec, oracle)
			if b.name == "single" {
				folded = rec
			}
		})
	}

	dir := t.TempDir()
	name := segment.SegmentFileName(1, segment.RoleGlobal)
	if _, err := segment.WriteSegment(dir, name, engine.DumpImage(oracle.Store(), true)); err != nil {
		t.Fatal(err)
	}
	m := &segment.Manifest{Seq: 1, Segments: []segment.SegmentRef{{Role: segment.RoleGlobal, File: name}}}
	if err := segment.WriteManifest(dir, m); err != nil {
		t.Fatal(err)
	}
	whole, _, err := openSingle(t, durableConfig(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(segment.Encode(engine.DumpImage(folded.Store(), true)), segment.Encode(engine.DumpImage(whole.Store(), true))) {
		t.Fatal("store folded from range segments encodes differently from one restored from a single full segment")
	}
	if !reflect.DeepEqual(folded.Store().Log.Events, whole.Store().Log.Events) {
		t.Fatal("event logs differ")
	}
	if got, want := sessionRows(t, folded), sessionRows(t, whole); !reflect.DeepEqual(got, want) {
		t.Fatalf("hunt rows differ:\nfolded %v\nwhole  %v", got, want)
	}
	folded.Close()
	whole.Close()
}

// TestDurableOpensVersion1Dir opens data directories written before
// segments covered ranges (testdata: one full version-1 segment per role
// plus a WAL tail, from 10 chaos records at SegmentEvery 4). The store
// must recover, take range segments on top of the version-1 base, and
// recover again to the oracle.
func TestDurableOpensVersion1Dir(t *testing.T) {
	recs := chaosRecords(20)
	for _, b := range durableBackends {
		t.Run(b.name, func(t *testing.T) {
			dir := t.TempDir()
			copyDir(t, filepath.Join("testdata", "v1-"+b.name), dir)
			cfg := durableConfig(t, dir)
			sess, rs, err := b.open(t, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !rs.Recovered || rs.ReplayedRecords == 0 {
				t.Fatalf("expected a version-1 segment plus WAL replay, got %+v", rs)
			}
			assertRecoveredEquals(t, sess, oracleSession(t, recs[:10]))
			feedAll(t, sess, recs[10:])
			if err := sess.Close(); err != nil {
				t.Fatal(err)
			}
			rec, _, err := b.open(t, cfg)
			if err != nil {
				t.Fatal(err)
			}
			assertRecoveredEquals(t, rec, oracleSession(t, recs))
			rec.Close()
		})
	}
}

func copyDir(t *testing.T, from, to string) {
	t.Helper()
	ents, err := os.ReadDir(from)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(from, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(to, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
