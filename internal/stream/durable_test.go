package stream

// Crash-safety tests for the durable session: clean-restart round trips,
// randomized fault-injected crash/recovery equivalence (single store and
// sharded), torn-tail truncation, and mid-file corruption semantics.
//
// The chaos harness models a crash as a ModePanic fault at one of the
// durability fault points: the panic unwinds out of the ingest call, the
// session is abandoned exactly as a killed process would leave it (WAL
// file handle open, in-memory state gone), and recovery opens a brand-new
// session from the directory. Records are crafted so one record seals as
// exactly one event — the recovered store's event count tells the driver
// where to resume feeding, and the final store must be equivalent to a
// never-crashed oracle session fed the full record sequence.

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"threatraptor/internal/audit"
	"threatraptor/internal/engine"
	"threatraptor/internal/faultinject"
	"threatraptor/internal/segment"
	"threatraptor/internal/shard"
	"threatraptor/internal/tactical"
)

// chaosQuery joins the crafted read and write events through a shared
// process, so recovered relational rows, graph adjacency, and the entity
// table all participate in the equivalence hunt.
const chaosQuery = `proc p1 read file f1["%/etc/conf%"] as evt1
proc p1 write file f2["%/tmp/out%"] as evt2
with evt1 before evt2
return distinct p1, f1, f2`

// chaosRecords crafts n records that each seal as exactly one reduced
// event: distinct objects defeat reduction merging, and 2 s spacing keeps
// records well apart. Subjects cycle over 7 processes so some process
// both reads /etc/conf* and writes /tmp/out*, giving chaosQuery rows.
func chaosRecords(n int) []audit.Record {
	recs := make([]audit.Record, n)
	base := int64(1_700_000_000_000_000)
	for i := range recs {
		r := audit.Record{
			Time: base + int64(i)*2_000_000,
			PID:  100 + i%7, Exe: fmt.Sprintf("/usr/bin/tool%d", i%7),
			User: "alice", Group: "users",
		}
		switch i % 3 {
		case 0:
			r.Call, r.FD, r.Path, r.Bytes = audit.SysRead, audit.FDFile, fmt.Sprintf("/etc/conf%d", i), 64
		case 1:
			r.Call, r.FD, r.Path, r.Bytes = audit.SysWrite, audit.FDFile, fmt.Sprintf("/tmp/out%d", i), 128
		default:
			r.Call, r.FD = audit.SysSendto, audit.FDIPv4
			r.SrcIP, r.SrcPort = "10.0.0.5", 40000+i
			r.DstIP, r.DstPort, r.Proto = fmt.Sprintf("203.0.113.%d", i%250+1), 443, "tcp"
			r.Bytes = 1 << 10
		}
		recs[i] = r
	}
	return recs
}

// durableConfig is the chaos tests' session config: tiny flush cadence so
// every run crosses several segment generations, tactical layer on so
// incident state participates in the equivalence.
func durableConfig(t testing.TB, dir string) Config {
	cfg := Config{Tactical: tactical.Config{Rules: chaosRules(t)}}
	cfg.Durability = Durability{Dir: dir, SegmentEvery: 4}
	return cfg
}

// openSingle opens a durable session over the classic single store.
func openSingle(t testing.TB, cfg Config) (*Session, RecoveryStats, error) {
	t.Helper()
	return OpenDurable(cfg,
		func() (DurableBackend, error) {
			store, err := engine.NewStore(audit.NewLog())
			if err != nil {
				return nil, err
			}
			return NewBackend(store, &engine.Engine{Store: store}), nil
		},
		func(imgs []segment.RoleImage, topo segment.Topology) (DurableBackend, error) {
			if topo.Shards != 0 {
				return nil, fmt.Errorf("unexpected sharded topology %+v", topo)
			}
			gimg := imgs[0].Image
			store, err := engine.OpenStore(gimg, gimg.EntityCols, gimg.Entities, audit.RestoreTable(gimg.Entities))
			if err != nil {
				return nil, err
			}
			return NewBackend(store, &engine.Engine{Store: store}), nil
		})
}

// openSharded opens a durable session over an n-way sharded store. The
// chaos records start 2 s apart, so 2-second slices deal them round-robin
// across the partitions.
func openSharded(t testing.TB, cfg Config, n int) (*Session, RecoveryStats, error) {
	t.Helper()
	const sliceUS = 2_000_000
	return OpenDurable(cfg,
		func() (DurableBackend, error) {
			return shard.New(audit.NewLog(), n, sliceUS)
		},
		func(imgs []segment.RoleImage, topo segment.Topology) (DurableBackend, error) {
			if topo.Shards != n || topo.PartitionBy != shard.SliceName(sliceUS) {
				return nil, fmt.Errorf("recovered topology %+v, want %d shards by %s", topo, n, shard.SliceName(sliceUS))
			}
			return shard.OpenImages(imgs, topo.Shards, sliceUS)
		})
}

// oracleSession builds the never-crashed reference: a non-durable session
// fed the same records through the same one-record-per-batch protocol.
func oracleSession(t testing.TB, recs []audit.Record) *Session {
	t.Helper()
	sess, _ := emptySession(t, Config{Tactical: tactical.Config{Rules: chaosRules(t)}})
	for i := range recs {
		if err := feedOne(sess, recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	return sess
}

// feedOne ingests one record and flushes it into its own sealed batch.
func feedOne(sess *Session, rec audit.Record) error {
	if _, err := sess.IngestRecords([]audit.Record{rec}); err != nil {
		return err
	}
	_, err := sess.Flush()
	return err
}

// sessionHunt compiles src on the engine of the session's backend and
// executes it there, scatter-gather on a sharded backend.
func sessionHunt(sess *Session, src string) (*engine.Result, engine.Stats, error) {
	switch b := sess.backend.(type) {
	case *shard.Store:
		a, err := b.GlobalEngine().Compile(src)
		if err != nil {
			return nil, engine.Stats{}, err
		}
		return b.Execute(nil, a)
	default:
		return b.(engineBackend).en.Hunt(nil, src)
	}
}

// sessionRows executes the chaos query on a session and returns its rows
// joined and sorted.
func sessionRows(t testing.TB, sess *Session) []string {
	t.Helper()
	res, _, err := sessionHunt(sess, chaosQuery)
	if err != nil {
		t.Fatal(err)
	}
	var rows []string
	for _, row := range res.Set.Strings() {
		rows = append(rows, strings.Join(row, "|"))
	}
	sort.Strings(rows)
	return rows
}

// assertRecoveredEquals pins full store equivalence between a recovered
// session and the never-crashed oracle fed the same records: the event
// log (IDs, times, amounts — everything), the ID frontier, the entity
// table, hunt results, and the tactical incident ranking.
func assertRecoveredEquals(t *testing.T, sess, oracle *Session) {
	t.Helper()
	got, want := sess.Store(), oracle.Store()
	if !reflect.DeepEqual(got.Log.Events, want.Log.Events) {
		t.Fatalf("recovered event log diverges: %d events vs %d", len(got.Log.Events), len(want.Log.Events))
	}
	if got.NextEventID() != want.NextEventID() {
		t.Fatalf("recovered NextEventID %d, oracle %d", got.NextEventID(), want.NextEventID())
	}
	if gn, on := got.Log.Entities.Len(), want.Log.Entities.Len(); gn != on {
		t.Fatalf("recovered %d entities, oracle %d", gn, on)
	}
	for _, e := range want.Log.Entities.Dense() {
		ge := got.Log.Entities.Lookup(e.ID)
		if ge == nil || ge.Key() != e.Key() {
			t.Fatalf("entity %d diverges after recovery", e.ID)
		}
	}
	wantRows := sessionRows(t, oracle)
	if len(wantRows) == 0 {
		t.Fatal("oracle hunt returned no rows; equivalence would be vacuous")
	}
	if rows := sessionRows(t, sess); !reflect.DeepEqual(rows, wantRows) {
		t.Fatalf("hunt rows diverge after recovery:\ngot  %v\nwant %v", rows, wantRows)
	}
	wantInc, gotInc := incidentJSON(t, oracle), incidentJSON(t, sess)
	if !bytes.Equal(gotInc, wantInc) {
		t.Fatalf("incident ranking diverges after recovery:\ngot  %s\nwant %s", clipStr(gotInc), clipStr(wantInc))
	}
}

func TestDurableCleanRestart(t *testing.T) {
	dir := t.TempDir()
	recs := chaosRecords(30)
	cfg := durableConfig(t, dir)

	sess, rs, err := openSingle(t, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Recovered {
		t.Fatalf("fresh directory reported recovery: %+v", rs)
	}
	for _, r := range recs[:20] {
		if err := feedOne(sess, r); err != nil {
			t.Fatal(err)
		}
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}

	// Clean shutdown flushed a final generation: recovery restores from
	// segments alone, with nothing to replay.
	sess2, rs2, err := openSingle(t, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rs2.Recovered || rs2.ReplayedRecords != 0 || rs2.TornTailTruncated {
		t.Fatalf("clean restart stats: %+v", rs2)
	}
	assertRecoveredEquals(t, sess2, oracleSession(t, recs[:20]))

	// Warm start: the recovered session keeps ingesting where the old one
	// stopped, and a second restart sees the union.
	for _, r := range recs[20:] {
		if err := feedOne(sess2, r); err != nil {
			t.Fatal(err)
		}
	}
	if err := sess2.Close(); err != nil {
		t.Fatal(err)
	}
	sess3, _, err := openSingle(t, cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertRecoveredEquals(t, sess3, oracleSession(t, recs))
	sess3.Close()
}

// crashPoints are the fault points a chaos run schedules ingest-path
// panics at; FaultRecoveryRead is exercised separately during reopen.
var crashPoints = []string{
	segment.FaultWALAppend,
	segment.FaultWALSync,
	segment.FaultSegmentFlush,
	segment.FaultManifestRename,
}

// flushMerges reports whether a flush of sess's current state merges —
// whether some role's new segment replaces live segments. A crash inside
// a flush leaves the store and the live lists exactly as that flush saw
// them, so asked after the crash it classifies the flush that died.
func flushMerges(sess *Session) bool {
	for r := range sess.dur.roles {
		if _, k := sess.dur.nextImage(r); k > 0 {
			return true
		}
	}
	return false
}

// chaosCrashes counts where a chaos run's flush-point crashes landed.
type chaosCrashes struct{ inDelta, inMerge int }

// chaosRun drives one full crash/recovery schedule: feed records one at a
// time, crash at randomized fault points (ModePanic), recover from the
// directory, resume from the recovered event count, and finally compare
// against the never-crashed oracle. open is the session factory, so the
// same harness runs the single and sharded backends. Records that will
// trigger a flush draw flush-point crashes more often, so crashes land
// inside both delta flushes and merges; the counts are returned.
func chaosRun(t *testing.T, seed int64, open func(testing.TB, Config) (*Session, RecoveryStats, error)) chaosCrashes {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	dir := t.TempDir()
	cfg := durableConfig(t, dir)
	recs := chaosRecords(40)
	oracle := oracleSession(t, recs)

	sess, _, err := open(t, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var landed chaosCrashes
	crashes := 0
	for i := 0; i < len(recs); {
		flushNext := sess.dur.sinceFlush == cfg.Durability.SegmentEvery-1
		point := ""
		if crashes < 6 && (rng.Intn(3) == 0 || flushNext && rng.Intn(2) == 0) {
			// Schedule a crash at a random upcoming hit of a random point.
			// Each fed record appends (and under FsyncAlways syncs) up to
			// two WAL frames, and flush batches write several segments, so
			// small hit numbers land within the next record or two.
			point = crashPoints[rng.Intn(len(crashPoints))]
			if flushNext && rng.Intn(2) == 0 {
				point = []string{segment.FaultSegmentFlush, segment.FaultManifestRename}[rng.Intn(2)]
			}
			faultinject.Arm(faultinject.Plan{point: {Hits: []int{1 + rng.Intn(3)}, Mode: faultinject.ModePanic}})
		}
		panicked := func() (panicked bool) {
			defer func() {
				if recover() != nil {
					panicked = true
				}
			}()
			if err := feedOne(sess, recs[i]); err != nil {
				// No error-mode faults are scheduled here; anything
				// surfacing is a real bug.
				t.Errorf("record %d: %v", i, err)
			}
			return false
		}()
		faultinject.Disarm()
		if !panicked {
			i++
			continue
		}
		// "Crash": abandon the wedged session and recover from disk.
		// Sometimes a recovery-read crash is scheduled first — the open
		// must fail (or panic), and the retry with the fault disarmed must
		// succeed from the same directory.
		crashes++
		if point == segment.FaultSegmentFlush || point == segment.FaultManifestRename {
			if flushMerges(sess) {
				landed.inMerge++
			} else {
				landed.inDelta++
			}
		}
		if rng.Intn(3) == 0 {
			faultinject.Arm(faultinject.Plan{segment.FaultRecoveryRead: {Hits: []int{1}, Mode: faultinject.ModePanic}})
			func() {
				defer func() { recover() }()
				if s2, _, err := open(t, cfg); err == nil {
					s2.Close()
					t.Error("recovery succeeded under an armed recovery-read panic")
				}
			}()
			faultinject.Disarm()
		}
		recovered, rs, err := open(t, cfg)
		if err != nil {
			t.Fatalf("recovery after crash %d: %v", crashes, err)
		}
		if rs.DroppedFrames != 0 {
			t.Fatalf("crash recovery dropped frames without corruption: %+v", rs)
		}
		sess = recovered
		// One record seals as one event, so the event count is the replay
		// frontier: resume feeding right after it.
		i = int(sess.Store().NextEventID() - 1)
	}
	if _, err := sess.Flush(); err != nil {
		t.Fatal(err)
	}
	assertRecoveredEquals(t, sess, oracle)
	if crashes == 0 {
		t.Log("schedule produced no crashes; equivalence still checked")
	}
	sess.Close()
	return landed
}

// requireFlushCrashes asserts the seeded schedules crashed inside at
// least one delta flush and one merge.
func requireFlushCrashes(t *testing.T, total chaosCrashes) {
	t.Helper()
	t.Logf("flush-point crashes: %d inside delta flushes, %d inside merges", total.inDelta, total.inMerge)
	if total.inDelta == 0 || total.inMerge == 0 {
		t.Fatalf("crashes landed in %d delta flushes and %d merges; the schedules must hit both", total.inDelta, total.inMerge)
	}
}

func TestDurableChaosRestartEquivalence(t *testing.T) {
	defer faultinject.Disarm()
	var total chaosCrashes
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			c := chaosRun(t, seed, openSingle)
			total.inDelta += c.inDelta
			total.inMerge += c.inMerge
		})
	}
	requireFlushCrashes(t, total)
}

func TestDurableChaosShardedEquivalence(t *testing.T) {
	defer faultinject.Disarm()
	var total chaosCrashes
	for _, n := range []int{2, 4} {
		n := n
		t.Run(fmt.Sprintf("shards%d", n), func(t *testing.T) {
			c := chaosRun(t, int64(100+n), func(tb testing.TB, cfg Config) (*Session, RecoveryStats, error) {
				return openSharded(tb, cfg, n)
			})
			total.inDelta += c.inDelta
			total.inMerge += c.inMerge
		})
	}
	requireFlushCrashes(t, total)
}

// TestDurableShardedPartialFlushRollsBack pins fleet-wide flush
// atomicity: a partition segment write that fails mid-generation must
// leave the previous manifest live, and recovery must restore the
// previous generation plus the full WAL tail — nothing from the aborted
// generation.
func TestDurableShardedPartialFlushRollsBack(t *testing.T) {
	defer faultinject.Disarm()
	dir := t.TempDir()
	cfg := durableConfig(t, dir)
	recs := chaosRecords(8)

	sess, _, err := openSharded(t, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	var flushErrs int
	sess.dur.cfg.OnSegmentFlush = func(st FlushStats) {
		if st.Err != nil {
			flushErrs++
		}
	}
	// Each flush writes global + p0 + p1 (three segment-write hits). The
	// first flush (after 4 batches) must succeed untouched; fail the
	// second flush's p1 write — hit 6.
	faultinject.Arm(faultinject.Plan{segment.FaultSegmentFlush: {Hits: []int{6}, Mode: faultinject.ModeError}})
	for _, r := range recs {
		if err := feedOne(sess, r); err != nil {
			t.Fatal(err)
		}
	}
	faultinject.Disarm()
	if flushErrs == 0 {
		t.Fatal("partial-flush fault never fired")
	}
	// Abandon without Close (a Close would flush a clean generation);
	// recovery must rebuild generation 1 plus the WAL tail = all 8
	// records, with the aborted generation's files ignored.
	recovered, rs, err := openSharded(t, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !rs.Recovered || rs.ReplayedRecords == 0 {
		t.Fatalf("expected segment restore plus WAL replay, got %+v", rs)
	}
	assertRecoveredEquals(t, recovered, oracleSession(t, recs))
	recovered.Close()
}

// writeWALPrefix builds a data dir whose WAL holds the given records with
// no manifest — the crash-before-first-flush shape the torn-tail and
// corruption tests mutate.
func writeWALPrefix(t *testing.T, dir string, recs []audit.Record) {
	t.Helper()
	cfg := Config{}
	cfg.Durability = Durability{Dir: dir, SegmentEvery: 1 << 30} // never flush
	sess, _, err := openSingle(t, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := feedOne(sess, r); err != nil {
			t.Fatal(err)
		}
	}
	// Abandon without Close so the WAL keeps every frame and no segment
	// generation exists.
	if err := sess.dur.wal.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestDurableTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	recs := chaosRecords(9)
	writeWALPrefix(t, dir, recs)

	// Cut the final frame short: the classic crash-mid-append shape. The
	// torn frame is the last record's sealed event (its entity frame
	// landed separately, at ingest time).
	path := filepath.Join(dir, segment.WALFileName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	cfg := durableConfig(t, dir)
	sess, rs, err := openSingle(t, cfg)
	if err != nil {
		t.Fatalf("torn tail must recover silently, got %v", err)
	}
	if !rs.TornTailTruncated || rs.DroppedFrames != 0 {
		t.Fatalf("torn-tail stats: %+v", rs)
	}
	if got, want := int(sess.Store().NextEventID()-1), len(recs)-1; got != want {
		t.Fatalf("recovered %d events, want %d", got, want)
	}
	// Everything before the torn frame survived: the event log matches
	// the oracle over the surviving prefix (the last record's entities
	// were durable on their own, so only events are compared).
	oracle := oracleSession(t, recs[:len(recs)-1])
	if !reflect.DeepEqual(sess.Store().Log.Events, oracle.Store().Log.Events) {
		t.Fatal("surviving prefix diverges from oracle after torn-tail truncation")
	}
	if got, want := sessionRows(t, sess), sessionRows(t, oracle); !reflect.DeepEqual(got, want) {
		t.Fatalf("hunt rows diverge after torn-tail truncation:\ngot  %v\nwant %v", got, want)
	}
	// The truncated WAL is consistent: ingestion continues and a restart
	// replays cleanly.
	if err := feedOne(sess, recs[len(recs)-1]); err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	sess2, _, err := openSingle(t, cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertRecoveredEquals(t, sess2, oracleSession(t, recs))
	sess2.Close()
}

func TestDurableMidFileCorruption(t *testing.T) {
	dir := t.TempDir()
	recs := chaosRecords(6)
	writeWALPrefix(t, dir, recs)

	// Flip a byte in the first frame's payload: its checksum fails with
	// valid frames beyond it — bit rot, not a torn tail.
	path := filepath.Join(dir, segment.WALFileName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[12] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	cfg := durableConfig(t, dir)
	if _, _, err := openSingle(t, cfg); !errors.Is(err, segment.ErrCorrupt) {
		t.Fatalf("mid-file corruption must refuse startup with ErrCorrupt, got %v", err)
	}

	// The operator opts into degraded recovery: the consistent prefix
	// loads, the loss is reported, and the session keeps working.
	cfg.Durability.RecoverCorrupt = true
	sess, rs, err := openSingle(t, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rs.DroppedFrames == 0 {
		t.Fatalf("degraded recovery reported no dropped frames: %+v", rs)
	}
	if got := int(sess.Store().NextEventID() - 1); got >= len(recs) {
		t.Fatalf("degraded recovery kept %d events despite corruption", got)
	}
	if err := feedOne(sess, chaosRecords(7)[6]); err != nil {
		t.Fatalf("ingest after degraded recovery: %v", err)
	}
	sess.Close()
}

func TestDurableCorruptSegmentRefusesStartup(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(t, dir)
	sess, _, err := openSingle(t, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range chaosRecords(8) {
		if err := feedOne(sess, r); err != nil {
			t.Fatal(err)
		}
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	m, err := segment.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, m.Segments[0].File)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	// Segment corruption has no consistent prefix to degrade to: refused
	// even under RecoverCorrupt.
	cfg.Durability.RecoverCorrupt = true
	if _, _, err := openSingle(t, cfg); !errors.Is(err, segment.ErrCorrupt) {
		t.Fatalf("corrupt segment must refuse startup with ErrCorrupt, got %v", err)
	}
}

func TestDurableWALFaultRetriesInSession(t *testing.T) {
	defer faultinject.Disarm()
	dir := t.TempDir()
	cfg := durableConfig(t, dir)
	sess, _, err := openSingle(t, cfg)
	if err != nil {
		t.Fatal(err)
	}
	recs := chaosRecords(8)
	if err := feedOne(sess, recs[0]); err != nil {
		t.Fatal(err)
	}
	// Hit 1 is the next ingest's entity frame; hit 2 is the Flush frame
	// carrying the sealed event. The injected error surfaces from Flush,
	// the sealed batch parks in the replay slot, and the next advance
	// rewrites the frame under the same sequence and applies it.
	faultinject.Arm(faultinject.Plan{segment.FaultWALAppend: {Hits: []int{2}, Mode: faultinject.ModeError}})
	if _, err := sess.IngestRecords(recs[1:2]); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Flush(); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("expected injected WAL error, got %v", err)
	}
	faultinject.Disarm()
	for _, r := range recs[2:] {
		if err := feedOne(sess, r); err != nil {
			t.Fatal(err)
		}
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	sess2, _, err := openSingle(t, cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertRecoveredEquals(t, sess2, oracleSession(t, recs))
	sess2.Close()
}

func TestDurableFsyncPolicyAndCallbacks(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(t, dir)
	var fsyncs int
	var flushes []FlushStats
	cfg.Durability.Fsync = segment.FsyncAlways
	cfg.Durability.OnWALFsync = func(time.Duration) { fsyncs++ }
	cfg.Durability.OnSegmentFlush = func(st FlushStats) { flushes = append(flushes, st) }
	sess, _, err := openSingle(t, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range chaosRecords(9) {
		if err := feedOne(sess, r); err != nil {
			t.Fatal(err)
		}
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if fsyncs == 0 {
		t.Fatal("fsync observer never called under FsyncAlways")
	}
	if len(flushes) < 2 {
		t.Fatalf("expected periodic + close flushes, got %d", len(flushes))
	}
	for _, st := range flushes {
		if st.Err != nil {
			t.Fatalf("flush failed: %v", st.Err)
		}
		// One role, so each flush writes one file (its delta or a merge);
		// the live list grows by at most that file.
		if st.ManifestSeq == 0 || st.Written != 1 || st.Segments < 1 || st.Bytes == 0 {
			t.Fatalf("flush stats: %+v", st)
		}
	}
	// Generations are strictly increasing and the manifest on disk names
	// the last one.
	for i := 1; i < len(flushes); i++ {
		if flushes[i].ManifestSeq != flushes[i-1].ManifestSeq+1 {
			t.Fatalf("non-monotonic generations: %+v", flushes)
		}
	}
	m, err := segment.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if m.Seq != flushes[len(flushes)-1].ManifestSeq {
		t.Fatalf("manifest seq %d, last flush %d", m.Seq, flushes[len(flushes)-1].ManifestSeq)
	}

	// An unknown policy is rejected up front.
	bad := durableConfig(t, t.TempDir())
	bad.Durability.Fsync = "sometimes"
	if _, _, err := openSingle(t, bad); err == nil {
		t.Fatal("invalid fsync policy accepted")
	}
}
