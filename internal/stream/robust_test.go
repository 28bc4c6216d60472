package stream

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"threatraptor/internal/audit"
	"threatraptor/internal/engine"
	"threatraptor/internal/faultinject"
	"threatraptor/internal/rules"
	"threatraptor/internal/tactical"
)

// chaosRules compiles the rule set every chaos build tags with, so the
// fault-free and fault-injected incident lists can be compared.
func chaosRules(t testing.TB) *rules.Set {
	t.Helper()
	set, err := rules.Compile([]rules.Rule{
		{Name: "credential-file-read", Tactic: "credential-access", Severity: 8,
			Ops: []string{"read"}, Where: map[string]string{"object.kind": "file", "object.name": "/etc/*"}},
		{Name: "staging-write-tmp", Tactic: "collection",
			Ops: []string{"write"}, Where: map[string]string{"object.kind": "file", "object.name": "/tmp/*"}},
		{Name: "outbound-connect", Tactic: "command-and-control",
			Ops: []string{"connect"}, Where: map[string]string{"object.kind": "ip"}},
		{Name: "outbound-send", Tactic: "exfiltration", Severity: 7,
			Ops: []string{"send"}, Where: map[string]string{"object.kind": "ip"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// incidentJSON renders a session's ranked incidents byte-stably.
func incidentJSON(t testing.TB, sess *Session) []byte {
	t.Helper()
	b, err := tactical.MarshalIncidents(sess.Incidents())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSessionCatchesUpPreloadedHistory pins the catch-up round: a session
// opened over a store that was batch-built before it (the daemon's
// -log/-demo preload path) must tag the preloaded events at creation, and
// its incident list must equal the one-shot batch analysis of the same
// snapshot. An empty store costs no round.
func TestSessionCatchesUpPreloadedHistory(t *testing.T) {
	set := chaosRules(t)
	store := batchStore(t, dataLeakRecords(t, 0.1))
	var rounds int
	cfg := Config{
		Tactical:        tactical.Config{Rules: set},
		OnTacticalRound: func(_ time.Duration, _ tactical.RoundStats) { rounds++ },
	}
	sess := New(store, &engine.Engine{Store: store}, cfg)
	st := sess.TacticalStats()
	if st.Rounds != 1 || st.AlertsTagged == 0 || rounds != 1 {
		t.Fatalf("catch-up round missing: stats %+v, observer calls %d", st, rounds)
	}
	got := incidentJSON(t, sess)
	want, err := tactical.MarshalIncidents(tactical.Analyze(store.Snapshot(), tactical.Config{Rules: set}))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("catch-up incidents != one-shot analysis:\ngot  %s\nwant %s", clipStr(got), clipStr(want))
	}

	empty, _ := emptySession(t, Config{Tactical: tactical.Config{Rules: set}})
	if st := empty.TacticalStats(); st.Rounds != 0 {
		t.Fatalf("empty store ran a catch-up round: %+v", st)
	}
}

func clipStr(b []byte) string {
	if len(b) > 400 {
		return string(b[:400]) + "..."
	}
	return string(b)
}

// readLine renders one read-syscall record as a wire line.
func readLine(ts int64, pid int, exe, path string) string {
	r := audit.Record{Time: ts, Call: audit.SysRead, PID: pid, Exe: exe,
		User: "root", FD: audit.FDFile, Path: path, Bytes: 10}
	return r.Format() + "\n"
}

// TestWatchClosedSession is the regression test for Watch missing the
// closed check: registering a standing query on a closed session must
// fail like Ingest and Flush do, not register a subscription that can
// never fire.
func TestWatchClosedSession(t *testing.T) {
	sess, _ := emptySession(t, DefaultConfig())
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Watch(`proc p read file f return f`); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("Watch on closed session: got %v, want ErrSessionClosed", err)
	}
	if sess.Subscriptions() != 0 {
		t.Fatal("Watch on closed session registered a subscription")
	}
	if _, err := sess.Ingest(bytes.NewBufferString("x")); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("Ingest on closed session: got %v, want ErrSessionClosed", err)
	}
	if _, err := sess.Flush(); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("Flush on closed session: got %v, want ErrSessionClosed", err)
	}
}

// TestQuarantineAfterConsecutiveFailures pins the quarantine contract: a
// standing query that fails QuarantineAfter consecutive evaluations is
// removed, its views are dropped, a terminal Match is delivered, the
// channel closes, and Err latches — while the session itself keeps
// ingesting and hunting.
func TestQuarantineAfterConsecutiveFailures(t *testing.T) {
	cfg := DefaultConfig()
	cfg.QuarantineAfter = 3
	sess, en := emptySession(t, cfg)
	sub, err := sess.Watch(`proc p read file f return p, f`)
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Arm(faultinject.Plan{
		FaultDeliver: {Hits: []int{1, 2, 3}, Mode: faultinject.ModeError},
	})
	t.Cleanup(faultinject.Disarm)

	// Each sealing ingest evaluates the standing query once (the watermark
	// lags, so the first ingests seal nothing); three consecutive injected
	// failures trip the quarantine.
	for i := 0; i < 8; i++ {
		line := readLine(int64(i+1)*2_000_000, 100+i, "/bin/cat", fmt.Sprintf("/data/f%d", i))
		if _, err := sess.Ingest(bytes.NewBufferString(line)); err != nil {
			t.Fatalf("ingest %d: %v", i, err)
		}
	}
	if !sub.Quarantined() {
		t.Fatalf("subscription not quarantined after %d failures (Err: %v)", faultinject.Count(FaultDeliver), sub.Err())
	}
	if err := sub.Err(); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("latched Err = %v, want ErrInjected", err)
	}
	if sess.Subscriptions() != 0 {
		t.Fatal("quarantined subscription still registered")
	}
	if vs := en.Views(); vs.CachedRows != 0 {
		t.Fatalf("quarantine left %d cached view rows", vs.CachedRows)
	}
	// The channel delivers the terminal marker and then closes.
	sawTerminal := false
	for m := range sub.C {
		if m.Terminal {
			sawTerminal = true
		}
	}
	if !sawTerminal {
		t.Fatal("no terminal Match before channel close")
	}

	// The session is not poisoned: later ingests and hunts still work.
	faultinject.Disarm()
	if _, err := sess.Ingest(bytes.NewBufferString(readLine(60_000_000, 200, "/bin/cat", "/data/late"))); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := en.Hunt(nil, `proc p read file f return p, f`); err != nil {
		t.Fatalf("post-quarantine hunt: %v", err)
	}
}

// TestFailureCountResetsOnRecovery: a single failed evaluation latches an
// error but a clean one clears it, so intermittent failures never
// quarantine.
func TestFailureCountResetsOnRecovery(t *testing.T) {
	cfg := DefaultConfig()
	cfg.QuarantineAfter = 2
	sess, _ := emptySession(t, cfg)
	sub, err := sess.Watch(`proc p read file f return p, f`)
	if err != nil {
		t.Fatal(err)
	}
	// Fail evaluations 1 and 3 — never two in a row.
	faultinject.Arm(faultinject.Plan{
		FaultDeliver: {Hits: []int{1, 3}, Mode: faultinject.ModeError},
	})
	t.Cleanup(faultinject.Disarm)
	for i := 0; i < 8; i++ {
		line := readLine(int64(i+1)*2_000_000, 100+i, "/bin/cat", fmt.Sprintf("/data/g%d", i))
		if _, err := sess.Ingest(bytes.NewBufferString(line)); err != nil {
			t.Fatalf("ingest %d: %v", i, err)
		}
	}
	if got := faultinject.Count(FaultDeliver); got < 4 {
		t.Fatalf("only %d evaluations ran; the recovery window was never exercised", got)
	}
	if sub.Quarantined() {
		t.Fatal("intermittent failures must not quarantine")
	}
	if err := sub.Err(); err != nil {
		t.Fatalf("Err after clean evaluation = %v, want nil", err)
	}
}

// TestSlowConsumerNeverStallsIngestion (run under -race in CI): a
// consumer that stops draining past Config.MatchBuffer only increments
// Dropped(); ingestion completes and every firing is accounted for as
// delivered or dropped.
func TestSlowConsumerNeverStallsIngestion(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MatchBuffer = 2
	sess, _ := emptySession(t, cfg)
	sub, err := sess.Watch(`proc p read file f return p, f`)
	if err != nil {
		t.Fatal(err)
	}
	const n = 40
	for i := 0; i < n; i++ {
		// Distinct (proc, file) pairs so every firing is a fresh binding.
		line := readLine(int64(i+1)*2_000_000, 300+i, fmt.Sprintf("/bin/tool%d", i), fmt.Sprintf("/data/f%d", i))
		if _, err := sess.Ingest(bytes.NewBufferString(line)); err != nil {
			t.Fatalf("ingest %d stalled or failed: %v", i, err)
		}
	}
	if _, err := sess.Flush(); err != nil {
		t.Fatal(err)
	}
	delivered := len(drainMatches(sub))
	dropped := int(sub.Dropped())
	if dropped == 0 {
		t.Fatalf("expected drops with MatchBuffer=2 and %d firings (delivered %d)", n, delivered)
	}
	if delivered+dropped != n {
		t.Fatalf("delivered %d + dropped %d != %d firings", delivered, dropped, n)
	}
}

// TestIncidentSubDroppedDuringDelivery (run under -race in CI): Dropped
// is read from another goroutine while a lagging incident subscriber
// drops updates during ingestion, and every alert round is either
// delivered or counted.
func TestIncidentSubDroppedDuringDelivery(t *testing.T) {
	var alertRounds atomic.Int64
	cfg := DefaultConfig()
	cfg.Tactical = tactical.Config{Rules: chaosRules(t)}
	cfg.OnTacticalRound = func(_ time.Duration, rs tactical.RoundStats) {
		if rs.Alerts > 0 {
			alertRounds.Add(1)
		}
	}
	sess, _ := emptySession(t, cfg)
	sub, err := sess.WatchIncidents(1)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var polled sync.WaitGroup
	polled.Add(1)
	go func() {
		defer polled.Done()
		for {
			_ = sub.Dropped()
			select {
			case <-done:
				return
			default:
			}
		}
	}()
	const n = 30
	for i := 0; i < n; i++ {
		// Every record reads a credential file: each sealed batch tags.
		line := readLine(int64(i+1)*2_000_000, 300+i, fmt.Sprintf("/bin/tool%d", i), fmt.Sprintf("/etc/secret%d", i))
		if _, err := sess.Ingest(bytes.NewBufferString(line)); err != nil {
			t.Fatalf("ingest %d: %v", i, err)
		}
	}
	if _, err := sess.Flush(); err != nil {
		t.Fatal(err)
	}
	close(done)
	polled.Wait()
	delivered := len(sub.C)
	dropped := sub.Dropped()
	if dropped == 0 {
		t.Fatalf("expected drops with a 1-slot buffer and %d alert rounds", alertRounds.Load())
	}
	if int64(delivered+dropped) != alertRounds.Load() {
		t.Fatalf("delivered %d + dropped %d != %d alert rounds", delivered, dropped, alertRounds.Load())
	}
}

// TestUnwatchDuringActiveFiring (run under -race in CI): Unwatch racing a
// consuming goroutine and concurrent hunts against live ingestion is
// safe — the channel closes exactly once and nothing deadlocks.
func TestUnwatchDuringActiveFiring(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MatchBuffer = 4
	sess, _ := emptySession(t, cfg)
	sub, err := sess.Watch(`proc p read file f return p, f`)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for range sub.C {
		}
	}()
	unwatched := make(chan struct{})
	go func() {
		defer wg.Done()
		<-unwatched
		sess.Unwatch(sub)
	}()
	const n = 30
	for i := 0; i < n; i++ {
		line := readLine(int64(i+1)*2_000_000, 300+i, fmt.Sprintf("/bin/tool%d", i), fmt.Sprintf("/data/f%d", i))
		if _, err := sess.Ingest(bytes.NewBufferString(line)); err != nil {
			t.Fatalf("ingest %d: %v", i, err)
		}
		if i == n/2 {
			close(unwatched)
		}
	}
	if _, err := sess.Flush(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if sess.Subscriptions() != 0 {
		t.Fatal("subscription still registered after Unwatch")
	}
	// Ingestion after the unwatch still works (no lock left held).
	if _, err := sess.Ingest(bytes.NewBufferString(readLine(100_000_000, 999, "/bin/cat", "/data/last"))); err != nil {
		t.Fatal(err)
	}
}

// chaosBuild runs the fixed input through a session in chunks, retrying
// every failed call (injected faults leave the pipeline retryable), and
// returns the session with the store fully flushed. A nil plan builds the
// fault-free reference.
//
// While the build runs, a concurrent reader goroutine continuously pins
// the store's published snapshot and hunts against it — snapshot reads
// must stay consistent through injected append failures, rollbacks, and
// panics: the frontier never moves backwards and never lands between a
// batch's relational and graph halves (mid-append frontiers are whole
// batch numbers or nothing). Hunt errors are tolerated only when fault
// injection is armed and produced them.
func chaosBuild(t *testing.T, lines []string, chunks int, plan faultinject.Plan) (*Session, *engine.Engine) {
	t.Helper()
	cfg := DefaultConfig()
	// Tactical rounds run on every build so the chaos comparison also
	// covers alert tagging: a rolled-back append must never tag a phantom
	// alert (events are tagged exactly once, on the successful retry).
	cfg.Tactical = tactical.Config{Rules: chaosRules(t)}
	sess, en := emptySession(t, cfg)
	if _, err := sess.Watch(dataLeakTBQL); err != nil {
		t.Fatal(err)
	}
	if plan != nil {
		faultinject.Arm(plan)
	}
	readerStop := make(chan struct{})
	var readerWG sync.WaitGroup
	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		var lastNext int64
		for {
			select {
			case <-readerStop:
				return
			default:
			}
			snap := sess.Store().Snapshot()
			if snap.NextEventID < lastNext {
				t.Errorf("snapshot frontier moved backwards: %d after %d", snap.NextEventID, lastNext)
				return
			}
			lastNext = snap.NextEventID
			_, _, err := en.Hunt(nil, dataLeakTBQL)
			if err != nil && !injectedHuntError(err) {
				t.Errorf("concurrent hunt during chaos build: %v", err)
				return
			}
		}
	}()
	defer func() {
		close(readerStop)
		readerWG.Wait()
	}()
	retry := func(op string, fn func() error) {
		for attempt := 1; ; attempt++ {
			err := fn()
			if err == nil {
				return
			}
			var pe *ParseError
			if errors.As(err, &pe) {
				return // parse warnings are not retryable failures
			}
			if attempt >= 64 {
				t.Fatalf("%s still failing after %d attempts: %v", op, attempt, err)
			}
		}
	}
	per := (len(lines) + chunks - 1) / chunks
	for i := 0; i < len(lines); i += per {
		j := i + per
		if j > len(lines) {
			j = len(lines)
		}
		// One buffer per chunk: a failed Ingest has already consumed the
		// bytes (they sit in the parser/reducer/replay), so the retry sees
		// the drained reader and just advances the pipeline.
		buf := bytes.NewBufferString(strings.Join(lines[i:j], ""))
		retry("ingest", func() error {
			_, err := sess.Ingest(buf)
			return err
		})
	}
	retry("flush", func() error {
		_, err := sess.Flush()
		return err
	})
	faultinject.Disarm()
	return sess, en
}

// injectedHuntError reports whether a concurrent hunt's failure traces
// back to fault injection: an injected error in the chain, or an engine
// panic boundary that caught an injected panic.
func injectedHuntError(err error) bool {
	if errors.Is(err, faultinject.ErrInjected) {
		return true
	}
	var ie *engine.InternalError
	if errors.As(err, &ie) {
		if pe, ok := ie.Panic.(error); ok && errors.Is(pe, faultinject.ErrInjected) {
			return true
		}
	}
	return false
}

// TestChaosRandomFaultSchedules replays randomized fault schedules —
// errors and panics across parse, append (both backends and the log),
// execute, and deliver — over a fixed input and asserts the surviving
// store is identical to the fault-free build and no lock was left held.
func TestChaosRandomFaultSchedules(t *testing.T) {
	recs := dataLeakRecords(t, 0.05)
	lines := make([]string, len(recs))
	for i := range recs {
		lines[i] = recs[i].Format() + "\n"
	}
	const chunks = 12
	ref, refEn := chaosBuild(t, lines, chunks, nil)
	refStore := ref.Store()
	refRows := huntStrings(t, refEn, dataLeakTBQL)
	if len(refRows) == 0 {
		t.Fatal("reference build found no attack; chaos comparison would be vacuous")
	}
	refIncs := incidentJSON(t, ref)
	refTact := ref.TacticalStats()
	if refTact.AlertsTagged == 0 || refTact.Incidents == 0 {
		t.Fatal("reference build tagged no alerts; phantom-alert comparison would be vacuous")
	}

	// Points that fire inside a recover boundary may panic; the stream's
	// own points are plain error returns on an unguarded path.
	panicOK := map[string]bool{
		engine.FaultAppendEntitiesRel:   true,
		engine.FaultAppendEntitiesGraph: true,
		engine.FaultAppendEventsRel:     true,
		engine.FaultAppendEventsGraph:   true,
		engine.FaultAppendLog:           true,
		engine.FaultExecutePattern:      true,
		FaultParse:                      false,
		FaultDeliver:                    false,
	}
	points := make([]string, 0, len(panicOK))
	for p := range panicOK {
		points = append(points, p)
	}

	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Cleanup(faultinject.Disarm)
			rng := rand.New(rand.NewSource(seed))
			plan := faultinject.Plan{}
			for _, p := range points {
				if rng.Intn(2) == 0 {
					continue
				}
				nHits := 1 + rng.Intn(3)
				hits := make([]int, 0, nHits)
				for k := 0; k < nHits; k++ {
					hits = append(hits, 1+rng.Intn(8))
				}
				mode := faultinject.ModeError
				if panicOK[p] && rng.Intn(2) == 0 {
					mode = faultinject.ModePanic
				}
				plan[p] = faultinject.Trigger{Hits: hits, Mode: mode}
			}
			sess, en := chaosBuild(t, lines, chunks, plan)
			store := sess.Store()

			if !reflect.DeepEqual(refStore.Log.Events, store.Log.Events) {
				t.Fatalf("event log diverged from fault-free build: %d vs %d events",
					len(store.Log.Events), len(refStore.Log.Events))
			}
			if a, b := refStore.Graph.NumNodes(), store.Graph.NumNodes(); a != b {
				t.Fatalf("graph nodes diverged: %d vs %d", b, a)
			}
			if a, b := refStore.Graph.NumEdges(), store.Graph.NumEdges(); a != b {
				t.Fatalf("graph edges diverged: %d vs %d", b, a)
			}
			if a, b := refStore.NextEventID(), store.NextEventID(); a != b {
				t.Fatalf("event-ID sequence diverged: %d vs %d", b, a)
			}
			rows := huntStrings(t, en, dataLeakTBQL)
			if !reflect.DeepEqual(refRows, rows) {
				t.Fatalf("hunt diverged from fault-free build:\n ref %v\n got %v", refRows, rows)
			}
			// No phantom alerts or incidents: a rolled-back append was never
			// published, so its events are tagged exactly once (on the
			// successful retry) and the ranked incident list is byte-identical
			// to the fault-free build's.
			if tact := sess.TacticalStats(); tact.AlertsTagged != refTact.AlertsTagged {
				t.Fatalf("alerts tagged diverged: %d vs fault-free %d", tact.AlertsTagged, refTact.AlertsTagged)
			}
			if incs := incidentJSON(t, sess); !bytes.Equal(refIncs, incs) {
				t.Fatalf("ranked incidents diverged from fault-free build:\n ref %s\n got %s", refIncs, incs)
			}
			// No lock left held: a full ingest+flush+hunt cycle still runs.
			if _, err := sess.Ingest(bytes.NewBufferString(readLine(1_900_000_000_000_000, 9999, "/bin/cat", "/data/post"))); err != nil {
				t.Fatalf("post-chaos ingest: %v", err)
			}
			if _, err := sess.Flush(); err != nil {
				t.Fatalf("post-chaos flush: %v", err)
			}
			if _, _, err := en.Hunt(nil, dataLeakTBQL); err != nil {
				t.Fatalf("post-chaos hunt: %v", err)
			}
		})
	}
}
