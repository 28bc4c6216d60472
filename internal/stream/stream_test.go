package stream

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"threatraptor/internal/audit"
	"threatraptor/internal/cases"
	"threatraptor/internal/engine"
	"threatraptor/internal/reduction"
)

const dataLeakTBQL = `proc p1["%/bin/tar%"] read file f1["%/etc/passwd%"] as evt1
proc p1 write file f2["%/tmp/upload.tar%"] as evt2
proc p2["%/bin/bzip2%"] read file f2 as evt3
proc p2 write file f3["%/tmp/upload.tar.bz2%"] as evt4
proc p3["%/usr/bin/gpg%"] read file f3 as evt5
proc p3 write file f4["%/tmp/upload%"] as evt6
proc p4["%/usr/bin/curl%"] read file f4 as evt7
proc p4 connect ip i1["192.168.29.128"] as evt8
with evt1 before evt2, evt2 before evt3, evt3 before evt4, evt4 before evt5, evt5 before evt6, evt6 before evt7, evt7 before evt8
return distinct p1, f1, f2, p2, f3, p3, f4, p4, i1`

// graphTBQL compiles to single-hop Cypher data queries.
const graphTBQL = `proc p1["%/bin/tar%"] ->[read] file f1["%/etc/passwd%"] as evt1
proc p1 ->[write] file f2["%/tmp/upload.tar%"] as evt2
with evt1 before evt2
return distinct p1, f1, f2`

// varlenTBQL contains a variable-length path (information flow from tar
// to the exfiltration address), exercising the graph DFS and its delta
// floor: a trail through at least one new edge.
const varlenTBQL = `proc p1["%/bin/tar%"] ~>(1~8)[connect] ip i1["192.168.29.128"]
return distinct p1, i1`

// varlenMixedTBQL joins an event pattern, which keeps its materialized
// view, with a variable-length path, which runs its traversal.
const varlenMixedTBQL = `proc p1["%/bin/tar%"] read file f1["%/etc/passwd%"] as evt1
proc p1 ~>(1~3)[connect] ip i1["192.168.29.128"]
return distinct p1, f1, i1`

// dataLeakRecords regenerates the data_leak case's raw record stream (the
// same simulator run cases.GenerateRaw performs), scaled down.
func dataLeakRecords(t testing.TB, scale float64) []audit.Record {
	t.Helper()
	c := cases.ByID("data_leak")
	if c == nil {
		t.Fatal("data_leak case missing")
	}
	sim := audit.NewSimulator(c.Seed, 1_700_000_000_000_000)
	benign := int(float64(c.BenignActions) * scale)
	sim.GenerateBenign(audit.BenignConfig{Users: 15, Actions: benign / 2})
	sim.Advance(5_000_000)
	c.Attack(sim)
	sim.Advance(5_000_000)
	sim.GenerateBenign(audit.BenignConfig{Users: 15, Actions: benign - benign/2})
	return sim.Records()
}

// batchStore builds the reference store the batch way: parse everything,
// reduce once, load once.
func batchStore(t testing.TB, recs []audit.Record) *engine.Store {
	t.Helper()
	p := audit.NewParser()
	for i := range recs {
		if err := p.Feed(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	log := p.Log()
	reduction.Reduce(log, reduction.DefaultConfig())
	store, err := engine.NewStore(log)
	if err != nil {
		t.Fatal(err)
	}
	return store
}

func emptySession(t testing.TB, cfg Config) (*Session, *engine.Engine) {
	t.Helper()
	store, err := engine.NewStore(audit.NewLog())
	if err != nil {
		t.Fatal(err)
	}
	en := &engine.Engine{Store: store}
	return New(store, en, cfg), en
}

func huntStrings(t testing.TB, en *engine.Engine, src string) []string {
	t.Helper()
	res, _, err := en.Hunt(nil, src)
	if err != nil {
		t.Fatalf("hunt %q: %v", src, err)
	}
	var out []string
	for _, row := range res.Set.Strings() {
		out = append(out, strings.Join(row, "|"))
	}
	return out
}

func drainMatches(sub *Subscription) []string {
	var out []string
	for {
		select {
		case m, ok := <-sub.C:
			if !ok {
				return out
			}
			var parts []string
			for _, v := range m.Row {
				parts = append(parts, v.String())
			}
			out = append(out, strings.Join(parts, "|"))
		default:
			return out
		}
	}
}

// TestIncrementalVsBatchEquivalence is the acceptance property: N appends
// of size k followed by a hunt must equal one NewStore build over the
// concatenated log — across the relational path, the graph paths (single
// hop and variable length), and the standing-query path.
func TestIncrementalVsBatchEquivalence(t *testing.T) {
	recs := dataLeakRecords(t, 0.25)
	ref := batchStore(t, recs)
	refEngine := &engine.Engine{Store: ref}
	queries := []string{dataLeakTBQL, graphTBQL, varlenTBQL}

	for _, k := range []int{97, 512, 4096} {
		k := k
		t.Run(fmt.Sprintf("chunk=%d", k), func(t *testing.T) {
			sess, en := emptySession(t, Config{MatchBuffer: 4096})
			subs := make([]*Subscription, len(queries))
			for i, q := range queries {
				sub, err := sess.Watch(q)
				if err != nil {
					t.Fatal(err)
				}
				subs[i] = sub
			}
			for lo := 0; lo < len(recs); lo += k {
				hi := lo + k
				if hi > len(recs) {
					hi = len(recs)
				}
				if _, err := sess.IngestRecords(recs[lo:hi]); err != nil {
					t.Fatal(err)
				}
			}
			st, err := sess.Flush()
			if err != nil {
				t.Fatal(err)
			}
			if st.Pending != 0 {
				t.Fatalf("%d events still pending after Flush", st.Pending)
			}

			// The streamed store must equal the batch store event for
			// event (reduction included) and entity for entity.
			if got, want := len(sess.Store().Log.Events), len(ref.Log.Events); got != want {
				t.Fatalf("streamed store has %d events, batch %d", got, want)
			}
			for i := range ref.Log.Events {
				if sess.Store().Log.Events[i] != ref.Log.Events[i] {
					t.Fatalf("event %d differs:\n stream %+v\n batch  %+v",
						i, sess.Store().Log.Events[i], ref.Log.Events[i])
				}
			}
			if got, want := sess.Store().Log.Entities.Len(), ref.Log.Entities.Len(); got != want {
				t.Fatalf("streamed store has %d entities, batch %d", got, want)
			}
			if sess.Store().MinTime != ref.MinTime || sess.Store().MaxTime != ref.MaxTime {
				t.Fatalf("time bounds differ: stream [%d,%d] batch [%d,%d]",
					sess.Store().MinTime, sess.Store().MaxTime, ref.MinTime, ref.MaxTime)
			}

			// Hunts over the streamed store equal hunts over the batch
			// store, row for row.
			for _, q := range queries {
				got := huntStrings(t, en, q)
				want := huntStrings(t, refEngine, q)
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("hunt diverged for %q:\n stream %v\n batch  %v", q, got, want)
				}
			}

			// Every batch-hunt binding was ingested after Watch, so the
			// standing queries must have fired exactly that set (matches
			// are deduplicated, order is batch-arrival dependent).
			for i, q := range queries {
				if err := subs[i].Err(); err != nil {
					t.Fatalf("subscription %q: %v", q, err)
				}
				if d := subs[i].Dropped(); d != 0 {
					t.Fatalf("subscription %q dropped %d matches", q, d)
				}
				got := drainMatches(subs[i])
				want := huntStrings(t, refEngine, q)
				sort.Strings(got)
				sort.Strings(want)
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("standing query diverged for %q:\n fired %v\n batch %v", q, got, want)
				}
			}
		})
	}
}

// mixedTBQL joins a relational event pattern with a single-hop graph
// pattern, so one standing query exercises both backends' views at once.
const mixedTBQL = `proc p1["%/bin/tar%"] read file f1["%/etc/passwd%"] as evt1
proc p1 ->[write] file f2["%/tmp/upload.tar%"] as evt2
with evt1 before evt2
return distinct p1, f1, f2`

// windowTBQL carries a bounds-sensitive LAST window, so every sealed
// batch moves the bounds epoch and forces the window-sensitive views to
// rematerialize through the plan-invalidation machinery.
const windowTBQL = `last 9 hour proc p1["%/bin/tar%"] read file f1["%/etc/passwd%"] as evt1
proc p1 write file f2["%/tmp/upload.tar%"] as evt2
with evt1 before evt2
return distinct p1, f1, f2`

// TestMaterializedViewFiringEquivalence is the randomized append-schedule
// property behind the incremental-view layer: under identical random
// ingest schedules, a session evaluating standing queries through
// materialized views (the default), a session whose engine has views
// disabled (Engine.ViewHighWater < 0 — the recompute oracle), and a
// session whose tiny view cap forces the mid-flight fallback must deliver
// byte-identical firing sets for relational, graph single-hop,
// variable-length, mixed-backend, event + variable-length, and
// window-epoch-invalidated queries.
func TestMaterializedViewFiringEquivalence(t *testing.T) {
	recs := dataLeakRecords(t, 0.2)
	queries := []string{dataLeakTBQL, graphTBQL, varlenTBQL, mixedTBQL, windowTBQL, varlenMixedTBQL}

	type lane struct {
		name          string
		viewHighWater int // engine.Engine.ViewHighWater
	}
	lanes := []lane{{"views", 0}, {"recompute", -1}, {"capped", 3}}

	for _, seed := range []int64{1, 7, 42} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			// One random schedule per seed, shared by every lane.
			rng := rand.New(rand.NewSource(seed))
			var cuts []int
			for lo := 0; lo < len(recs); {
				n := 1 + rng.Intn(700)
				if lo+n > len(recs) {
					n = len(recs) - lo
				}
				cuts = append(cuts, n)
				lo += n
			}

			fired := make(map[string][][]string) // lane -> per-query sorted firings
			for _, ln := range lanes {
				store, err := engine.NewStore(audit.NewLog())
				if err != nil {
					t.Fatal(err)
				}
				en := &engine.Engine{Store: store, ViewHighWater: ln.viewHighWater}
				sess := New(store, en, Config{MatchBuffer: 4096})
				subs := make([]*Subscription, len(queries))
				for i, q := range queries {
					sub, err := sess.Watch(q)
					if err != nil {
						t.Fatal(err)
					}
					subs[i] = sub
				}
				lo := 0
				for _, n := range cuts {
					if _, err := sess.IngestRecords(recs[lo : lo+n]); err != nil {
						t.Fatal(err)
					}
					lo += n
				}
				if _, err := sess.Flush(); err != nil {
					t.Fatal(err)
				}
				perQuery := make([][]string, len(queries))
				for i, sub := range subs {
					if err := sub.Err(); err != nil {
						t.Fatalf("lane %s query %d: %v", ln.name, i, err)
					}
					if d := sub.Dropped(); d != 0 {
						t.Fatalf("lane %s query %d dropped %d", ln.name, i, d)
					}
					got := drainMatches(sub)
					sort.Strings(got)
					perQuery[i] = got
				}
				fired[ln.name] = perQuery

				switch ln.name {
				case "views":
					if vs := en.Views(); vs.Materializations == 0 {
						t.Fatalf("views lane never materialized: %+v", vs)
					}
					// The event pattern of the event + variable-length
					// query keeps its view beside the traversal.
					for i, sub := range subs {
						if queries[i] != varlenMixedTBQL {
							sess.Unwatch(sub)
						}
					}
					if vs := en.Views(); vs.CachedRows == 0 {
						t.Fatalf("event + variable-length query holds no view rows: %+v", vs)
					}
				case "recompute":
					if vs := en.Views(); vs.CachedRows != 0 {
						t.Fatalf("recompute lane cached rows: %+v", vs)
					}
				case "capped":
					if vs := en.Views(); vs.Fallbacks == 0 {
						t.Fatalf("capped lane never fell back: %+v", vs)
					}
				}
			}

			for i, q := range queries {
				base := fired["recompute"][i]
				for _, name := range []string{"views", "capped"} {
					if fmt.Sprint(fired[name][i]) != fmt.Sprint(base) {
						t.Fatalf("query %q: %s firings diverge from recompute:\n%s: %v\nrecompute: %v",
							q, name, name, fired[name][i], base)
					}
				}
			}
		})
	}
}

// TestUnwatchReleasesViews pins stream-side eviction: removing the last
// subscription for a query releases its materialized rows.
func TestUnwatchReleasesViews(t *testing.T) {
	recs := dataLeakRecords(t, 0.1)
	sess, en := emptySession(t, Config{MatchBuffer: 4096})
	sub, err := sess.Watch(dataLeakTBQL)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.IngestRecords(recs); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Flush(); err != nil {
		t.Fatal(err)
	}
	if vs := en.Views(); vs.CachedRows == 0 {
		t.Fatalf("expected cached view rows while watched: %+v", vs)
	}
	sess.Unwatch(sub)
	if vs := en.Views(); vs.CachedRows != 0 {
		t.Fatalf("Unwatch left %d cached rows", vs.CachedRows)
	}
}

// TestStandingQueryFiresOnAppendedBehavior is the live-hunting acceptance
// path: a registered standing query over a tailed byte stream fires when a
// newly appended matching behavior seals — without any store rebuild.
func TestStandingQueryFiresOnAppendedBehavior(t *testing.T) {
	sess, _ := emptySession(t, DefaultConfig())
	storeBefore := sess.Store()

	const q = `proc p1["%/bin/tar%"] read file f1["%/etc/passwd%"] as evt1
proc p1 connect ip i1["10.9.9.9"] as evt2
with evt1 before evt2
return distinct p1, f1, i1`
	sub, err := sess.Watch(q)
	if err != nil {
		t.Fatal(err)
	}

	rec := func(ts int64, call audit.Syscall, fd audit.FDType, mut func(*audit.Record)) string {
		r := audit.Record{Time: ts, Call: call, PID: 300, Exe: "/bin/tar", User: "root", FD: fd}
		mut(&r)
		return r.Format() + "\n"
	}
	benign := rec(1_000_000, audit.SysRead, audit.FDFile, func(r *audit.Record) {
		r.PID, r.Exe, r.Path, r.Bytes = 100, "/usr/bin/vim", "/home/alice/notes.txt", 42
	})
	attack1 := rec(2_000_000, audit.SysRead, audit.FDFile, func(r *audit.Record) { r.Path, r.Bytes = "/etc/passwd", 2048 })
	attack2 := rec(3_500_000, audit.SysConnect, audit.FDIPv4, func(r *audit.Record) {
		r.SrcIP, r.SrcPort, r.DstIP, r.DstPort, r.Proto = "10.0.0.5", 40000, "10.9.9.9", 443, "tcp"
	})

	// Benign prefix: nothing fires.
	if _, err := sess.Ingest(bytes.NewBufferString(benign)); err != nil {
		t.Fatal(err)
	}
	if got := drainMatches(sub); len(got) != 0 {
		t.Fatalf("premature firing: %v", got)
	}

	// The attack arrives split mid-line across two reads, like a real
	// tail; a later clock record pushes the watermark past it.
	wire := attack1 + attack2
	half := len(attack1) + len(attack2)/2
	if _, err := sess.Ingest(bytes.NewBufferString(wire[:half])); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Ingest(bytes.NewBufferString(wire[half:])); err != nil {
		t.Fatal(err)
	}
	clock := rec(20_000_000, audit.SysRead, audit.FDFile, func(r *audit.Record) {
		r.PID, r.Exe, r.Path = 100, "/usr/bin/vim", "/home/alice/notes.txt"
	})
	st, err := sess.Ingest(bytes.NewBufferString(clock))
	if err != nil {
		t.Fatal(err)
	}
	if st.Firings != 1 {
		t.Fatalf("firings = %d, want 1 (stats: %+v)", st.Firings, st)
	}
	got := drainMatches(sub)
	if len(got) != 1 || got[0] != "/bin/tar|/etc/passwd|10.9.9.9" {
		t.Fatalf("matches = %v", got)
	}
	if sess.Store() != storeBefore {
		t.Fatal("store was rebuilt")
	}

	// Re-ingesting more benign traffic must not re-fire the same binding.
	more := rec(30_000_000, audit.SysRead, audit.FDFile, func(r *audit.Record) {
		r.PID, r.Exe, r.Path = 100, "/usr/bin/vim", "/home/alice/notes.txt"
	})
	if _, err := sess.Ingest(bytes.NewBufferString(more)); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := drainMatches(sub); len(got) != 0 {
		t.Fatalf("duplicate firing after dedup: %v", got)
	}

	sess.Unwatch(sub)
	if sess.Subscriptions() != 0 {
		t.Fatal("Unwatch left the subscription registered")
	}
	if _, ok := <-sub.C; ok {
		t.Fatal("channel must be closed after Unwatch")
	}
}

// TestSessionCloseAndReuse pins Close semantics: flush-then-refuse.
func TestSessionCloseAndReuse(t *testing.T) {
	sess, en := emptySession(t, DefaultConfig())
	line := (&audit.Record{Time: 1_000_000, Call: audit.SysRead, PID: 1, Exe: "/bin/cat",
		FD: audit.FDFile, Path: "/etc/hosts", Bytes: 10}).Format() + "\n"
	if _, err := sess.Ingest(bytes.NewBufferString(line)); err != nil {
		t.Fatal(err)
	}
	sub, err := sess.Watch(`proc p["%cat%"] read file f return f`)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if _, ok := <-sub.C; ok {
		// Close flushed the pending read event, which fires the query
		// before the channel closes — either a match then close, or just
		// close, is acceptable; drain to closure.
		for range sub.C {
		}
	}
	if _, err := sess.Ingest(bytes.NewBufferString(line)); err == nil {
		t.Fatal("ingest after Close must fail")
	}
	// The store outlives the session.
	if got := len(en.Store.Log.Events); got != 1 {
		t.Fatalf("store events = %d, want 1", got)
	}
}

// TestConcurrentHuntsDuringIngest drives hunts and subscription draining
// from other goroutines while the stream appends — the session's
// reader/writer locking under the race detector.
func TestConcurrentHuntsDuringIngest(t *testing.T) {
	recs := dataLeakRecords(t, 0.1)
	sess, en := emptySession(t, Config{MatchBuffer: 4096})
	sub, err := sess.Watch(dataLeakTBQL)
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	errc := make(chan error, 4)
	for g := 0; g < 3; g++ {
		go func() {
			for {
				select {
				case <-stop:
					errc <- nil
					return
				default:
				}
				if _, _, err := en.Hunt(nil, graphTBQL); err != nil {
					errc <- err
					return
				}
			}
		}()
	}
	go func() {
		for {
			select {
			case <-stop:
				errc <- nil
				return
			case <-sub.C:
			}
		}
	}()

	const k = 64
	for lo := 0; lo < len(recs); lo += k {
		hi := lo + k
		if hi > len(recs) {
			hi = len(recs)
		}
		if _, err := sess.IngestRecords(recs[lo:hi]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sess.Flush(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	for i := 0; i < 4; i++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	if err := sub.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestVarLenStandingQueryFiresOnIntermediateEdge pins the variable-length
// delta floor: a typed variable-length path binds the event variable only
// on its final hop, so when a newly appended intermediate edge completes a
// path whose final hop is historical, the floor must count the trail's
// intermediate edges, not the bound event.
func TestVarLenStandingQueryFiresOnIntermediateEdge(t *testing.T) {
	sess, _ := emptySession(t, DefaultConfig())
	mk := func(r audit.Record) string { return r.Format() + "\n" }

	// History: curl connects to the exfil address (the path's final hop),
	// plus a clock record so it seals before Watch.
	history := mk(audit.Record{Time: 1_000_000, Call: audit.SysConnect, PID: 50, Exe: "/usr/bin/curl",
		User: "mallory", FD: audit.FDIPv4, SrcIP: "10.0.0.2", SrcPort: 40000, DstIP: "10.1.1.1", DstPort: 443, Proto: "tcp"}) +
		mk(audit.Record{Time: 10_000_000, Call: audit.SysRead, PID: 9, Exe: "/usr/bin/vim",
			User: "alice", FD: audit.FDFile, Path: "/home/a", Bytes: 1})
	if _, err := sess.Ingest(bytes.NewBufferString(history)); err != nil {
		t.Fatal(err)
	}

	const q = `proc p1["%/bin/tar%"] ~>(2~2)[connect] ip i1["10.1.1.1"]
return distinct p1, i1`
	sub, err := sess.Watch(q)
	if err != nil {
		t.Fatal(err)
	}

	// The path-completing intermediate edge arrives after Watch: tar
	// starts the curl process that made the historical connection.
	later := mk(audit.Record{Time: 15_000_000, Call: audit.SysExecve, PID: 40, Exe: "/bin/tar",
		User: "mallory", FD: audit.FDProc, ChildPID: 50, ChildExe: "/usr/bin/curl"}) +
		mk(audit.Record{Time: 40_000_000, Call: audit.SysRead, PID: 9, Exe: "/usr/bin/vim",
			User: "alice", FD: audit.FDFile, Path: "/home/a", Bytes: 1})
	if _, err := sess.Ingest(bytes.NewBufferString(later)); err != nil {
		t.Fatal(err)
	}
	got := drainMatches(sub)
	if len(got) != 1 || got[0] != "/bin/tar|10.1.1.1" {
		t.Fatalf("matches = %v, want the completed 2-hop path", got)
	}
}

// TestVarLenWatchFiresNewWitness pins the standing-query contract for
// variable-length paths, the same as for fixed-length ones: Watch replays
// no history, and an answer a pre-Watch trail derived fires once a trail
// through a newly sealed edge derives it again.
func TestVarLenWatchFiresNewWitness(t *testing.T) {
	sess, en := emptySession(t, DefaultConfig())
	mk := func(r audit.Record) string { return r.Format() + "\n" }
	connect := func(ts int64) string {
		return mk(audit.Record{Time: ts, Call: audit.SysConnect, PID: 50, Exe: "/usr/bin/curl",
			User: "mallory", FD: audit.FDIPv4, SrcIP: "10.0.0.2", SrcPort: 40000, DstIP: "10.1.1.1", DstPort: 443, Proto: "tcp"})
	}
	clock := func(ts int64) string {
		return mk(audit.Record{Time: ts, Call: audit.SysRead, PID: 9, Exe: "/usr/bin/vim",
			User: "alice", FD: audit.FDFile, Path: "/home/a", Bytes: 1})
	}

	// History: tar starts curl, curl connects to the exfil address.
	history := mk(audit.Record{Time: 1_000_000, Call: audit.SysExecve, PID: 40, Exe: "/bin/tar",
		User: "mallory", FD: audit.FDProc, ChildPID: 50, ChildExe: "/usr/bin/curl"}) +
		connect(2_000_000) + clock(10_000_000)
	if _, err := sess.Ingest(bytes.NewBufferString(history)); err != nil {
		t.Fatal(err)
	}
	const q = `proc p1["%/bin/tar%"] ~>(1~3)[connect] ip i1["10.1.1.1"]
return distinct p1, i1`
	if got := huntStrings(t, en, q); fmt.Sprint(got) != "[/bin/tar|10.1.1.1]" {
		t.Fatalf("history hunt = %v, want the pre-Watch trail", got)
	}
	sub, err := sess.Watch(q)
	if err != nil {
		t.Fatal(err)
	}

	// Unrelated traffic seals: the pre-Watch answer does not replay.
	if _, err := sess.Ingest(bytes.NewBufferString(clock(20_000_000))); err != nil {
		t.Fatal(err)
	}
	if got := drainMatches(sub); len(got) != 0 {
		t.Fatalf("pre-Watch answer replayed: %v", got)
	}

	// curl connects again: a new trail derives the same answer.
	if _, err := sess.Ingest(bytes.NewBufferString(connect(30_000_000) + clock(40_000_000))); err != nil {
		t.Fatal(err)
	}
	if got := drainMatches(sub); len(got) != 1 || got[0] != "/bin/tar|10.1.1.1" {
		t.Fatalf("matches = %v, want the answer of the new trail", got)
	}
}

// TestIngestSurvivesMalformedRecord: one corrupt line must not abort the
// call — surrounding lines land, and the error surfaces as *ParseError.
func TestIngestSurvivesMalformedRecord(t *testing.T) {
	sess, _ := emptySession(t, DefaultConfig())
	wire := "ts=1000000 call=read pid=1 exe=/bin/cat fd=file path=/a bytes=1\n" +
		"ts=notanumber call=read pid=1 exe=/bin/cat fd=file path=/bad\n" +
		"ts=2000000 call=read pid=1 exe=/bin/cat fd=file path=/b bytes=1\n"
	st, err := sess.Ingest(bytes.NewBufferString(wire))
	var pe *ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *ParseError", err)
	}
	if st.EventsParsed != 2 {
		t.Fatalf("EventsParsed = %d, want 2 (good lines around the bad one)", st.EventsParsed)
	}
	if _, err := sess.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := len(sess.Store().Log.Events); got != 2 {
		t.Fatalf("stored events = %d, want 2", got)
	}
}

// TestStandingQueryDedupHighWater pins the bounded-dedup semantics: when a
// subscription's firing-dedup set reaches Config.DedupHighWater it is
// flushed wholesale (DedupResets counts the flushes), so memory stays
// bounded on long watches and delivery degrades from exactly-once to
// at-least-once — a binding seen before the flush may fire again, but no
// new binding is ever lost.
func TestStandingQueryDedupHighWater(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DedupHighWater = 2
	sess, _ := emptySession(t, cfg)
	sub, err := sess.Watch(`proc p["%/bin/tar%"] read file f return distinct f`)
	if err != nil {
		t.Fatal(err)
	}

	feed := func(ts int64, path string) {
		r := audit.Record{Time: ts, Call: audit.SysRead, PID: 300, Exe: "/bin/tar",
			User: "root", FD: audit.FDFile, Path: path, Bytes: 64}
		if _, err := sess.Ingest(bytes.NewBufferString(r.Format() + "\n")); err != nil {
			t.Fatal(err)
		}
	}
	// Events 10 s apart: each ingest seals the previous one (default 1 s
	// lateness), so every distinct file fires in its own batch. The
	// fourth event repeats the first file after the set has been flushed.
	feed(10_000_000, "/etc/passwd")
	feed(20_000_000, "/etc/shadow")
	feed(30_000_000, "/etc/hosts")
	feed(40_000_000, "/etc/passwd")
	if _, err := sess.Flush(); err != nil {
		t.Fatal(err)
	}

	got := drainMatches(sub)
	want := []string{"/etc/passwd", "/etc/shadow", "/etc/hosts", "/etc/passwd"}
	if len(got) != len(want) {
		t.Fatalf("matches = %v, want %v (repeat after flush must re-fire)", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("match %d = %q, want %q", i, got[i], want[i])
		}
	}
	if n := sub.DedupResets(); n < 1 {
		t.Fatalf("DedupResets = %d, want >= 1", n)
	}
	if sub.seen.Len() > cfg.DedupHighWater {
		t.Fatalf("dedup set grew past the high-water cap: %d", sub.seen.Len())
	}
}
