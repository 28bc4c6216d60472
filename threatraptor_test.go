package threatraptor

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"

	"threatraptor/internal/audit"
	"threatraptor/internal/cases"
	"threatraptor/internal/engine"
	"threatraptor/internal/segment"
	"threatraptor/internal/shard"
	"threatraptor/internal/synth"
	"threatraptor/internal/tbql"
)

func loadCase(t *testing.T, id string) (*System, *cases.GeneratedLog) {
	t.Helper()
	c := cases.ByID(id)
	if c == nil {
		t.Fatalf("case %s missing", id)
	}
	gen, err := c.Generate(0.3)
	if err != nil {
		t.Fatal(err)
	}
	sys := New(DefaultOptions())
	if err := sys.LoadLog(gen.Log); err != nil {
		t.Fatal(err)
	}
	return sys, gen
}

func TestEndToEndDataLeak(t *testing.T) {
	sys, gen := loadCase(t, "data_leak")
	c := cases.ByID("data_leak")

	query, hits, err := sys.HuntOSCTI(nil, c.Report)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(query, `proc p1["%/bin/tar%"] read file f1["%/etc/passwd%"]`) {
		t.Errorf("unexpected synthesized query:\n%s", query)
	}
	if hits.Set.Len() != 1 {
		t.Fatalf("rows = %d: %v", hits.Set.Len(), hits.Set.Strings())
	}
	// Every matched event must be a ground-truth attack event.
	attack := map[int64]bool{}
	for _, id := range gen.AttackEventIDs {
		attack[id] = true
	}
	for ev := range hits.MatchedEvents {
		if !attack[ev] {
			t.Errorf("false positive event %d", ev)
		}
	}
	if len(hits.MatchedEvents) == 0 {
		t.Fatal("no events matched")
	}
}

// TestHuntOSCTIMatchesHuntOfItsText: for every case report over its own
// log, the pipeline's answer equals a hunt of the query text it returns
// and an execution of the synthesized query analyzed as built, so the
// returned text records exactly what ran (a Windows path's backslashes
// included).
func TestHuntOSCTIMatchesHuntOfItsText(t *testing.T) {
	for _, c := range append(cases.All(), cases.Extras()...) {
		t.Run(c.ID, func(t *testing.T) {
			sys, _ := loadCase(t, c.ID)
			query, got, err := sys.HuntOSCTI(nil, c.Report)
			if err != nil {
				t.Fatal(err)
			}
			ofText, _, err := sys.Hunt(nil, query)
			if err != nil {
				t.Fatal(err)
			}
			q, _, err := synth.Synthesize(sys.ExtractBehaviorGraph(c.Report).Graph, synth.Options{Mode: sys.opts.SynthesisMode})
			if err != nil {
				t.Fatal(err)
			}
			a, err := tbql.Analyze(q)
			if err != nil {
				t.Fatal(err)
			}
			ofAST, _, err := sys.engine.Execute(nil, a)
			if err != nil {
				t.Fatal(err)
			}
			for name, want := range map[string]*engine.Result{"a hunt of the text": ofText, "the analyzed AST": ofAST} {
				if g, w := sortedResultRows(got), sortedResultRows(want); !slices.Equal(g, w) {
					t.Errorf("HuntOSCTI rows %v, %s's %v\n%s", g, name, w, query)
				}
				if !maps.Equal(got.MatchedEvents, want.MatchedEvents) {
					t.Errorf("HuntOSCTI matched %d events, %s %d\n%s", len(got.MatchedEvents), name, len(want.MatchedEvents), query)
				}
			}
		})
	}
}

// sortedResultRows returns a result's rows, each joined, in sorted order.
func sortedResultRows(r *engine.Result) []string {
	var out []string
	for _, row := range r.Set.Strings() {
		out = append(out, strings.Join(row, "\x00"))
	}
	slices.Sort(out)
	return out
}

func TestHuntWithoutLogFails(t *testing.T) {
	sys := New(DefaultOptions())
	if _, _, err := sys.Hunt(nil, "proc p read file f return f"); err == nil {
		t.Fatal("hunting before loading a log must fail")
	}
	if _, err := sys.FuzzyHunt(nil, "proc p read file f return f", true); err == nil {
		t.Fatal("fuzzy hunting before loading a log must fail")
	}
}

func TestLoadAuditLogFromStream(t *testing.T) {
	raw := strings.Join([]string{
		"ts=1700000000000000 call=read pid=9 exe=/bin/evil.sh fd=file path=/etc/shadow bytes=100",
		"ts=1700000001000000 call=sendto pid=9 exe=/bin/evil.sh fd=ipv4 src=10.0.0.1:9999 dst=6.6.6.6:443 proto=tcp bytes=100",
	}, "\n")
	sys := New(DefaultOptions())
	if err := sys.LoadAuditLog(strings.NewReader(raw)); err != nil {
		t.Fatal(err)
	}
	res, _, err := sys.Hunt(nil, `proc p["%evil%"] read file f return distinct f`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Set.Len() != 1 || res.Set.Rows[0][0].S != "/etc/shadow" {
		t.Fatalf("got %v", res.Set.Strings())
	}
}

func TestFuzzyHuntToleratesTypos(t *testing.T) {
	sys, _ := loadCase(t, "data_leak")
	// "pasword" is a typo: exact search misses, fuzzy search aligns.
	query := `proc p1["%/bin/tar%"] read file f1["%/etc/pasword%"] as e1
return distinct p1, f1`
	exact, _, err := sys.Hunt(nil, query)
	if err != nil {
		t.Fatal(err)
	}
	if exact.Set.Len() != 0 {
		t.Fatalf("exact search should miss the typo: %v", exact.Set.Strings())
	}
	als, err := sys.FuzzyHunt(nil, query, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(als) == 0 {
		t.Fatal("fuzzy search should align despite the typo")
	}
	found := false
	for _, al := range als {
		if al.Entities["f1"] == "/etc/passwd" {
			found = true
		}
	}
	if !found {
		t.Errorf("expected /etc/passwd alignment: %+v", als)
	}
}

// TestFuzzyHuntHonorsCancellation: a context cancelled before the search
// stops it once admitted, as Hunt does, with no alignments.
func TestFuzzyHuntHonorsCancellation(t *testing.T) {
	sys, _ := loadCase(t, "data_leak")
	query := `proc p1["%/bin/tar%"] read file f1["%/etc/passwd%"] as e1
return distinct p1, f1`
	if als, err := sys.FuzzyHunt(nil, query, true); err != nil || len(als) == 0 {
		t.Fatalf("uncancelled search: %d alignments, err %v", len(als), err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	als, err := sys.FuzzyHunt(ctx, query, true)
	if !errors.Is(err, context.Canceled) || als != nil {
		t.Fatalf("cancelled search: %d alignments, err %v; want none and context.Canceled", len(als), err)
	}
}

func TestSynthesisModes(t *testing.T) {
	c := cases.ByID("data_leak")
	gen, err := c.Generate(0.2)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.SynthesisMode = 1 // length-1 paths
	sys := New(opts)
	if err := sys.LoadLog(gen.Log); err != nil {
		t.Fatal(err)
	}
	query, hits, err := sys.HuntOSCTI(nil, c.Report)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(query, "->[") {
		t.Errorf("length-1 path syntax missing:\n%s", query)
	}
	if hits.Set.Len() != 1 {
		t.Fatalf("rows = %d", hits.Set.Len())
	}
}

// TestLiveIngestAndWatch drives the façade's streaming surface: Ingest
// tails a byte stream, Watch fires on a newly appended behavior, and
// FlushStream makes the store batch-equivalent for a subsequent Hunt.
func TestLiveIngestAndWatch(t *testing.T) {
	sys := New(DefaultOptions())
	sub, err := sys.Watch(`proc p["%/bin/tar%"] read file f["%/etc/shadow%"] return p, f`)
	if err != nil {
		t.Fatal(err)
	}
	wire := "ts=1000000 call=read pid=7 exe=/bin/tar user=root fd=file path=/etc/shadow bytes=128\n" +
		"ts=9000000 call=read pid=8 exe=/usr/bin/vim user=alice fd=file path=/home/alice/x bytes=1\n"
	if _, err := sys.Ingest(strings.NewReader(wire)); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-sub.C:
		if len(m.Row) != 2 || m.Row[0].S != "/bin/tar" || m.Row[1].S != "/etc/shadow" {
			t.Fatalf("match = %+v", m)
		}
	default:
		t.Fatal("standing query did not fire on the appended behavior")
	}
	if _, err := sys.FlushStream(); err != nil {
		t.Fatal(err)
	}
	res, _, err := sys.Hunt(nil, `proc p read file f["%/home/alice/x%"] return p, f`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Set.Len() != 1 {
		t.Fatalf("hunt over flushed stream = %v", res.Set.Strings())
	}
	// The stream owns the store: batch loads must be refused while live.
	if err := sys.LoadAuditLog(strings.NewReader(wire)); err == nil {
		t.Fatal("LoadAuditLog must fail while a live session is active")
	}
}

// TestExplainKeepsHuntPlanCached: Explain compiles through the engine's
// compiled-query cache, so explaining a hunted text reuses the hunt's entry
// — however many times it is explained, the hunt's cached plan survives.
// Sharded, hunts compile on the coordinator's global engine, and Explain
// shares its cache.
func TestExplainKeepsHuntPlanCached(t *testing.T) {
	gen, err := cases.ByID("data_leak").Generate(0.3)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{0, 2} {
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			opts := DefaultOptions()
			opts.Shards = shards
			sys := New(opts)
			if err := sys.LoadLog(gen.Log); err != nil {
				t.Fatal(err)
			}
			const q = `proc p["%/bin/tar%"] read file f["%/etc/passwd%"] return distinct p, f`
			if _, _, err := sys.Hunt(nil, q); err != nil {
				t.Fatal(err)
			}
			want, err := sys.engine.Compile(q)
			if err != nil {
				t.Fatal(err)
			}
			if sh := sys.ShardStore(); sh != nil && sh.GlobalEngine() != sys.engine {
				t.Fatal("the sharded system explains on another engine than its coordinator hunts on")
			}
			for i := 0; i < 300; i++ {
				if _, err := sys.Explain(q); err != nil {
					t.Fatal(err)
				}
			}
			if got, err := sys.engine.Compile(q); err != nil || got != want {
				t.Fatalf("explaining evicted the hunt's cached plan (err %v)", err)
			}
		})
	}
}

// TestOldPartitionerDataDirRefused pins that a data dir persisted under
// the removed host or hash partitioners is refused through the topology
// check: the error names the persisted partitioner, and no sharded store
// comes up re-routing the stored events into time slices.
func TestOldPartitionerDataDirRefused(t *testing.T) {
	const line = "ts=1800000000000000 call=read pid=4242 exe=/usr/bin/scp user=root fd=file path=/etc/passwd bytes=10\n"
	for _, old := range []string{"host", "hash"} {
		t.Run(old, func(t *testing.T) {
			opts := DefaultOptions()
			opts.DataDir, opts.Shards, opts.PartitionBy = t.TempDir(), 2, "time:2s"
			sys := New(opts)
			if _, err := sys.Ingest(strings.NewReader(line)); err != nil {
				t.Fatal(err)
			}
			if _, err := sys.FlushStream(); err != nil {
				t.Fatal(err)
			}
			if err := sys.Close(); err != nil {
				t.Fatal(err)
			}
			m, err := segment.ReadManifest(opts.DataDir)
			if err != nil {
				t.Fatal(err)
			}
			m.Partitioner = old
			if err := segment.WriteManifest(opts.DataDir, m); err != nil {
				t.Fatal(err)
			}

			sys = New(opts)
			_, err = sys.Live()
			if want := fmt.Sprintf("partitioner %q", old); err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("reopen = %v, want the topology mismatch naming %s", err, want)
			}
			if sys.ShardStore() != nil {
				t.Fatal("the refused data dir still built a sharded store")
			}
		})
	}
	for _, spec := range []string{"host", "hash"} {
		if _, err := shard.ParsePartitioner(spec); err == nil || !strings.Contains(err.Error(), "time or time:<duration>") {
			t.Errorf("ParsePartitioner(%q) = %v, want an error naming the accepted forms", spec, err)
		}
	}
}

// TestUnshardedRunRejectsBadPartitioner checks that PartitionBy is parsed
// without shards too: an unsharded LoadLog, an unsharded durable open of a
// fresh data dir and an unsharded reopen of a persisted one each fail with
// ParsePartitioner's error instead of ignoring the spec.
func TestUnshardedRunRejectsBadPartitioner(t *testing.T) {
	const line = "ts=1800000000000000 call=read pid=4242 exe=/usr/bin/scp user=root fd=file path=/etc/passwd bytes=10\n"
	_, parseErr := shard.ParsePartitioner("host")
	if parseErr == nil {
		t.Fatal(`ParsePartitioner("host") accepted the spec`)
	}
	bad := DefaultOptions()
	bad.PartitionBy = "host"
	if err := New(bad).LoadLog(audit.NewLog()); err == nil || err.Error() != parseErr.Error() {
		t.Errorf("unsharded LoadLog = %v, want %v", err, parseErr)
	}

	bad.DataDir = t.TempDir()
	if _, err := New(bad).Live(); err == nil || err.Error() != parseErr.Error() {
		t.Errorf("unsharded durable open of a fresh dir = %v, want %v", err, parseErr)
	}

	good := DefaultOptions()
	good.DataDir = t.TempDir()
	sys := New(good)
	if _, err := sys.Ingest(strings.NewReader(line)); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.FlushStream(); err != nil {
		t.Fatal(err)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	bad.DataDir = good.DataDir
	if _, err := New(bad).Live(); err == nil || err.Error() != parseErr.Error() {
		t.Errorf("unsharded durable reopen = %v, want %v", err, parseErr)
	}
	if _, err := New(good).Live(); err != nil {
		t.Errorf("reopen with the persisted configuration: %v", err)
	}
}
