package shard

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"threatraptor/internal/audit"
	"threatraptor/internal/cases"
	"threatraptor/internal/engine"
	"threatraptor/internal/extract"
	"threatraptor/internal/faultinject"
	"threatraptor/internal/synth"
	"threatraptor/internal/tbql"
)

// eqConfigs is the acceptance matrix: every shard count crossed with
// every partitioner family. The 2-second time slices make the generated
// logs (which advance in multi-second phases) actually spread across
// time partitions instead of degenerating into one.
var eqConfigs = []struct {
	name string
	n    int
	part Partitioner
}{
	{"1xhash", 1, ByHash()},
	{"2xhash", 2, ByHash()},
	{"4xhash", 4, ByHash()},
	{"8xhash", 8, ByHash()},
	{"2xhost", 2, ByHost()},
	{"4xhost", 4, ByHost()},
	{"8xhost", 8, ByHost()},
	{"2xtime", 2, ByTime(2_000_000)},
	{"4xtime", 4, ByTime(2_000_000)},
	{"8xtime", 8, ByTime(2_000_000)},
}

// sortedRows canonicalizes a result set for order-insensitive comparison
// (the engine does not define a row order; the scatter path does).
func sortedRows(rows [][]string) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = strings.Join(r, "|")
	}
	sort.Strings(out)
	return out
}

func sameEventSet(a, b map[int64]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// caseAnalyzed derives the TBQL query a case's report synthesizes — the
// same derivation the engine's execution-path equivalence test uses.
func caseAnalyzed(t *testing.T, c *cases.Case) *tbql.Analyzed {
	t.Helper()
	graph := extract.New(extract.DefaultOptions()).Extract(c.Report).Graph
	q, _, err := synth.Synthesize(graph, synth.Options{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := tbql.Analyze(q)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestShardedHuntEquivalence is the tentpole acceptance property: for the
// query synthesized from every generated case's report, the scatter-gather
// result over every (shard count x partitioner) configuration must equal
// the single-store engine's result — same rows (compared canonically
// sorted; the engine defines no row order) and the same matched-event set.
// Additionally, all sharded configurations must agree byte-for-byte in
// raw row order: the gathered rows merge in global event-ID order, so the
// output is a pure function of the data, independent of shard count,
// partitioner, and scatter timing.
func TestShardedHuntEquivalence(t *testing.T) {
	for _, c := range cases.All() {
		c := c
		t.Run(c.ID, func(t *testing.T) {
			t.Parallel()
			gen, err := c.Generate(0.5)
			if err != nil {
				t.Fatal(err)
			}
			a := caseAnalyzed(t, c)

			ref, err := engine.NewStore(gen.Log)
			if err != nil {
				t.Fatal(err)
			}
			res, _, err := (&engine.Engine{Store: ref}).Execute(nil, a)
			if err != nil {
				t.Fatal(err)
			}
			want := sortedRows(res.Set.Strings())

			var baseline string // raw (unsorted) rows of the first config
			for _, cfg := range eqConfigs {
				sh, err := New(gen.Log, cfg.n, cfg.part)
				if err != nil {
					t.Fatalf("%s: %v", cfg.name, err)
				}
				sres, _, err := sh.Execute(nil, a)
				if err != nil {
					t.Fatalf("%s: %v", cfg.name, err)
				}
				if got := sortedRows(sres.Set.Strings()); !reflect.DeepEqual(got, want) {
					t.Errorf("%s rows differ from unsharded:\ngot  %v\nwant %v", cfg.name, got, want)
				}
				if !sameEventSet(sres.MatchedEvents, res.MatchedEvents) {
					t.Errorf("%s matched %d events, unsharded %d",
						cfg.name, len(sres.MatchedEvents), len(res.MatchedEvents))
				}
				raw := fmt.Sprint(sres.Set.Strings())
				if baseline == "" {
					baseline = raw
				} else if raw != baseline {
					t.Errorf("%s raw row order differs from %s:\n%s\n%s",
						cfg.name, eqConfigs[0].name, raw, baseline)
				}
			}
		})
	}
}

// TestShardedVarLenEquivalence covers the global-routing path: a
// variable-length flow chains events across partitions under every
// partitioner, so its pattern must route to the authoritative global
// store — and a mixed query must join those global flow rows with
// scattered event-pattern rows through the shared entity table.
func TestShardedVarLenEquivalence(t *testing.T) {
	c := cases.ByID("data_leak")
	if c == nil {
		t.Fatal("data_leak case missing")
	}
	gen, err := c.Generate(0.5)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := engine.NewStore(gen.Log)
	if err != nil {
		t.Fatal(err)
	}
	refEngine := &engine.Engine{Store: ref}

	queries := []string{
		// Pure variable-length flow.
		`proc p1["%/bin/tar%"] ~>(1~8)[connect] ip i1["192.168.29.128"]
return distinct p1, i1`,
		// Mixed: a scattered event pattern joined with a global flow pattern
		// through the shared entity intern table.
		`proc p1["%/bin/tar%"] read file f1["%/etc/passwd%"] as evt1
proc p1 ~>(1~8)[connect] ip i1["192.168.29.128"]
return distinct p1, f1, i1`,
	}
	for _, cfg := range eqConfigs {
		sh, err := New(gen.Log, cfg.n, cfg.part)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range queries {
			res, _, err := refEngine.Hunt(nil, q)
			if err != nil {
				t.Fatal(err)
			}
			want := sortedRows(res.Set.Strings())
			if len(want) == 0 {
				t.Fatalf("reference hunt returned no rows; equivalence would be vacuous")
			}
			sres, _, err := sh.Hunt(nil, q)
			if err != nil {
				t.Fatalf("%s: %v", cfg.name, err)
			}
			if got := sortedRows(sres.Set.Strings()); !reflect.DeepEqual(got, want) {
				t.Errorf("%s %q:\ngot  %v\nwant %v", cfg.name, q, got, want)
			}
		}
		if sh.GlobalRouted() == 0 {
			t.Errorf("%s: no pattern routed to the global store", cfg.name)
		}
	}
}

// TestShardedDeltaEquivalence checks the standing-query evaluation rule:
// after appending a suffix batch, ExecuteDelta over the sharded store must
// return the same delta bindings as the unsharded engine's recompute over
// the full store with the same event-ID floor.
func TestShardedDeltaEquivalence(t *testing.T) {
	c := cases.ByID("data_leak")
	if c == nil {
		t.Fatal("data_leak case missing")
	}
	gen, err := c.Generate(0.5)
	if err != nil {
		t.Fatal(err)
	}
	a := caseAnalyzed(t, c)
	full, err := engine.NewStore(gen.Log)
	if err != nil {
		t.Fatal(err)
	}
	// Disable materialized views: the recompute path is the shared oracle.
	refEngine := &engine.Engine{Store: full, ViewHighWater: -1}

	events := gen.Log.Events
	for _, split := range []int{len(events) / 2, len(events) * 9 / 10} {
		floor := events[split].ID
		res, _, err := refEngine.ExecuteDelta(nil, a, floor)
		if err != nil {
			t.Fatal(err)
		}
		want := sortedRows(res.Set.Strings())

		for _, cfg := range eqConfigs {
			prefix := &audit.Log{Entities: gen.Log.Entities, Events: events[:split]}
			sh, err := New(prefix, cfg.n, cfg.part)
			if err != nil {
				t.Fatal(err)
			}
			if err := sh.AppendBatch(nil, append([]audit.Event(nil), events[split:]...)); err != nil {
				t.Fatalf("%s append: %v", cfg.name, err)
			}
			if got, wantN := sh.Global().NextEventID(), full.NextEventID(); got != wantN {
				t.Fatalf("%s frontier %d, want %d", cfg.name, got, wantN)
			}
			sres, _, err := sh.ExecuteDelta(nil, a, floor)
			if err != nil {
				t.Fatalf("%s: %v", cfg.name, err)
			}
			if got := sortedRows(sres.Set.Strings()); !reflect.DeepEqual(got, want) {
				t.Errorf("%s split=%d delta rows differ:\ngot  %v\nwant %v", cfg.name, split, got, want)
			}
		}
	}
}

// TestShardedAppendFaultRollback is the chaos leg: a fault injected into
// ONE partition's append (the global append has already committed) must
// unwind the whole fleet — partitions and global — leaving the published
// View untouched, and a clean retry must converge on exactly the state of
// a never-faulted twin.
func TestShardedAppendFaultRollback(t *testing.T) {
	c := cases.ByID("data_leak")
	if c == nil {
		t.Fatal("data_leak case missing")
	}
	gen, err := c.Generate(0.3)
	if err != nil {
		t.Fatal(err)
	}
	emptyLog := func() *audit.Log {
		return &audit.Log{Entities: gen.Log.Entities}
	}
	sh, err := New(emptyLog(), 2, ByHash())
	if err != nil {
		t.Fatal(err)
	}
	twin, err := New(emptyLog(), 2, ByHash())
	if err != nil {
		t.Fatal(err)
	}
	batch := func(lo, hi int) []audit.Event {
		return append([]audit.Event(nil), gen.Log.Events[lo:hi]...)
	}
	mid := len(gen.Log.Events) / 2

	// Hit 1 is the global store's append (must succeed); hit 2 is the
	// first partition's append, which fails mid-fleet.
	faultinject.Arm(faultinject.Plan{
		engine.FaultAppendEventsRel: {Hits: []int{2}, Mode: faultinject.ModeError},
	})
	t.Cleanup(faultinject.Disarm)
	err = sh.AppendBatch(nil, batch(0, mid))
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("faulted append returned %v, want ErrInjected", err)
	}
	if got := sh.Rollbacks(); got != 1 {
		t.Fatalf("rollbacks = %d, want 1", got)
	}
	// The unwind must leave no published trace: frontier back at the
	// start, zero events globally and in every partition.
	if got := sh.Global().NextEventID(); got != 1 {
		t.Fatalf("frontier after rollback = %d, want 1", got)
	}
	v := sh.View()
	if len(v.Global.Events) != 0 {
		t.Fatalf("global snapshot kept %d events after rollback", len(v.Global.Events))
	}
	for i, st := range v.Stats {
		if st.Events != 0 {
			t.Fatalf("partition %d kept %d events after rollback", i, st.Events)
		}
	}

	// A clean retry of the identical batch converges with the twin.
	faultinject.Disarm()
	if err := sh.AppendBatch(nil, batch(0, mid)); err != nil {
		t.Fatalf("retry: %v", err)
	}
	if err := sh.AppendBatch(nil, batch(mid, len(gen.Log.Events))); err != nil {
		t.Fatal(err)
	}
	if err := twin.AppendBatch(nil, batch(0, mid)); err != nil {
		t.Fatal(err)
	}
	if err := twin.AppendBatch(nil, batch(mid, len(gen.Log.Events))); err != nil {
		t.Fatal(err)
	}
	if a, b := sh.Global().NextEventID(), twin.Global().NextEventID(); a != b {
		t.Fatalf("frontier diverged: %d vs twin %d", a, b)
	}
	if !reflect.DeepEqual(sh.Global().Log.Events, twin.Global().Log.Events) {
		t.Fatal("global event log diverged from never-faulted twin")
	}
	sv, tv := sh.View(), twin.View()
	for i := range sv.Stats {
		a, b := sv.Stats[i], tv.Stats[i]
		if a.Events != b.Events || a.FirstEventID != b.FirstEventID ||
			a.NextEventID != b.NextEventID || a.OpMask != b.OpMask {
			t.Fatalf("partition %d diverged: %+v vs twin %+v", i, a, b)
		}
	}
	a := caseAnalyzed(t, c)
	res, _, err := sh.Execute(nil, a)
	if err != nil {
		t.Fatal(err)
	}
	tres, _, err := twin.Execute(nil, a)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(res.Set.Strings()) != fmt.Sprint(tres.Set.Strings()) {
		t.Fatal("post-recovery hunt diverged from never-faulted twin")
	}
}
