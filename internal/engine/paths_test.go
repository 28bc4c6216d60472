package engine_test

import (
	"context"
	"reflect"
	"sort"
	"strings"
	"testing"

	"threatraptor/internal/audit"
	"threatraptor/internal/cases"
	"threatraptor/internal/engine"
	"threatraptor/internal/extract"
	"threatraptor/internal/segment"
	"threatraptor/internal/shard"
	"threatraptor/internal/synth"
	"threatraptor/internal/tbql"
)

// hunter is what every way of running the scheduled plan offers: full
// executions, delta rounds, and appends to the store underneath.
type hunter interface {
	Execute(ctx context.Context, a *tbql.Analyzed) (*engine.Result, engine.Stats, error)
	ExecuteDelta(ctx context.Context, a *tbql.Analyzed, minEventID int64) (*engine.Result, engine.Stats, error)
	AppendBatch(entities []*audit.Entity, events []audit.Event) error
}

// single adapts an engine and its store to hunter.
type single struct{ *engine.Engine }

func (s single) AppendBatch(entities []*audit.Entity, events []audit.Event) error {
	return s.Store.AppendBatch(entities, events)
}

// rowSet canonicalizes result rows as a sorted set: the engine defines no
// row order, and a delta round reports a binding once per delta pattern.
func rowSet(rows ...[][]string) []string {
	seen := map[string]bool{}
	out := []string{}
	for _, rs := range rows {
		for _, r := range rs {
			if k := strings.Join(r, "\x00"); !seen[k] {
				seen[k] = true
				out = append(out, k)
			}
		}
	}
	sort.Strings(out)
	return out
}

func eventSet(sets ...map[int64]bool) map[int64]bool {
	out := map[int64]bool{}
	for _, s := range sets {
		for ev := range s {
			out[ev] = true
		}
	}
	return out
}

// TestScheduledLoopEquivalence is the one equivalence table of the
// scheduled-plan loop: for the query synthesized from every benchmark
// case's report — with event patterns, and again with bounded
// variable-length paths, whose delta turns floor the traversal rather than
// an event — every way of feeding the loop its pattern rows (the engine's
// own data queries, its materialized views, a store recovered from its
// encoded segment image, and scatter-gather over 2 and 4 partitions) must
// return the rows and matched events of the unscheduled oracle
// (declaration order, no binding feed). Each leg builds its store from the
// first half of the log, hunts it, appends the second half, and is then
// held to the oracle twice: by a full execution, and by the delta identity
// (bindings over the old events) ∪ (delta round from the append's floor) =
// all bindings.
func TestScheduledLoopEquivalence(t *testing.T) {
	modes := []struct {
		name string
		opts synth.Options
	}{
		{"event", synth.Options{}},
		{"varlen", synth.Options{Mode: synth.ModeVarLenPaths, MaxPathLen: 3}},
	}
	for _, c := range cases.All() {
		c := c
		t.Run(c.ID, func(t *testing.T) {
			t.Parallel()
			gen, err := c.Generate(0.5)
			if err != nil {
				t.Fatal(err)
			}
			full, err := engine.NewStore(gen.Log)
			if err != nil {
				t.Fatal(err)
			}
			graph := extract.New(extract.DefaultOptions()).Extract(c.Report).Graph
			for _, m := range modes {
				t.Run(m.name, func(t *testing.T) {
					q, _, err := synth.Synthesize(graph, m.opts)
					if err != nil {
						t.Fatal(err)
					}
					a, err := tbql.Analyze(q)
					if err != nil {
						t.Fatal(err)
					}
					checkLoopEquivalence(t, gen.Log, full, a)
				})
			}
		})
	}
}

// loopLegs are the ways of running the scheduled plan that
// TestScheduledLoopEquivalence holds to the oracle.
var loopLegs = []struct {
	name string
	open func(log *audit.Log) (hunter, error)
}{
	{"scheduled+delta-views", func(log *audit.Log) (hunter, error) {
		st, err := engine.NewStore(log)
		return single{&engine.Engine{Store: st}}, err
	}},
	{"scheduled+delta-recompute", func(log *audit.Log) (hunter, error) {
		st, err := engine.NewStore(log)
		return single{&engine.Engine{Store: st, ViewHighWater: -1}}, err
	}},
	{"recovered", func(log *audit.Log) (hunter, error) {
		st, err := engine.NewStore(log)
		if err != nil {
			return nil, err
		}
		img, err := segment.DecodeSegment(segment.Encode(engine.DumpImage(st, true)))
		if err != nil {
			return nil, err
		}
		st, err = engine.OpenStore(img, img.EntityCols, img.Entities, audit.RestoreTable(img.Entities))
		return single{&engine.Engine{Store: st}}, err
	}},
	{"shards2", func(log *audit.Log) (hunter, error) { return shard.New(log, 2, 1_000_000) }},
	{"shards4", func(log *audit.Log) (hunter, error) { return shard.New(log, 4, 2_000_000) }},
}

// checkLoopEquivalence holds every leg, built over log's halves, to the
// unscheduled oracle on full (the store of the whole log).
func checkLoopEquivalence(t *testing.T, log *audit.Log, full *engine.Store, a *tbql.Analyzed) {
	t.Helper()
	oracle, _, err := (&engine.Engine{Store: full, DisableScheduling: true}).Execute(nil, a)
	if err != nil {
		t.Fatal(err)
	}
	wantRows, wantEvents := rowSet(oracle.Set.Strings()), eventSet(oracle.MatchedEvents)

	events := log.Events
	half := len(events) / 2
	floor := events[half].ID
	for _, leg := range loopLegs {
		h, err := leg.open(&audit.Log{
			Entities: log.Entities,
			Events:   append([]audit.Event(nil), events[:half]...),
		})
		if err != nil {
			t.Fatalf("%s: %v", leg.name, err)
		}
		pre, _, err := h.Execute(nil, a)
		if err != nil {
			t.Fatalf("%s pre-append: %v", leg.name, err)
		}
		if err := h.AppendBatch(nil, append([]audit.Event(nil), events[half:]...)); err != nil {
			t.Fatalf("%s append: %v", leg.name, err)
		}
		res, _, err := h.Execute(nil, a)
		if err != nil {
			t.Fatalf("%s: %v", leg.name, err)
		}
		if got := rowSet(res.Set.Strings()); !reflect.DeepEqual(got, wantRows) {
			t.Errorf("%s rows differ from the oracle:\ngot  %q\nwant %q", leg.name, got, wantRows)
		}
		if !reflect.DeepEqual(eventSet(res.MatchedEvents), wantEvents) {
			t.Errorf("%s matched %d events, oracle %d", leg.name, len(res.MatchedEvents), len(wantEvents))
		}
		delta, _, err := h.ExecuteDelta(nil, a, floor)
		if err != nil {
			t.Fatalf("%s delta: %v", leg.name, err)
		}
		if got := rowSet(pre.Set.Strings(), delta.Set.Strings()); !reflect.DeepEqual(got, wantRows) {
			t.Errorf("%s pre ∪ delta rows differ from the oracle:\ngot  %q\nwant %q", leg.name, got, wantRows)
		}
		if got := eventSet(pre.MatchedEvents, delta.MatchedEvents); !reflect.DeepEqual(got, wantEvents) {
			t.Errorf("%s pre ∪ delta matched %d events, oracle %d", leg.name, len(got), len(wantEvents))
		}
	}
}
