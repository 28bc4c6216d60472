package engine

import (
	"strings"
	"testing"

	"threatraptor/internal/cases"
	"threatraptor/internal/extract"
	"threatraptor/internal/relational"
	"threatraptor/internal/synth"
	"threatraptor/internal/tbql"
)

// TestPatternRowsMatchResultSet pins the int-tuple row path: every lowered
// pattern of every case's query, in each synthesis mode (event patterns,
// length-1 paths, variable-length paths) and under a distinct and a plain
// return, hands runPattern's sink exactly the rows — in the same order —
// that the same compiled plan returns as a ResultSet. Each data query runs
// unbound, under subject and object binding sets and under a delta floor,
// on the live store and on a pinned snapshot, through one reused buffer.
func TestPatternRowsMatchResultSet(t *testing.T) {
	modes := []struct {
		name string
		opts synth.Options
	}{
		{"event", synth.Options{Mode: synth.ModeEventPatterns}},
		{"path1", synth.Options{Mode: synth.ModeLength1Paths}},
		{"varlen", synth.Options{Mode: synth.ModeVarLenPaths, MaxPathLen: 3}},
	}
	for _, c := range cases.All() {
		t.Run(c.ID, func(t *testing.T) {
			gen, err := c.Generate(0.2)
			if err != nil {
				t.Fatal(err)
			}
			store, err := NewStore(gen.Log)
			if err != nil {
				t.Fatal(err)
			}
			graph := extract.New(extract.DefaultOptions()).Extract(c.Report).Graph
			delta := int64(len(gen.Log.Events)/2 + 1)
			for _, m := range modes {
				for _, distinct := range []bool{false, true} {
					q, _, err := synth.Synthesize(graph, m.opts)
					if err != nil {
						t.Fatal(err)
					}
					q.Return.Distinct = distinct
					a, err := tbql.Analyze(q)
					if err != nil {
						t.Fatal(err)
					}
					en := &Engine{Store: store}
					plan := en.planFor(a, store.Snapshot(), false)
					for _, snap := range []*Snapshot{nil, store.Snapshot()} {
						var buf patternBuf
						for idx := range a.Query.Patterns {
							base, _, err := en.runPattern(nil, a, plan, snap, PatternQuery{Idx: idx}, nil)
							if err != nil {
								t.Fatal(err)
							}
							subj, obj := bindingSample(base.Rows, 1, 8), bindingSample(base.Rows, 2, 8)
							for si, sp := range []PatternQuery{
								{Idx: idx},
								{Idx: idx, Subj: subj},
								{Idx: idx, Obj: obj},
								{Idx: idx, Subj: subj, Obj: obj},
								{Idx: idx, Delta: delta},
								{Idx: idx, Subj: subj, Delta: delta},
							} {
								got, _, err := en.runPattern(nil, a, plan, snap, sp, &buf)
								if err != nil {
									t.Fatal(err)
								}
								want := resultSetRows(t, en, a, plan, snap, sp)
								if len(got.Rows) != len(want) {
									t.Fatalf("%s distinct=%v snap=%v pattern %d spec %d: sink %d rows, ResultSet %d",
										m.name, distinct, snap != nil, idx, si, len(got.Rows), len(want))
								}
								for i := range want {
									if got.Rows[i] != want[i] {
										t.Fatalf("%s distinct=%v snap=%v pattern %d spec %d row %d: sink %v, ResultSet %v",
											m.name, distinct, snap != nil, idx, si, i, got.Rows[i], want[i])
									}
								}
							}
						}
					}
				}
			}
		})
	}
}

// resultSetRows runs data query q of the compiled plan through the
// backends' ResultSet path — same statement or traversal, same
// parameters — and converts the rows as [event, subject, object, start,
// end] (a variable-length path's (subject, object) pair at 1 and 2).
func resultSetRows(t *testing.T, en *Engine, a *tbql.Analyzed, plan *queryPlan, snap *Snapshot, q PatternQuery) [][5]int64 {
	t.Helper()
	pp := &plan.pats[q.Idx]
	var rs *relational.ResultSet
	var err error
	if pp.meta.UsesGraph {
		var st Stats
		var ids idSink
		params, none, perr := en.graphParams(nil, a, pp, snap, q, &ids, &st)
		if perr != nil {
			t.Fatal(perr)
		}
		if none {
			return nil
		}
		rs, _, err = en.Store.Graph.ExecPrepared(nil, pp.gp, params)
	} else {
		prep, params, perr := en.relQuery(a, pp, plan, snap, q)
		if perr != nil {
			t.Fatal(perr)
		}
		rs, _, err = prep.QueryCtx(nil, &params)
	}
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][5]int64, len(rs.Rows))
	for i, row := range rs.Rows {
		if len(row) == 5 {
			rows[i] = [5]int64{row[0].I, row[1].I, row[2].I, row[3].I, row[4].I}
		} else {
			rows[i] = [5]int64{0, row[0].I, row[1].I, 0, 0}
		}
	}
	return rows
}

// TestCrossKindPredicates pins what a predicate comparing a string
// attribute with an integer does on every pattern form — event pattern,
// length-1 path, var-length path with and without a typed final hop —
// scheduled and unscheduled: an ordering comparison fails the hunt with
// the evaluator's "cannot compare" error, and an equality matches nothing.
func TestCrossKindPredicates(t *testing.T) {
	gen, err := cases.ByID("data_leak").Generate(0.2)
	if err != nil {
		t.Fatal(err)
	}
	store, err := NewStore(gen.Log)
	if err != nil {
		t.Fatal(err)
	}
	for _, unscheduled := range []bool{false, true} {
		for _, form := range []string{"read", "->[read]", "~>(1~3)", "~>(1~3)[write]"} {
			for _, pred := range []string{"name > 7", "name = 7"} {
				src := `proc p ` + form + ` file f[` + pred + `] return p, f`
				en := &Engine{Store: store, DisableScheduling: unscheduled}
				res, _, err := en.Hunt(nil, src)
				if strings.Contains(pred, ">") {
					if err == nil || !strings.Contains(err.Error(), "cannot compare") {
						t.Errorf("unscheduled=%v %q: err %v, want a cannot compare error", unscheduled, src, err)
					}
					continue
				}
				if err != nil || len(res.Set.Rows) != 0 {
					t.Errorf("unscheduled=%v %q: %d rows, err %v; want no rows", unscheduled, src, len(res.Set.Rows), err)
				}
			}
		}
	}
}
