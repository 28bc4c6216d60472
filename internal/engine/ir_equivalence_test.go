package engine

import (
	"fmt"
	"sort"
	"testing"

	"threatraptor/internal/audit"
	"threatraptor/internal/cases"
	"threatraptor/internal/extract"
	"threatraptor/internal/synth"
	"threatraptor/internal/tbql"
)

// caseAnalyzed synthesizes and analyzes the TBQL query of one benchmark
// case, exactly as the end-to-end pipeline would.
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

// legacyPatternRows executes one pattern through the legacy text path: the
// EXPLAIN-only SQL/Cypher generators render the query with the extras
// spliced as text, and the backend's parser-fed entry point runs it.
func legacyPatternRows(t *testing.T, store *Store, a *tbql.Analyzed, idx int, sp PatternQuery) [][5]int64 {
	t.Helper()
	var extra []string
	if len(sp.Subj) > 0 {
		extra = append(extra, inList("s", sp.Subj))
	}
	if len(sp.Obj) > 0 {
		extra = append(extra, inList("o", sp.Obj))
	}
	if sp.Delta > 0 {
		extra = append(extra, fmt.Sprintf("e.id >= %d", sp.Delta))
	}
	p := a.Query.Patterns[idx]
	var rows [][5]int64
	if p.Path != nil {
		cy := CompilePatternCypher(store, a, idx, extra)
		rs, err := store.Graph.Query(cy)
		if err != nil {
			t.Fatalf("legacy Cypher: %v\n%s", err, cy)
		}
		hasEvent := len(rs.Columns) == 5
		for _, row := range rs.Rows {
			var r [5]int64
			if hasEvent {
				for i := 0; i < 5; i++ {
					r[i] = row[i].I
				}
			} else {
				r[1], r[2] = row[0].I, row[1].I
			}
			rows = append(rows, r)
		}
		return rows
	}
	sql := CompilePatternSQL(store, a, idx, extra)
	rs, err := store.Rel.Query(sql)
	if err != nil {
		t.Fatalf("legacy SQL: %v\n%s", err, sql)
	}
	for _, row := range rs.Rows {
		rows = append(rows, [5]int64{row[0].I, row[1].I, row[2].I, row[3].I, row[4].I})
	}
	return rows
}

func sortedRows(rows [][5]int64) [][5]int64 {
	out := append([][5]int64(nil), rows...)
	sort.Slice(out, func(a, b int) bool {
		for k := 0; k < 5; k++ {
			if out[a][k] != out[b][k] {
				return out[a][k] < out[b][k]
			}
		}
		return false
	})
	return out
}

// bindingSample derives a small sorted unique binding set from a column of
// the pattern's unconstrained rows, as the scheduler would feed forward.
func bindingSample(rows [][5]int64, col, max int) []int64 {
	seen := map[int64]bool{}
	var ids []int64
	for _, r := range rows {
		if !seen[r[col]] {
			seen[r[col]] = true
			ids = append(ids, r[col])
		}
		if len(ids) >= max {
			break
		}
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	return ids
}

// TestIRGoldenEquivalence is the golden suite of the IR refactor: for the
// synthesized query of EVERY benchmark case — including all cases from the
// four DARPA TC case files (ClearScope, FiveDirections, THEIA, TRACE) —
// every pattern's IR-path data query must return exactly the legacy text
// path's rows, across every extras shape the scheduler can produce
// (binding sets on either or both sides, and the standing-query delta
// floor).
func TestIRGoldenEquivalence(t *testing.T) {
	for _, c := range cases.All() {
		c := c
		t.Run(c.ID, func(t *testing.T) {
			gen, err := c.Generate(0.5)
			if err != nil {
				t.Fatal(err)
			}
			store, err := NewStore(gen.Log)
			if err != nil {
				t.Fatal(err)
			}
			a := caseAnalyzed(t, c)
			en := &Engine{Store: store}
			plan := en.planFor(a, nil, false)

			for idx, p := range a.Query.Patterns {
				// Unconstrained rows drive the binding-set samples.
				base, _, err := en.runPattern(nil, a, plan, nil, PatternQuery{Idx: idx})
				if err != nil {
					t.Fatal(err)
				}
				subj := bindingSample(base.Rows, 1, 8)
				obj := bindingSample(base.Rows, 2, 8)
				delta := int64(len(gen.Log.Events)/2 + 1)

				specs := []PatternQuery{
					{Idx: idx},
					{Idx: idx, Subj: subj},
					{Idx: idx, Obj: obj},
					{Idx: idx, Subj: subj, Obj: obj},
				}
				// The delta floor applies only where the data query binds
				// an event: relational patterns and edge-var path queries
				// (ExecuteDelta routes everything else to full re-runs).
				if p.Path == nil || plan.pats[idx].ir.Path.HasEdgeVar {
					specs = append(specs, PatternQuery{Idx: idx, Delta: delta}, PatternQuery{Idx: idx, Subj: subj, Delta: delta})
				}
				for si, sp := range specs {
					got, _, err := en.runPattern(nil, a, plan, nil, sp)
					if err != nil {
						t.Fatalf("pattern %s spec %d: %v", p.ID, si, err)
					}
					want := legacyPatternRows(t, store, a, idx, sp)
					g, w := sortedRows(got.Rows), sortedRows(want)
					if len(g) != len(w) {
						t.Fatalf("pattern %s spec %d: IR %d rows, legacy %d rows", p.ID, si, len(g), len(w))
					}
					for i := range g {
						if g[i] != w[i] {
							t.Fatalf("pattern %s spec %d row %d: IR %v, legacy %v", p.ID, si, i, g[i], w[i])
						}
					}
				}
			}
		})
	}
}

// TestIRLiveAppendEquivalence covers the live/append scenario: a store
// built in two halves through AppendBatch must answer every case's
// synthesized query exactly like a store batch-built from the full log.
func TestIRLiveAppendEquivalence(t *testing.T) {
	for _, c := range cases.All() {
		c := c
		t.Run(c.ID, func(t *testing.T) {
			gen, err := c.Generate(0.3)
			if err != nil {
				t.Fatal(err)
			}
			full, err := NewStore(gen.Log)
			if err != nil {
				t.Fatal(err)
			}
			half := len(gen.Log.Events) / 2
			liveLog := &audit.Log{
				Entities: gen.Log.Entities,
				Events:   append([]audit.Event(nil), gen.Log.Events[:half]...),
			}
			live, err := NewStore(liveLog)
			if err != nil {
				t.Fatal(err)
			}
			enLive := &Engine{Store: live}
			a := caseAnalyzed(t, c)

			// Execute against the half store first so cached plans must
			// survive (or correctly invalidate across) the append.
			if _, _, err := enLive.Execute(nil, a); err != nil {
				t.Fatal(err)
			}
			rest := append([]audit.Event(nil), gen.Log.Events[half:]...)
			if err := live.AppendBatch(nil, rest); err != nil {
				t.Fatal(err)
			}

			enFull := &Engine{Store: full}
			want, _, err := enFull.Execute(nil, a)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := enLive.Execute(nil, a)
			if err != nil {
				t.Fatal(err)
			}
			if !sameRows(want.Set.Strings(), got.Set.Strings()) {
				t.Fatalf("live/append store differs from batch store:\n%v\n%v",
					want.Set.Strings(), got.Set.Strings())
			}

			// Golden delta leg: for every case, the materialized-view
			// delta round over the appended half must equal the recompute
			// path's round, row for row.
			floor := int64(half) + 1
			enRecomp := &Engine{Store: live, ViewHighWater: -1}
			vres, _, err := enLive.ExecuteDelta(nil, a, floor)
			if err != nil {
				t.Fatal(err)
			}
			rres, _, err := enRecomp.ExecuteDelta(nil, a, floor)
			if err != nil {
				t.Fatal(err)
			}
			if !sameRows(vres.Set.Strings(), rres.Set.Strings()) {
				t.Fatalf("view delta round differs from recompute:\n%v\n%v",
					vres.Set.Strings(), rres.Set.Strings())
			}
		})
	}
}
