package fuzzy

import (
	"reflect"
	"testing"

	"threatraptor/internal/audit"
	"threatraptor/internal/cases"
	"threatraptor/internal/engine"
	"threatraptor/internal/extract"
	"threatraptor/internal/segment"
	"threatraptor/internal/synth"
	"threatraptor/internal/tbql"
)

// TestSearchAgreesOnEveryStorePath: the Searcher reads the graph's
// adjacency, which a store builds in one pass at load, grows (and
// re-sorts) batch by batch on append, or installs from a segment image on
// open. For every case's synthesized query, in both modes, the three
// stores must give the same candidates, iterations and alignments.
func TestSearchAgreesOnEveryStorePath(t *testing.T) {
	ex := extract.New(extract.DefaultOptions())
	aligned := 0
	for _, c := range cases.All() {
		t.Run(c.ID, func(t *testing.T) {
			gen, err := c.Generate(0.1)
			if err != nil {
				t.Fatal(err)
			}
			q, _, err := synth.Synthesize(ex.Extract(c.Report).Graph, synth.Options{})
			if err != nil {
				t.Fatal(err)
			}
			a, err := tbql.Analyze(q)
			if err != nil {
				t.Fatal(err)
			}
			qg, err := FromTBQL(a)
			if err != nil {
				t.Fatal(err)
			}
			stores := storePaths(t, gen.Log)
			for _, mode := range []Mode{ModeExhaustive, ModeFirstAcceptable} {
				want := NewSearcher(stores[0].Snapshot(), qg, mode)
				wantAls := search(t, want)
				aligned += len(wantAls)
				for i, st := range stores[1:] {
					got := NewSearcher(st.Snapshot(), qg, mode)
					gotAls := search(t, got)
					if !reflect.DeepEqual(got.Candidates, want.Candidates) || got.Iterations != want.Iterations {
						t.Errorf("mode %d, store %d: candidates/iterations differ from the built store", mode, i+1)
					}
					if !reflect.DeepEqual(gotAls, wantAls) {
						t.Errorf("mode %d, store %d: alignments\n got  %+v\n want %+v", mode, i+1, gotAls, wantAls)
					}
				}
			}
		})
	}
	if aligned == 0 {
		t.Fatal("no case aligned: the comparison is vacuous")
	}
}

// storePaths returns three stores over log: built by NewStore, built from
// a prefix with the rest appended in four chunks, and reopened from a
// segment image of the built one.
func storePaths(t *testing.T, log *audit.Log) []*engine.Store {
	t.Helper()
	built, err := engine.NewStore(log)
	if err != nil {
		t.Fatal(err)
	}

	events := log.Events
	chunk := len(events)/5 + 1
	appended, err := engine.NewStore(&audit.Log{
		Entities: log.Entities,
		Events:   append([]audit.Event(nil), events[:chunk]...),
	})
	if err != nil {
		t.Fatal(err)
	}
	for lo := chunk; lo < len(events); lo += chunk {
		hi := min(lo+chunk, len(events))
		if err := appended.AppendBatch(nil, append([]audit.Event(nil), events[lo:hi]...)); err != nil {
			t.Fatal(err)
		}
	}

	img, err := segment.DecodeSegment(segment.Encode(engine.DumpImage(built, true)))
	if err != nil {
		t.Fatal(err)
	}
	reopened, err := engine.OpenStore(img, img.EntityCols, img.Entities, audit.RestoreTable(img.Entities))
	if err != nil {
		t.Fatal(err)
	}
	return []*engine.Store{built, appended, reopened}
}
