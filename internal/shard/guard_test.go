package shard

import (
	"errors"
	"testing"

	"threatraptor/internal/cases"
	"threatraptor/internal/engine"
	"threatraptor/internal/tbql"
)

// TestCoordinatorPanicIsolated pins that the scatter row source runs under
// the engine's per-query panic boundary: a panic while routing a pattern
// surfaces from Execute and ExecuteDelta as a typed
// *engine.InternalError instead of unwinding into the caller. The fault is
// a published View with no per-partition stats, which route indexes on the
// hunting goroutine, outside every per-shard ScatterPattern boundary.
func TestCoordinatorPanicIsolated(t *testing.T) {
	gen, err := cases.ByID("data_leak").Generate(0.2)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := New(gen.Log, 2, 2_000_000)
	if err != nil {
		t.Fatal(err)
	}
	v := sh.View()
	sh.view.Store(&View{Global: v.Global, Shards: v.Shards})
	const src = `proc p read file f return distinct p, f`
	q, err := tbql.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	a, err := tbql.Analyze(q)
	if err != nil {
		t.Fatal(err)
	}
	for name, run := range map[string]func() error{
		"Execute":      func() error { _, _, err := sh.Execute(nil, a); return err },
		"ExecuteDelta": func() error { _, _, err := sh.ExecuteDelta(nil, a, 1); return err },
	} {
		var ie *engine.InternalError
		if err := run(); !errors.As(err, &ie) {
			t.Errorf("%s: got %v (%T), want *engine.InternalError", name, err, err)
		} else if ie.Query == "" || len(ie.Stack) == 0 {
			t.Errorf("%s: InternalError missing context: query=%q stack=%d bytes", name, ie.Query, len(ie.Stack))
		}
	}
}
