package shard

import (
	"errors"
	"testing"

	"threatraptor/internal/cases"
	"threatraptor/internal/engine"
	"threatraptor/internal/tbql"
)

// panicRouter is a hash partitioner whose host routing panics: a fault in
// coordinator code, which runs on the hunting goroutine outside every
// per-shard ScatterPattern boundary.
type panicRouter struct{ hashPart }

func (panicRouter) HostShard(string, int) int { panic("host routing fault") }

// TestCoordinatorPanicIsolated pins that the scatter row source runs under
// the engine's per-query panic boundary: a panic while routing a pattern
// surfaces from Hunt, Execute, and ExecuteDelta as a typed
// *engine.InternalError instead of unwinding into the caller.
func TestCoordinatorPanicIsolated(t *testing.T) {
	gen, err := cases.ByID("data_leak").Generate(0.2)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := New(gen.Log, 2, panicRouter{})
	if err != nil {
		t.Fatal(err)
	}
	const src = `proc p[host = "host-a"] read file f return distinct p, f`
	q, err := tbql.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	a, err := tbql.Analyze(q)
	if err != nil {
		t.Fatal(err)
	}
	for name, run := range map[string]func() error{
		"Hunt":         func() error { _, _, err := sh.Hunt(nil, src); return err },
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
