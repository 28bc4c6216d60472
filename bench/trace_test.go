package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestSelfTimes checks the self-time calculator on a hand-built trace:
// nested spans, sibling spans, overlapping siblings, and a child that
// outlives its parent.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "request", Start: 0, End: 100, Parent: -1, Req: 1},   // 0
		{Name: "extract", Start: 10, End: 40, Parent: 0, Req: 1},    // 1: sibling
		{Name: "engine", Start: 50, End: 90, Parent: 0, Req: 1},     // 2: sibling, has children
		{Name: "relational", Start: 55, End: 70, Parent: 2, Req: 1}, // 3: overlaps 4
		{Name: "graphdb", Start: 65, End: 80, Parent: 2, Req: 1},    // 4
		{Name: "request", Start: 200, End: 260, Parent: -1, Req: 2}, // 5
		{Name: "engine", Start: 210, End: 300, Parent: 5, Req: 2},   // 6: ends after its parent
	}
	got := selfTimes(spans)
	want := map[string]layerStat{
		// request 1: 100 - (30 + 40); request 2: 60 - 50 (child clipped at 260).
		"request": {Count: 2, SelfNS: 30 + 10},
		"extract": {Count: 1, SelfNS: 30},
		// engine 1: 40 - union(55..80) = 15; engine 2: 90, no children.
		"engine":     {Count: 2, SelfNS: 15 + 90},
		"relational": {Count: 1, SelfNS: 15},
		"graphdb":    {Count: 1, SelfNS: 15},
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: got %+v, want %+v", name, got[name], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("got %d layers, want %d", len(got), len(want))
	}
	if r := rootNS(spans); r != 160 {
		t.Errorf("rootNS = %d, want 160", r)
	}
}

// TestRecorder checks that a recorder nests and times real spans, that a
// nil recorder is inert, that layer self times add up to the request time,
// and that the trace file holds every span.
func TestRecorder(t *testing.T) {
	var off *recorder
	id := off.begin("x", -1, 1)
	off.end(id)

	rec := newRecorder()
	for req := 1; req <= 3; req++ {
		root := rec.begin("request", -1, req)
		a := rec.begin("a", root, req)
		time.Sleep(2 * time.Millisecond)
		rec.end(a)
		b := rec.begin("b", root, req)
		time.Sleep(time.Millisecond)
		rec.end(b)
		rec.end(root)
	}
	self := selfTimes(rec.spans)
	if self["a"].Count != 3 || self["a"].SelfNS < int64(6*time.Millisecond) {
		t.Errorf("a: %+v", self["a"])
	}
	var sum int64
	for _, s := range self {
		sum += s.SelfNS
	}
	if total := rootNS(rec.spans); sum != total {
		t.Errorf("self times sum to %d ns, request time is %d ns", sum, total)
	}
	// The overhead report compares a traced and an untraced median; with a
	// recorder it must be the recorder's own cost, so two clock reads and
	// an append per span have to stay far below the spans measured here.
	if glue := self["request"].SelfNS / 3; glue > int64(time.Millisecond) {
		t.Errorf("recording cost %d ns per request", glue)
	}

	path := filepath.Join(t.TempDir(), "out", "trace.json")
	if err := rec.write(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back []span
	if err := json.Unmarshal(b, &back); err != nil || len(back) != 9 {
		t.Fatalf("trace file: %d spans, %v", len(back), err)
	}
	if back[1].Parent != 0 || back[1].Req != 1 || back[1].End <= back[1].Start {
		t.Errorf("span 1 round-tripped as %+v", back[1])
	}
}
