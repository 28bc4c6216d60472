package engine

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"
	"time"

	"threatraptor/internal/tbql"
)

// varLenPool is the benchmark hunt pool's four variable-length queries.
var varLenPool = []string{
	`proc p["%/bin/tar%"] ~>(1~8)[connect] ip i["192.168.29.128"] return distinct p, i`,
	`proc p["%/bin/tar%"] ~>(1~4)[write] file f["%/tmp/upload%"] return distinct p, f`,
	`proc p["%/bin/busybox%"] ~>(1~6)[connect] ip i["94.185.80.82"] return distinct p, i`,
	`proc p["%/usr/bin/gpg%"] ~>(1~3)[read] file f["%/tmp/upload%"] return distinct p, f`,
}

// TestVarLenDistinctMatchesTrails runs the hunt pool's var-length queries
// over a store of several data_leak and vpnfilter instances. Under
// `return distinct` the graph expands each var-length hop by bounded BFS;
// the same query with a plain `return` enumerates every trail. The plain
// query's deduplicated rows and its matched events must equal the
// distinct query's.
func TestVarLenDistinctMatchesTrails(t *testing.T) {
	store := replayStore(t, 1.0, "data_leak", "vpnfilter", "data_leak", "vpnfilter")
	for _, src := range varLenPool {
		distinct := analyzed(t, src)
		trails := analyzed(t, strings.Replace(src, "return distinct", "return", 1))
		start := time.Now()
		want, wantSt := huntSet(t, store, trails)
		trailTime := time.Since(start)
		start = time.Now()
		got, gotSt := huntSet(t, store, distinct)
		t.Logf("%s: %d rows; trails %d pattern rows in %v, distinct %d in %v",
			src, len(got.rows), wantSt.PatternRows, trailTime, gotSt.PatternRows, time.Since(start))
		if len(got.rows) == 0 {
			t.Fatalf("%s: no rows", src)
		}
		if !slices.Equal(got.rows, want.rows) {
			t.Fatalf("%s: distinct rows %v, deduplicated trail rows %v", src, got.rows, want.rows)
		}
		if !maps.Equal(got.events, want.events) {
			t.Fatalf("%s: matched events differ: %d distinct, %d trails", src, len(got.events), len(want.events))
		}
	}
}

// huntResult is a hunt's answer as a set: its distinct rows, printed and
// sorted, and its matched events.
type huntResult struct {
	rows   []string
	events map[int64]bool
}

func huntSet(t *testing.T, store *Store, a *tbql.Analyzed) (huntResult, Stats) {
	t.Helper()
	res, st, err := (&Engine{Store: store}).Execute(nil, a)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for _, row := range res.Set.Rows {
		seen[fmt.Sprint(row)] = true
	}
	return huntResult{rows: slices.Sorted(maps.Keys(seen)), events: res.MatchedEvents}, st
}
