package engine

import (
	"fmt"
	"sort"
	"testing"

	"threatraptor/internal/audit"
	"threatraptor/internal/tbql"
)

// deltaRows renders an ExecuteDelta result as sorted row strings.
func deltaRows(t *testing.T, en *Engine, a *tbql.Analyzed, floor int64) []string {
	t.Helper()
	res, _, err := en.ExecuteDelta(nil, a, floor)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, row := range res.Set.Strings() {
		out = append(out, fmt.Sprint(row))
	}
	sort.Strings(out)
	return out
}

// appendHalves rebuilds a store's log in two halves through AppendBatch,
// returning the live store and the event-ID floor of the second half.
func appendHalves(t *testing.T, full *Store) (*Store, int64) {
	t.Helper()
	half := len(full.Log.Events) / 2
	liveLog := &audit.Log{
		Entities: full.Log.Entities,
		Events:   append([]audit.Event(nil), full.Log.Events[:half]...),
	}
	live, err := NewStore(liveLog)
	if err != nil {
		t.Fatal(err)
	}
	floor := live.NextEventID()
	if err := live.AppendBatch(nil, append([]audit.Event(nil), full.Log.Events[half:]...)); err != nil {
		t.Fatal(err)
	}
	return live, floor
}

// TestExecuteDeltaViewsMatchRecompute is the engine-level equivalence
// property: the materialized-view delta round returns exactly the
// recompute path's bindings, across floors, repeated appends, and both
// scheduling modes, with the view counters proving which path ran.
func TestExecuteDeltaViewsMatchRecompute(t *testing.T) {
	full, _ := dataLeakStore(t, 400)
	a := analyzed(t, dataLeakTBQL)

	for _, disableSched := range []bool{false, true} {
		live, floor := appendHalves(t, full)
		viewEn := &Engine{Store: live, DisableScheduling: disableSched}
		recompEn := &Engine{Store: live, DisableScheduling: disableSched, ViewHighWater: -1}

		for _, f := range []int64{floor, 1, floor + 50, live.NextEventID()} {
			got := deltaRows(t, viewEn, a, f)
			want := deltaRows(t, recompEn, a, f)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("sched=%v floor=%d:\nviews     %v\nrecompute %v", !disableSched, f, got, want)
			}
		}
		vs := viewEn.Views()
		if vs.Materializations == 0 || vs.CachedRows == 0 {
			t.Fatalf("view path did not materialize: %+v", vs)
		}
		if rs := recompEn.Views(); rs.Materializations != 0 || rs.CachedRows != 0 {
			t.Fatalf("ViewHighWater<0 must disable views: %+v", rs)
		}

		// A further append: views must catch up incrementally and stay
		// equivalent.
		extra := []audit.Event{{
			SubjectID: live.Log.Events[0].SubjectID,
			ObjectID:  live.Log.Events[0].ObjectID,
			Op:        live.Log.Events[0].Op,
			StartTime: live.MaxTime + 1000,
			EndTime:   live.MaxTime + 1001,
		}}
		floor2 := live.NextEventID()
		if err := live.AppendBatch(nil, extra); err != nil {
			t.Fatal(err)
		}
		got := deltaRows(t, viewEn, a, floor2)
		want := deltaRows(t, recompEn, a, floor2)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("post-append sched=%v:\nviews     %v\nrecompute %v", !disableSched, got, want)
		}
		if vs := viewEn.Views(); vs.DeltaMerges == 0 {
			t.Fatalf("second round should merge incrementally: %+v", vs)
		}

		// A delta whose op bitmap misses every pattern op (the query uses
		// read/write/connect only) must skip catch-up entirely — the
		// counter proves no catch-up data query ran — and stay equivalent.
		skipsBefore := viewEn.Views().CatchupSkips
		foreign := []audit.Event{{
			SubjectID: live.Log.Events[0].SubjectID,
			ObjectID:  live.Log.Events[0].ObjectID,
			Op:        audit.OpSend,
			StartTime: live.MaxTime + 2000,
			EndTime:   live.MaxTime + 2001,
		}}
		floor3 := live.NextEventID()
		if err := live.AppendBatch(nil, foreign); err != nil {
			t.Fatal(err)
		}
		got = deltaRows(t, viewEn, a, floor3)
		want = deltaRows(t, recompEn, a, floor3)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("foreign-op sched=%v:\nviews     %v\nrecompute %v", !disableSched, got, want)
		}
		if vs := viewEn.Views(); vs.CatchupSkips <= skipsBefore {
			t.Fatalf("foreign-op delta did not skip catch-up: skips %d -> %d", skipsBefore, vs.CatchupSkips)
		}
	}
}

// TestExecuteDeltaMatchedEventsEquivalent pins that the view path reports
// the same matched-event set as the recompute path (the RQ2 scoring
// surface).
func TestExecuteDeltaMatchedEventsEquivalent(t *testing.T) {
	full, _ := dataLeakStore(t, 300)
	a := analyzed(t, dataLeakTBQL)
	live, floor := appendHalves(t, full)
	viewEn := &Engine{Store: live}
	recompEn := &Engine{Store: live, ViewHighWater: -1}
	vres, _, err := viewEn.ExecuteDelta(nil, a, floor)
	if err != nil {
		t.Fatal(err)
	}
	rres, _, err := recompEn.ExecuteDelta(nil, a, floor)
	if err != nil {
		t.Fatal(err)
	}
	if len(vres.MatchedEvents) != len(rres.MatchedEvents) {
		t.Fatalf("matched events: views %d, recompute %d", len(vres.MatchedEvents), len(rres.MatchedEvents))
	}
	for ev := range rres.MatchedEvents {
		if !vres.MatchedEvents[ev] {
			t.Fatalf("event %d matched by recompute but not views", ev)
		}
	}
}

// TestViewHighWaterFallback pins the memory cap: with a cap too small for
// the first pattern's match set, every round takes the recompute path,
// results stay identical, and accounting never exceeds the cap.
func TestViewHighWaterFallback(t *testing.T) {
	full, _ := dataLeakStore(t, 300)
	a := analyzed(t, dataLeakTBQL)
	live, floor := appendHalves(t, full)
	capped := &Engine{Store: live, ViewHighWater: 1}
	oracle := &Engine{Store: live, ViewHighWater: -1}

	got := deltaRows(t, capped, a, floor)
	want := deltaRows(t, oracle, a, floor)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("capped engine diverged:\ncapped %v\noracle %v", got, want)
	}
	vs := capped.Views()
	if vs.Fallbacks == 0 {
		t.Fatalf("cap of 1 row must force the recompute fallback: %+v", vs)
	}
	// Falling back is all-or-nothing per query: the plan's views are
	// released wholesale (no orphaned rows charged against the cap) and
	// later rounds skip view maintenance entirely.
	if vs.CachedRows != 0 {
		t.Fatalf("fallen-back plan left %d rows accounted: %+v", vs.CachedRows, vs)
	}
	mat := vs.Materializations
	got = deltaRows(t, capped, a, floor)
	want = deltaRows(t, oracle, a, floor)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("capped engine diverged on round 2:\ncapped %v\noracle %v", got, want)
	}
	if vs2 := capped.Views(); vs2.Materializations != mat {
		t.Fatalf("fallen-back plan must not keep materializing: %+v -> %+v", vs, vs2)
	}
	// DropViews re-arms the plan; with the cap still too small it simply
	// falls back again without leaking accounting.
	capped.DropViews(a)
	deltaRows(t, capped, a, floor)
	if vs3 := capped.Views(); vs3.CachedRows != 0 {
		t.Fatalf("re-armed capped plan leaked %d rows", vs3.CachedRows)
	}
}

// TestViewCapReArmAfterRelease pins that the cap fallback is not a
// permanent sentence: a query that fell back under cap pressure retries
// materialization once another query's views release rows (here via
// DropViews, the path Unwatch takes).
func TestViewCapReArmAfterRelease(t *testing.T) {
	full, _ := dataLeakStore(t, 300)
	big := analyzed(t, dataLeakTBQL)
	small := analyzed(t, `proc p["%/usr/bin/gpg%"] read file f["%upload%"] as e1 return distinct p, f`)
	live, floor := appendHalves(t, full)

	// Measure the big query's footprint, then cap a fresh engine to it.
	sizer := &Engine{Store: live}
	deltaRows(t, sizer, big, floor)
	bigRows := int(sizer.Views().CachedRows)
	if bigRows == 0 {
		t.Fatal("big query materialized no rows")
	}

	en := &Engine{Store: live, ViewHighWater: bigRows}
	deltaRows(t, en, big, floor) // fills the cap
	deltaRows(t, en, small, floor)
	vs := en.Views()
	if vs.Fallbacks == 0 {
		t.Fatalf("small query should have hit the cap: %+v", vs)
	}
	// No release yet: the fallen-back plan must stay latched (no retry).
	mat := vs.Materializations
	deltaRows(t, en, small, floor)
	if vs2 := en.Views(); vs2.Materializations != mat {
		t.Fatalf("latched plan retried without headroom: %+v -> %+v", vs, vs2)
	}
	// Dropping the big query's views frees headroom; the small query's
	// next round re-arms and materializes.
	en.DropViews(big)
	deltaRows(t, en, small, floor)
	if vs3 := en.Views(); vs3.Materializations <= mat || vs3.CachedRows == 0 {
		t.Fatalf("released headroom should re-arm the fallen-back plan: %+v", vs3)
	}
}

// TestDropViewsReleasesRows pins eviction: dropping a query's views
// returns every cached row to the accounting, and the next delta round
// rematerializes from scratch.
func TestDropViewsReleasesRows(t *testing.T) {
	full, _ := dataLeakStore(t, 300)
	a := analyzed(t, dataLeakTBQL)
	live, floor := appendHalves(t, full)
	en := &Engine{Store: live}
	deltaRows(t, en, a, floor)
	before := en.Views()
	if before.CachedRows == 0 {
		t.Fatal("expected materialized rows")
	}
	en.DropViews(a)
	if vs := en.Views(); vs.CachedRows != 0 {
		t.Fatalf("DropViews left %d rows accounted", vs.CachedRows)
	}
	deltaRows(t, en, a, floor)
	after := en.Views()
	if after.Materializations <= before.Materializations {
		t.Fatal("round after DropViews should rematerialize")
	}
	if after.CachedRows != before.CachedRows {
		t.Fatalf("rematerialized accounting %d != original %d", after.CachedRows, before.CachedRows)
	}
}

// TestAdHocHuntsKeepStandingViews pins the compiled-query cache's overflow
// rule: any number of distinct ad-hoc Hunt texts must not evict a standing
// query's plan, or every watch would rematerialize its views — a
// full-history data query per pattern — on the next round. The cache still
// stays bounded, and DropViews hands the plan back to overflow.
func TestAdHocHuntsKeepStandingViews(t *testing.T) {
	full, _ := dataLeakStore(t, 300)
	a := analyzed(t, dataLeakTBQL)
	live, floor := appendHalves(t, full)
	en := &Engine{Store: live}
	deltaRows(t, en, a, floor)
	before := en.Views()
	if before.Materializations != int64(len(a.Query.Patterns)) || before.CachedRows == 0 {
		t.Fatalf("expected one materialized view per pattern: %+v", before)
	}

	hunts := func() {
		t.Helper()
		for i := 0; i < maxCachedQueryPlans+50; i++ {
			if _, _, err := en.Hunt(nil, fmt.Sprintf(`proc p["%%/no/such/exe%d%%"] read file f return p, f`, i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	hunts()
	if n := len(en.plans); n > maxCachedQueryPlans+1 || len(en.texts) > n {
		t.Fatalf("cache grew past its bound: %d plans, %d texts", n, len(en.texts))
	}
	if vs := en.Views(); vs.CachedRows != before.CachedRows {
		t.Fatalf("ad-hoc hunts evicted standing views: cached rows %d -> %d", before.CachedRows, vs.CachedRows)
	}
	deltaRows(t, en, a, floor)
	if vs := en.Views(); vs.Materializations != before.Materializations {
		t.Fatalf("round after the hunts rematerialized: %d -> %d", before.Materializations, vs.Materializations)
	}

	en.DropViews(a)
	hunts()
	if _, cached := en.plans[a]; cached {
		t.Fatal("plan stayed pinned after DropViews")
	}
}
