package engine

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"threatraptor/internal/audit"
	"threatraptor/internal/faultinject"
)

// TestHuntCancelledContext is the cancellation acceptance test: a hunt
// under an already-cancelled (or expired) context returns the context's
// error promptly, and the engine stays healthy afterwards.
func TestHuntCancelledContext(t *testing.T) {
	store, _ := dataLeakStore(t, 400)
	en := &Engine{Store: store}
	a := analyzed(t, dataLeakTBQL)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, _, err := en.Execute(ctx, a)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled hunt: got %v, want context.Canceled", err)
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("cancelled hunt returned after %v; want prompt", el)
	}

	dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer dcancel()
	if _, _, err := en.Execute(dctx, a); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired hunt: got %v, want context.DeadlineExceeded", err)
	}
	if _, _, err := en.Hunt(dctx, dataLeakTBQL); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired Hunt: got %v, want context.DeadlineExceeded", err)
	}
	if _, _, err := en.ExecuteDelta(dctx, a, 1); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired ExecuteDelta: got %v, want context.DeadlineExceeded", err)
	}

	// The engine is not poisoned: the same query still runs to completion.
	res, _, err := en.Execute(context.Background(), a)
	if err != nil {
		t.Fatalf("post-cancel execute: %v", err)
	}
	if len(res.Set.Rows) == 0 {
		t.Fatal("post-cancel execute found nothing")
	}
}

// TestExecutorPanicIsolated injects a panic into a pattern data query and
// asserts it surfaces as a typed *InternalError — with query text and
// stack — without poisoning the engine for subsequent hunts.
func TestExecutorPanicIsolated(t *testing.T) {
	store, _ := dataLeakStore(t, 400)
	en := &Engine{Store: store}
	a := analyzed(t, dataLeakTBQL)

	faultinject.Arm(faultinject.Plan{
		FaultExecutePattern: {Hits: []int{1}, Mode: faultinject.ModePanic},
	})
	t.Cleanup(faultinject.Disarm)
	_, _, err := en.Execute(nil, a)
	var ie *InternalError
	if !errors.As(err, &ie) {
		t.Fatalf("panicking execute: got %v (%T), want *InternalError", err, err)
	}
	if ie.Query == "" || len(ie.Stack) == 0 {
		t.Fatalf("InternalError missing context: query=%q stack=%d bytes", ie.Query, len(ie.Stack))
	}
	faultinject.Disarm()

	// Not poisoned: the plan cache, views, and store still work.
	res, _, err := en.Execute(nil, a)
	if err != nil {
		t.Fatalf("post-panic execute: %v", err)
	}
	if len(res.Set.Rows) == 0 {
		t.Fatal("post-panic execute found nothing")
	}
}

// storeSnap is the observable shape AppendBatch's rollback must restore.
type storeSnap struct {
	entRows, evRows  int
	nodes, edges     int
	logEvents        int
	nextID           int64
	minTime, maxTime int64
	epoch            uint64
}

func snapStore(s *Store) storeSnap {
	return storeSnap{
		entRows:   s.Rel.Table("entities").Len(),
		evRows:    s.Rel.Table("events").Len(),
		nodes:     s.Graph.NumNodes(),
		edges:     s.Graph.NumEdges(),
		logEvents: len(s.Log.Events),
		nextID:    s.NextEventID(),
		minTime:   s.MinTime,
		maxTime:   s.MaxTime,
		epoch:     s.BoundsEpoch(),
	}
}

// appendFaulted parses the simulator records through a store-sharing
// parser log (the live-ingest arrangement) and appends them in two
// batches. When faultPlan is non-nil, the second append is attempted once
// under the plan — it must fail and leave the store exactly at its
// pre-append snapshot — and then retried clean.
func appendFaulted(t *testing.T, recs []audit.Record, faultPlan faultinject.Plan, wantPanic bool) *Store {
	t.Helper()
	store, err := NewStore(audit.NewLog())
	if err != nil {
		t.Fatal(err)
	}
	plog := &audit.Log{Entities: store.Log.Entities}
	p := audit.NewParserWith(plog)

	half := len(recs) / 2
	feed := func(rs []audit.Record) ([]*audit.Entity, []audit.Event) {
		last := store.Log.Entities.MaxID()
		for i := range rs {
			if err := p.Feed(&rs[i]); err != nil {
				t.Fatal(err)
			}
		}
		return store.Log.Entities.Since(last), plog.TakeEvents()
	}

	ents, evs := feed(recs[:half])
	if err := store.AppendBatch(ents, evs); err != nil {
		t.Fatalf("first append: %v", err)
	}

	ents, evs = feed(recs[half:])
	if faultPlan != nil {
		pre := snapStore(store)
		faultinject.Arm(faultPlan)
		err := store.AppendBatch(ents, evs)
		faultinject.Disarm()
		if err == nil {
			t.Fatal("faulted append succeeded; want failure")
		}
		if wantPanic {
			var ie *InternalError
			if !errors.As(err, &ie) {
				t.Fatalf("panicked append: got %v (%T), want *InternalError", err, err)
			}
		} else if !errors.Is(err, faultinject.ErrInjected) {
			t.Fatalf("faulted append: got %v, want ErrInjected", err)
		}
		if got := snapStore(store); got != pre {
			t.Fatalf("rollback incomplete:\n pre  %+v\n post %+v", pre, got)
		}
	}
	if err := store.AppendBatch(ents, evs); err != nil {
		t.Fatalf("retry append: %v", err)
	}
	return store
}

// TestAppendBatchRollback pins AppendBatch's atomicity: a failure at any
// fault point in the append path — error or panic, relational, graph, or
// log — leaves the store exactly as it was, and the retried batch
// converges on the same store a fault-free run builds.
func TestAppendBatchRollback(t *testing.T) {
	sim := audit.NewSimulator(42, 1_700_000_000_000_000)
	sim.GenerateBenign(audit.BenignConfig{Users: 4, Actions: 150})
	recs := sim.Records()

	ref := appendFaulted(t, recs, nil, false)

	points := []string{
		FaultAppendEntitiesRel,
		FaultAppendEntitiesGraph,
		FaultAppendEventsRel,
		FaultAppendEventsGraph,
		FaultAppendLog,
	}
	for _, pt := range points {
		for _, mode := range []faultinject.Mode{faultinject.ModeError, faultinject.ModePanic} {
			name := pt
			if mode == faultinject.ModePanic {
				name += "/panic"
			}
			t.Run(name, func(t *testing.T) {
				t.Cleanup(faultinject.Disarm)
				got := appendFaulted(t, recs,
					faultinject.Plan{pt: {Hits: []int{1}, Mode: mode}},
					mode == faultinject.ModePanic)
				if a, b := snapStore(ref), snapStore(got); a != b {
					t.Fatalf("retried store diverges:\n ref %+v\n got %+v", a, b)
				}
				if !reflect.DeepEqual(ref.Log.Events, got.Log.Events) {
					t.Fatal("retried store's event log diverges from fault-free build")
				}
				refRows := huntRows(t, ref)
				gotRows := huntRows(t, got)
				if !reflect.DeepEqual(refRows, gotRows) {
					t.Fatalf("retried store answers differently:\n ref %v\n got %v", refRows, gotRows)
				}
			})
		}
	}
}

func huntRows(t *testing.T, s *Store) [][]string {
	t.Helper()
	en := &Engine{Store: s}
	res, _, err := en.Hunt(nil, `proc p read file f return distinct p, f`)
	if err != nil {
		t.Fatal(err)
	}
	return res.Set.Strings()
}

// TestAdmission covers the concurrent-hunt semaphore: limit enforcement,
// immediate rejection with a zero queue timeout, timed-out queueing,
// context cancellation while queued, and the nil (unlimited) receiver.
func TestAdmission(t *testing.T) {
	ad := NewAdmission(1, 0)
	release, err := ad.Acquire(nil)
	if err != nil {
		t.Fatalf("first acquire: %v", err)
	}
	if got := ad.InFlight(); got != 1 {
		t.Fatalf("InFlight = %d, want 1", got)
	}
	_, err = ad.Acquire(nil)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("second acquire: got %v, want ErrOverloaded", err)
	}
	var oe *OverloadedError
	if !errors.As(err, &oe) || oe.Limit != 1 {
		t.Fatalf("second acquire: got %#v, want *OverloadedError{Limit: 1}", err)
	}
	release()
	release2, err := ad.Acquire(nil)
	if err != nil {
		t.Fatalf("post-release acquire: %v", err)
	}
	release2()

	adq := NewAdmission(1, 20*time.Millisecond)
	hold, err := adq.Acquire(nil)
	if err != nil {
		t.Fatal(err)
	}
	_, err = adq.Acquire(nil)
	if !errors.As(err, &oe) || oe.Waited <= 0 {
		t.Fatalf("queued acquire: got %v, want *OverloadedError with Waited > 0", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := adq.Acquire(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled acquire: got %v, want context.Canceled", err)
	}
	hold()

	var unlimited *Admission
	rel, err := unlimited.Acquire(nil)
	if err != nil {
		t.Fatalf("nil admission: %v", err)
	}
	rel()
	if NewAdmission(0, time.Second) != nil {
		t.Fatal("NewAdmission(0) should be nil (unlimited)")
	}
}
