package engine

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"threatraptor/internal/audit"
	"threatraptor/internal/cases"
	"threatraptor/internal/faultinject"
)

// truncatedOracle batch-builds a fresh store from the log's first n
// events and executes the query against it — the ground truth for what a
// hunt pinned at NextEventID n+1 must have seen.
func truncatedOracle(t *testing.T, log *audit.Log, n int, src string) [][]string {
	t.Helper()
	trunc := &audit.Log{
		Entities: log.Entities,
		Events:   append([]audit.Event(nil), log.Events[:n]...),
	}
	store, err := NewStore(trunc)
	if err != nil {
		t.Fatal(err)
	}
	en := &Engine{Store: store}
	res, _, err := en.Execute(nil, analyzed(t, src))
	if err != nil {
		t.Fatal(err)
	}
	return res.Set.Strings()
}

// TestConcurrentHuntsSnapshotConsistency is the snapshot-isolation soak
// (run under -race in CI): one appender grows the store batch by batch
// while hunters continuously pin the published snapshot and execute
// against it. Every hunt must return exactly the rows of a fresh store
// batch-built from the log truncated at that hunt's snapshot — no
// partial batches, no torn reads, no rows from the mutable tail.
func TestConcurrentHuntsSnapshotConsistency(t *testing.T) {
	gen, err := cases.ByID("data_leak").Generate(0.15)
	if err != nil {
		t.Fatal(err)
	}
	n := len(gen.Log.Events)
	initial := n / 4
	live, err := NewStore(&audit.Log{
		Entities: gen.Log.Entities,
		Events:   append([]audit.Event(nil), gen.Log.Events[:initial]...),
	})
	if err != nil {
		t.Fatal(err)
	}
	en := &Engine{Store: live}
	a := analyzed(t, dataLeakTBQL)

	// Warm the plan cache before the races start so lazy compilation is
	// also exercised from hunter goroutines at a later epoch.
	if _, _, err := en.Execute(nil, a); err != nil {
		t.Fatal(err)
	}

	const hunters = 4
	type observation struct {
		next int64
		rows [][]string
	}
	var (
		mu   sync.Mutex
		obs  []observation
		done = make(chan struct{})
		wg   sync.WaitGroup
	)
	for h := 0; h < hunters; h++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				snap := en.Store.Snapshot()
				res, _, err := en.ExecuteSource(nil, a, snap, nil)
				if err != nil {
					t.Errorf("concurrent hunt: %v", err)
					return
				}
				mu.Lock()
				obs = append(obs, observation{snap.NextEventID, res.Set.Strings()})
				mu.Unlock()
			}
		}()
	}

	// Pace the appender by hunter progress: on a single-CPU box the whole
	// append loop can otherwise finish before any hunter is scheduled,
	// leaving nothing interleaved to check.
	observations := func() int {
		mu.Lock()
		defer mu.Unlock()
		return len(obs)
	}
	const batches = 24
	per := (n - initial + batches - 1) / batches
	for i := initial; i < n; i += per {
		j := i + per
		if j > n {
			j = n
		}
		before := observations()
		batch := append([]audit.Event(nil), gen.Log.Events[i:j]...)
		if err := live.AppendBatch(nil, batch); err != nil {
			t.Fatal(err)
		}
		for deadline := time.Now().Add(time.Second); observations() == before && time.Now().Before(deadline); {
			runtime.Gosched()
		}
	}
	close(done)
	wg.Wait()
	if t.Failed() {
		return
	}

	// Every observation at the same snapshot frontier must agree, and
	// each distinct frontier must match its truncation oracle.
	byNext := map[int64][][]string{}
	for _, o := range obs {
		if prev, ok := byNext[o.next]; ok {
			if !sameRows(prev, o.rows) {
				t.Fatalf("two hunts at frontier %d disagree:\n%v\n%v", o.next, prev, o.rows)
			}
			continue
		}
		byNext[o.next] = o.rows
	}
	if len(byNext) < 2 {
		t.Errorf("hunters only observed %d distinct frontiers; the soak interleaved nothing", len(byNext))
	}
	for next, rows := range byNext {
		want := truncatedOracle(t, gen.Log, int(next-1), dataLeakTBQL)
		if !sameRows(want, rows) {
			t.Fatalf("hunt at frontier %d diverged from truncated batch build:\n want %v\n got %v",
				next, want, rows)
		}
	}
}

// TestHuntNeverObservesPartialAppend pins the crash-consistency half of
// snapshot isolation: a hunt that pinned its snapshot before an append —
// including an append that fails midway, after the relational insert but
// before the graph insert — never sees a partial batch. The published
// snapshot only ever moves whole-batch-at-a-time.
func TestHuntNeverObservesPartialAppend(t *testing.T) {
	t.Cleanup(faultinject.Disarm)
	gen, err := cases.ByID("data_leak").Generate(0.1)
	if err != nil {
		t.Fatal(err)
	}
	n := len(gen.Log.Events)
	half := n / 2
	live, err := NewStore(&audit.Log{
		Entities: gen.Log.Entities,
		Events:   append([]audit.Event(nil), gen.Log.Events[:half]...),
	})
	if err != nil {
		t.Fatal(err)
	}
	en := &Engine{Store: live}
	a := analyzed(t, dataLeakTBQL)
	wantHalf := truncatedOracle(t, gen.Log, half, dataLeakTBQL)
	pinned := live.Snapshot()

	// A torn append: the relational event insert succeeds, the graph
	// insert fails, the batch rolls back. The pinned snapshot and the
	// published snapshot must both still answer exactly like the
	// pre-append store.
	faultinject.Arm(faultinject.Plan{
		FaultAppendEventsGraph: {Hits: []int{1}, Mode: faultinject.ModeError},
	})
	rest := append([]audit.Event(nil), gen.Log.Events[half:]...)
	if err := live.AppendBatch(nil, rest); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("append under fault = %v, want injected error", err)
	}
	faultinject.Disarm()

	for name, snap := range map[string]*Snapshot{"pinned": pinned, "republished": live.Snapshot()} {
		if snap.NextEventID != int64(half)+1 {
			t.Fatalf("%s snapshot frontier = %d after failed append, want %d", name, snap.NextEventID, half+1)
		}
		res, _, err := en.ExecuteSource(nil, a, snap, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !sameRows(wantHalf, res.Set.Strings()) {
			t.Fatalf("%s snapshot saw rows of a rolled-back append:\n want %v\n got %v",
				name, wantHalf, res.Set.Strings())
		}
	}

	// The retried append succeeds; the old pinned snapshot still answers
	// at its frontier while a fresh pin sees the whole log.
	if err := live.AppendBatch(nil, rest); err != nil {
		t.Fatal(err)
	}
	res, _, err := en.ExecuteSource(nil, a, pinned, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !sameRows(wantHalf, res.Set.Strings()) {
		t.Fatalf("pre-append pin drifted after the append landed:\n want %v\n got %v",
			wantHalf, res.Set.Strings())
	}
	wantFull := truncatedOracle(t, gen.Log, n, dataLeakTBQL)
	resFull, _, err := en.ExecuteSource(nil, a, live.Snapshot(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !sameRows(wantFull, resFull.Set.Strings()) {
		t.Fatalf("post-append snapshot wrong:\n want %v\n got %v", wantFull, resFull.Set.Strings())
	}
	if len(wantFull) == 0 {
		t.Fatal("full log found no attack; the comparison above is vacuous")
	}
}
