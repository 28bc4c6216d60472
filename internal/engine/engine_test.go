package engine

import (
	"reflect"
	"sort"
	"testing"

	"threatraptor/internal/audit"
	"threatraptor/internal/reduction"
	"threatraptor/internal/tbql"
)

// dataLeakStore simulates the data_leak attack planted inside benign
// background noise and loads the reduced log into a store.
func dataLeakStore(t testing.TB, benignActions int) (*Store, []int64) {
	t.Helper()
	sim := audit.NewSimulator(1234, 1_700_000_000_000_000)
	sim.GenerateBenign(audit.BenignConfig{Users: 10, Actions: benignActions / 2})

	tar := audit.Proc{PID: 5001, Exe: "/bin/tar", User: "root", Group: "root", CMD: "tar cf /tmp/upload.tar /etc/passwd"}
	bzip := audit.Proc{PID: 5002, Exe: "/bin/bzip2", User: "root", Group: "root"}
	gpg := audit.Proc{PID: 5003, Exe: "/usr/bin/gpg", User: "root", Group: "root"}
	curl := audit.Proc{PID: 5004, Exe: "/usr/bin/curl", User: "root", Group: "root"}

	attackStart := len(sim.Records())
	sim.ReadFile(tar, "/etc/passwd", 3000)
	sim.WriteFile(tar, "/tmp/upload.tar", 3000)
	sim.Advance(2_000_000)
	sim.ReadFile(bzip, "/tmp/upload.tar", 3000)
	sim.WriteFile(bzip, "/tmp/upload.tar.bz2", 2000)
	sim.Advance(2_000_000)
	sim.ReadFile(gpg, "/tmp/upload.tar.bz2", 2000)
	sim.WriteFile(gpg, "/tmp/upload", 2200)
	sim.Advance(2_000_000)
	sim.ReadFile(curl, "/tmp/upload", 2200)
	sim.Connect(curl, "10.0.0.9", 45000, "192.168.29.128", 443, "tcp")
	sim.Send(curl, "10.0.0.9", 45000, "192.168.29.128", 443, "tcp", 2200)
	attackEnd := len(sim.Records())

	sim.GenerateBenign(audit.BenignConfig{Users: 10, Actions: benignActions / 2})

	parser := audit.NewParser()
	var attackKeys []string
	for i, r := range sim.Records() {
		if err := parser.Feed(&r); err != nil {
			t.Fatal(err)
		}
		if i >= attackStart && i < attackEnd {
			log := parser.Log()
			ev := log.Events[len(log.Events)-1]
			attackKeys = append(attackKeys,
				log.Subject(&ev).Key()+"|"+ev.Op.String()+"|"+log.Object(&ev).Key())
		}
	}
	log := parser.Log()
	reduction.Reduce(log, reduction.DefaultConfig())

	// After reduction, the attack events are those whose
	// subject|op|object key matches a recorded attack step.
	keySet := map[string]bool{}
	for _, k := range attackKeys {
		keySet[k] = true
	}
	var attackEventIDs []int64
	for i := range log.Events {
		ev := &log.Events[i]
		k := log.Subject(ev).Key() + "|" + ev.Op.String() + "|" + log.Object(ev).Key()
		if keySet[k] {
			attackEventIDs = append(attackEventIDs, ev.ID)
		}
	}

	store, err := NewStore(log)
	if err != nil {
		t.Fatal(err)
	}
	return store, attackEventIDs
}

const dataLeakTBQL = `proc p1["%/bin/tar%"] read file f1["%/etc/passwd%"] as evt1
proc p1 write file f2["%/tmp/upload.tar%"] as evt2
proc p2["%/bin/bzip2%"] read file f2 as evt3
proc p2 write file f3["%/tmp/upload.tar.bz2%"] as evt4
proc p3["%/usr/bin/gpg%"] read file f3 as evt5
proc p3 write file f4["%/tmp/upload%"] as evt6
proc p4["%/usr/bin/curl%"] read file f4 as evt7
proc p4 connect ip i1["192.168.29.128"] as evt8
with evt1 before evt2, evt2 before evt3, evt3 before evt4, evt4 before evt5, evt5 before evt6, evt6 before evt7, evt7 before evt8
return distinct p1, f1, f2, p2, f3, p3, f4, p4, i1`

func analyzed(t testing.TB, src string) *tbql.Analyzed {
	t.Helper()
	q, err := tbql.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	a, err := tbql.Analyze(q)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestScheduledExecutionFindsAttack(t *testing.T) {
	store, _ := dataLeakStore(t, 400)
	en := &Engine{Store: store}
	res, stats, err := en.Execute(nil, analyzed(t, dataLeakTBQL))
	if err != nil {
		t.Fatal(err)
	}
	if res.Set.Len() != 1 {
		t.Fatalf("rows = %d, want 1: %v", res.Set.Len(), res.Set.Strings())
	}
	want := []string{"/bin/tar", "/etc/passwd", "/tmp/upload.tar", "/bin/bzip2",
		"/tmp/upload.tar.bz2", "/usr/bin/gpg", "/tmp/upload", "/usr/bin/curl",
		"192.168.29.128"}
	if !reflect.DeepEqual(res.Set.Strings()[0], want) {
		t.Fatalf("got %v", res.Set.Strings()[0])
	}
	if stats.DataQueries != 8 {
		t.Fatalf("data queries = %d, want 8", stats.DataQueries)
	}
	if len(res.MatchedEvents) != 8 {
		t.Fatalf("matched events = %d, want 8", len(res.MatchedEvents))
	}
}

func TestMatchedEventsAreTheAttack(t *testing.T) {
	store, attackIDs := dataLeakStore(t, 400)
	en := &Engine{Store: store}
	res, _, err := en.Execute(nil, analyzed(t, dataLeakTBQL))
	if err != nil {
		t.Fatal(err)
	}
	attackSet := map[int64]bool{}
	for _, id := range attackIDs {
		attackSet[id] = true
	}
	for ev := range res.MatchedEvents {
		if !attackSet[ev] {
			t.Errorf("matched benign event %d (false positive)", ev)
		}
	}
}

func TestMonolithicSQLEquivalence(t *testing.T) {
	store, _ := dataLeakStore(t, 300)
	en := &Engine{Store: store}
	a := analyzed(t, dataLeakTBQL)
	sched, _, err := en.Execute(nil, a)
	if err != nil {
		t.Fatal(err)
	}
	mono, _, err := en.ExecuteMonolithicSQL(nil, a)
	if err != nil {
		t.Fatal(err)
	}
	if !sameRows(sched.Set.Strings(), mono.Strings()) {
		t.Fatalf("scheduled and monolithic SQL disagree:\n%v\n%v",
			sched.Set.Strings(), mono.Strings())
	}
}

func TestMonolithicCypherEquivalence(t *testing.T) {
	store, _ := dataLeakStore(t, 300)
	en := &Engine{Store: store}
	a := analyzed(t, dataLeakTBQL)
	sched, _, err := en.Execute(nil, a)
	if err != nil {
		t.Fatal(err)
	}
	mono, _, err := en.ExecuteMonolithicCypher(nil, a)
	if err != nil {
		t.Fatal(err)
	}
	if !sameRows(sched.Set.Strings(), mono.Strings()) {
		t.Fatalf("scheduled and monolithic Cypher disagree:\n%v\n%v",
			sched.Set.Strings(), mono.Strings())
	}
}

func TestLength1PathExecution(t *testing.T) {
	store, _ := dataLeakStore(t, 300)
	en := &Engine{Store: store}
	src := `proc p1["%/bin/tar%"] ->[read] file f1["%/etc/passwd%"] as evt1
proc p1 ->[write] file f2["%/tmp/upload.tar%"] as evt2
with evt1 before evt2
return distinct p1, f1, f2`
	res, stats, err := en.Hunt(nil, src)
	if err != nil {
		t.Fatal(err)
	}
	if res.Set.Len() != 1 {
		t.Fatalf("rows = %d: %v", res.Set.Len(), res.Set.Strings())
	}
	if stats.Graph.EdgesTraversed == 0 {
		t.Fatal("length-1 paths must execute on the graph backend")
	}
	// The relational backend serves only the graph anchor prefilter: at
	// most one entities scan per pattern, never the events table.
	if n := len(store.Log.Entities.All()); stats.Rel.RowsScanned > 2*n {
		t.Fatalf("relational rows scanned = %d, want <= 2 entity scans (%d)", stats.Rel.RowsScanned, 2*n)
	}
}

func TestVariableLengthPathExecution(t *testing.T) {
	store, _ := dataLeakStore(t, 200)
	en := &Engine{Store: store}
	// Information flow from tar to the C2 address spans 8 hops.
	src := `proc p["%/bin/tar%"] ~>(1~8)[connect] ip i["192.168.29.128"]
return distinct p, i`
	res, _, err := en.Hunt(nil, src)
	if err != nil {
		t.Fatal(err)
	}
	if res.Set.Len() != 1 {
		t.Fatalf("rows = %d: %v", res.Set.Len(), res.Set.Strings())
	}
	got := res.Set.Strings()[0]
	if got[0] != "/bin/tar" || got[1] != "192.168.29.128" {
		t.Fatalf("got %v", got)
	}
}

func TestVariableLengthTooShortFindsNothing(t *testing.T) {
	store, _ := dataLeakStore(t, 200)
	en := &Engine{Store: store}
	src := `proc p["%/bin/tar%"] ~>(1~2)[connect] ip i["192.168.29.128"]
return distinct p, i`
	res, _, err := en.Hunt(nil, src)
	if err != nil {
		t.Fatal(err)
	}
	if res.Set.Len() != 0 {
		t.Fatalf("2 hops cannot reach the C2: %v", res.Set.Strings())
	}
}

func TestTemporalOrderEnforced(t *testing.T) {
	store, _ := dataLeakStore(t, 200)
	en := &Engine{Store: store}
	// Reversed order must not match.
	src := `proc p1["%/bin/tar%"] read file f1["%/etc/passwd%"] as evt1
proc p1 write file f2["%/tmp/upload.tar%"] as evt2
with evt2 before evt1
return distinct p1`
	res, _, err := en.Hunt(nil, src)
	if err != nil {
		t.Fatal(err)
	}
	if res.Set.Len() != 0 {
		t.Fatalf("reversed temporal order must not match: %v", res.Set.Strings())
	}
}

func TestAttrRelation(t *testing.T) {
	store, _ := dataLeakStore(t, 200)
	en := &Engine{Store: store}
	src := `proc p1["%/bin/tar%"] read file f1["%/etc/passwd%"] as evt1
proc p2 write file f2["%/tmp/upload.tar%"] as evt2
with p1.pid = p2.pid
return distinct p1, p2`
	res, _, err := en.Hunt(nil, src)
	if err != nil {
		t.Fatal(err)
	}
	if res.Set.Len() != 1 {
		t.Fatalf("rows = %d: %v", res.Set.Len(), res.Set.Strings())
	}
	row := res.Set.Strings()[0]
	if row[0] != "/bin/tar" || row[1] != "/bin/tar" {
		t.Fatalf("pid equation should force the same process: %v", row)
	}
}

func TestEarlyExitOnEmptyPattern(t *testing.T) {
	store, _ := dataLeakStore(t, 200)
	en := &Engine{Store: store}
	src := `proc p1["%/bin/tar%"] read file f1["%/no/such/file%"] as evt1
proc p2 read file f2 as evt2
return distinct p2`
	res, stats, err := en.Hunt(nil, src)
	if err != nil {
		t.Fatal(err)
	}
	if res.Set.Len() != 0 {
		t.Fatal("no rows expected")
	}
	// The scheduler runs the constrained pattern first; its empty result
	// short-circuits the unconstrained scan.
	if stats.DataQueries != 1 {
		t.Fatalf("data queries = %d, want 1 (early exit)", stats.DataQueries)
	}
}

func TestSchedulerOutperformsNaive(t *testing.T) {
	store, _ := dataLeakStore(t, 800)
	a := analyzed(t, dataLeakTBQL)
	sched := &Engine{Store: store}
	naive := &Engine{Store: store, DisableScheduling: true}
	_, ss, err := sched.Execute(nil, a)
	if err != nil {
		t.Fatal(err)
	}
	_, ns, err := naive.Execute(nil, a)
	if err != nil {
		t.Fatal(err)
	}
	if ss.PatternRows > ns.PatternRows {
		t.Errorf("scheduling should not increase pattern rows: %d vs %d",
			ss.PatternRows, ns.PatternRows)
	}
	monoRows := func() int {
		_, ms, err := sched.ExecuteMonolithicSQL(nil, a)
		if err != nil {
			t.Fatal(err)
		}
		return ms.Rel.RowsScanned
	}()
	if ss.Rel.RowsScanned >= monoRows {
		t.Errorf("scheduled plan should scan fewer rows than the monolithic query: %d vs %d",
			ss.Rel.RowsScanned, monoRows)
	}
}

func TestWindowFilter(t *testing.T) {
	store, _ := dataLeakStore(t, 200)
	en := &Engine{Store: store}
	// A window far in the past excludes everything.
	src := `proc p1["%/bin/tar%"] read file f1 from "2001-01-01" to "2001-01-02" return distinct p1`
	res, _, err := en.Hunt(nil, src)
	if err != nil {
		t.Fatal(err)
	}
	if res.Set.Len() != 0 {
		t.Fatalf("stale window must exclude all events: %v", res.Set.Strings())
	}
	// A "last N days" window that covers the log finds the reads.
	src = `last 3650 day proc p1["%/bin/tar%"] read file f1 return distinct f1`
	res, _, err = en.Hunt(nil, src)
	if err != nil {
		t.Fatal(err)
	}
	if res.Set.Len() == 0 {
		t.Fatal("covering window should match")
	}
}

func TestStoreReplication(t *testing.T) {
	store, _ := dataLeakStore(t, 100)
	ents := store.Rel.Table("entities").Len()
	evts := store.Rel.Table("events").Len()
	if store.Graph.NumNodes() != ents {
		t.Errorf("graph nodes %d != relational entities %d", store.Graph.NumNodes(), ents)
	}
	if store.Graph.NumEdges() != evts {
		t.Errorf("graph edges %d != relational events %d", store.Graph.NumEdges(), evts)
	}
	if store.MinTime == 0 || store.MaxTime <= store.MinTime {
		t.Errorf("time bounds wrong: [%d, %d]", store.MinTime, store.MaxTime)
	}
}

func TestEntityAttr(t *testing.T) {
	store, _ := dataLeakStore(t, 100)
	var procID int64
	for _, e := range store.Log.Entities.All() {
		if e.Kind == audit.EntityProcess && e.Proc.ExeName == "/bin/tar" {
			procID = e.ID
		}
	}
	if procID == 0 {
		t.Fatal("tar process not found")
	}
	if v := store.EntityAttr(procID, "exename"); v.S != "/bin/tar" {
		t.Errorf("exename = %v", v)
	}
	if v := store.EntityAttr(procID, "pid"); v.I != 5001 {
		t.Errorf("pid = %v (should be numeric)", v)
	}
	if v := store.EntityAttr(99999, "exename"); !v.IsNull() {
		t.Errorf("missing entity should be NULL, got %v", v)
	}
}

func sameRows(a, b [][]string) bool {
	key := func(rows [][]string) []string {
		out := make([]string, len(rows))
		for i, r := range rows {
			k := ""
			for _, c := range r {
				k += c + "\x00"
			}
			out[i] = k
		}
		sort.Strings(out)
		return out
	}
	return reflect.DeepEqual(key(a), key(b))
}
