package shard

import (
	"reflect"
	"testing"

	"threatraptor/internal/audit"
	"threatraptor/internal/cases"
	"threatraptor/internal/engine"
	"threatraptor/internal/tbql"
)

// lateralTBQL hunts the lateral_movement extra case across the fleet: the
// ssh connect happens on host-a, the sshd receive and the scp exfil on
// host-b, and the two halves of the pivot meet at the shared NetConn
// entity (5-tuple identity is host-agnostic). The receive starts five
// 2-second slices after the connect, so evt1 and evt2 live in different
// shards at 2 and 4 partitions (the test asserts it), and the temporal
// join is a genuine cross-shard join through the global entity table.
const lateralTBQL = `proc p1["%/usr/bin/ssh%"] connect ip i1["10.0.0.12"] as evt1
proc p2["%/usr/sbin/sshd%"] receive ip i1 as evt2
proc p3["%/usr/bin/scp%"] connect ip i2["203.0.113.50"] as evt3
with evt1 before evt2, evt2 before evt3
return distinct p1, i1, p2, p3, i2`

// pivotEvents returns the IDs of the pivot's two halves: host-a's ssh
// connect (evt1) and host-b's sshd receive (evt2).
func pivotEvents(t *testing.T, log *audit.Log) (connect, receive int64) {
	t.Helper()
	for i := range log.Events {
		ev := &log.Events[i]
		subj := log.Entities.Lookup(ev.SubjectID)
		switch {
		case subj.Proc.ExeName == "/usr/bin/ssh" && ev.Op.String() == "connect":
			connect = ev.ID
		case subj.Proc.ExeName == "/usr/sbin/sshd" && ev.Op.String() == "receive":
			receive = ev.ID
		}
	}
	if connect == 0 || receive == 0 {
		t.Fatalf("pivot events not found: connect %d, receive %d", connect, receive)
	}
	return connect, receive
}

// holder returns the partition of v holding event id.
func holder(t *testing.T, v *View, id int64) int {
	t.Helper()
	for i, snap := range v.Shards {
		for _, ev := range snap.Events {
			if ev.ID == id {
				return i
			}
		}
	}
	t.Fatalf("event %d is in no partition", id)
	return -1
}

func TestShardedLateralMovement(t *testing.T) {
	c := cases.ByID("lateral_movement")
	if c == nil {
		t.Fatal("lateral_movement case missing (cases.Extras)")
	}
	gen, err := c.Generate(1)
	if err != nil {
		t.Fatal(err)
	}
	q, err := tbql.Parse(lateralTBQL)
	if err != nil {
		t.Fatal(err)
	}
	a, err := tbql.Analyze(q)
	if err != nil {
		t.Fatal(err)
	}

	ref, err := engine.NewStore(gen.Log)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := (&engine.Engine{Store: ref}).Execute(nil, a)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Set.Rows) == 0 {
		t.Fatal("unsharded hunt found no lateral-movement chain")
	}
	want := sortedRows(res.Set.Strings())
	connect, receive := pivotEvents(t, gen.Log)

	for _, n := range []int{2, 4} {
		sh, err := New(gen.Log, n, 2_000_000)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		// The pivot's two halves must sit in different partitions for the
		// test to exercise a cross-shard join at all.
		v := sh.View()
		if holder(t, v, connect) == holder(t, v, receive) {
			t.Fatalf("n=%d: evt1 and evt2 share partition %d; pick another slice width", n, holder(t, v, connect))
		}
		sres, _, err := sh.Execute(nil, a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if got := sortedRows(sres.Set.Strings()); !reflect.DeepEqual(got, want) {
			t.Errorf("n=%d rows differ from unsharded:\ngot  %v\nwant %v", n, got, want)
		}
		if !sameEventSet(sres.MatchedEvents, res.MatchedEvents) {
			t.Errorf("n=%d matched %d events, unsharded %d",
				n, len(sres.MatchedEvents), len(res.MatchedEvents))
		}
	}
}
