package fuzzy

import (
	"context"
	"testing"

	"threatraptor/internal/audit"
)

// multiConnLog models the same C2 address reached over several distinct
// 5-tuple connections (different source ports), plus a process chain where
// a fork artifact shares the parent's image.
func multiConnLog(t testing.TB) *audit.Log {
	t.Helper()
	log := audit.NewLog()
	stage1 := log.Entities.Intern(audit.NewProcessEntity(1, "/tmp/stage1", "root", "root", ""))
	stage2 := log.Entities.Intern(audit.NewProcessEntity(2, "/tmp/stage2", "root", "root", ""))
	forkChild := log.Entities.Intern(audit.NewProcessEntity(2, "/tmp/stage1", "root", "root", ""))
	c2a := log.Entities.Intern(audit.NewNetConnEntity("10.0.0.1", 4000, "6.6.6.6", 443, "tcp"))
	c2b := log.Entities.Intern(audit.NewNetConnEntity("10.0.0.1", 4001, "6.6.6.6", 443, "tcp"))

	// stage1 connects on one socket; fork; execve to stage2; stage2
	// connects on another socket to the same address.
	log.Append(audit.Event{SubjectID: stage1.ID, ObjectID: c2a.ID, Op: audit.OpConnect, StartTime: 10, EndTime: 11})
	log.Append(audit.Event{SubjectID: stage1.ID, ObjectID: forkChild.ID, Op: audit.OpStart, StartTime: 20, EndTime: 21})
	log.Append(audit.Event{SubjectID: stage1.ID, ObjectID: stage2.ID, Op: audit.OpStart, StartTime: 22, EndTime: 23})
	log.Append(audit.Event{SubjectID: stage2.ID, ObjectID: c2b.ID, Op: audit.OpConnect, StartTime: 30, EndTime: 31})
	return log
}

// TestNetConnNotPinned: one query IP node must align to both 5-tuple
// connection entities of the same destination address.
func TestNetConnNotPinned(t *testing.T) {
	qg := queryGraph(t, `proc p1["%stage1%"] connect ip i1["6.6.6.6"] as e1
proc p2["%stage2%"] connect ip i1 as e2
return distinct p1, p2, i1`)
	als := search(t, NewSearcher(snapshotOf(t, multiConnLog(t)), qg, ModeExhaustive))
	if len(als) == 0 {
		t.Fatal("both connect edges reach the same address via different sockets; the IP node must not pin")
	}
	if als[0].Score < 0.99 {
		t.Fatalf("both edges are direct hits: score = %v", als[0].Score)
	}
	// Both connect events are covered.
	if len(als[0].Events) < 2 {
		t.Fatalf("events = %v, want both connects", als[0].Events)
	}
}

// TestForkArtifactDoesNotShadowChild: the fork event's object shares the
// parent's image name; the exact-named execve child must win alignment.
func TestForkArtifactDoesNotShadowChild(t *testing.T) {
	qg := queryGraph(t, `proc p1["%/tmp/stage1%"] start proc p2["%/tmp/stage2%"] as e1
return distinct p1, p2`)
	s := NewSearcher(snapshotOf(t, multiConnLog(t)), qg, ModeExhaustive)
	als := search(t, s)
	if len(als) == 0 {
		t.Fatal("no alignment")
	}
	for i, qn := range qg.Nodes {
		if qn.ID == "p2" {
			if got := s.Name(als[0].NodeMap[i]); got != "/tmp/stage2" {
				t.Fatalf("p2 aligned to %q, want the execve child", got)
			}
		}
	}
}

// TestDirectHitFollowsEventDirection: a direct hit must run from the
// query edge's subject to its object. omega starts alpha; a query edge
// pointing the other way, seeded at either end, finds no direct event and
// falls back to the one-process flow, which scores 1/2.
func TestDirectHitFollowsEventDirection(t *testing.T) {
	log := audit.NewLog()
	alpha := log.Entities.Intern(audit.NewProcessEntity(1, "/bin/alpha", "", "", ""))
	omega := log.Entities.Intern(audit.NewProcessEntity(2, "/usr/bin/omega", "", "", ""))
	log.Append(audit.Event{SubjectID: omega.ID, ObjectID: alpha.ID, Op: audit.OpStart, StartTime: 1, EndTime: 2})
	snap := snapshotOf(t, log)
	for _, c := range []struct {
		query string
		want  float64
	}{
		{`proc p1["%omega%"] start proc p2["%alpha%"] as e1 return p1, p2`, 1},
		// Seeded at p1 (alpha): a forward lookup over alpha's edges.
		{`proc p1["%alpha%"] start proc p2["%omega%"] as e1 return p1, p2`, 0.5},
		// Seeded at p2 (omega, one candidate against p1's two): a backward
		// lookup over omega's edges.
		{`proc p1 start proc p2["%omega%"] as e1 return p1, p2`, 0.5},
	} {
		qg := queryGraph(t, c.query)
		s := NewSearcher(snap, qg, ModeExhaustive)
		seed := s.componentSeed(make([]bool, len(qg.Nodes)))
		if got := s.expand(context.Background(), seed, s.Candidates[seed][0]).Score; got != c.want {
			t.Errorf("%s: score %v, want %v", c.query, got, c.want)
		}
	}
}

// TestDisconnectedComponentsExpand: a query graph with two unconnected
// stages aligns both.
func TestDisconnectedComponentsExpand(t *testing.T) {
	log := audit.NewLog()
	a := log.Entities.Intern(audit.NewProcessEntity(1, "/bin/a", "", "", ""))
	fa := log.Entities.Intern(audit.NewFileEntity("/tmp/fa", "", ""))
	b := log.Entities.Intern(audit.NewProcessEntity(2, "/bin/b", "", "", ""))
	fb := log.Entities.Intern(audit.NewFileEntity("/tmp/fb", "", ""))
	log.Append(audit.Event{SubjectID: a.ID, ObjectID: fa.ID, Op: audit.OpRead, StartTime: 1, EndTime: 2})
	log.Append(audit.Event{SubjectID: b.ID, ObjectID: fb.ID, Op: audit.OpWrite, StartTime: 3, EndTime: 4})
	qg := queryGraph(t, `proc p1["%/bin/a%"] read file f1["%/tmp/fa%"] as e1
proc p2["%/bin/b%"] write file f2["%/tmp/fb%"] as e2
return distinct p1, p2`)
	s := NewSearcher(snapshotOf(t, log), qg, ModeExhaustive)
	als := search(t, s)
	if len(als) == 0 {
		t.Fatal("disconnected query components must both expand")
	}
	if als[0].Score < 0.99 {
		t.Fatalf("score = %v, want ~1 (both edges direct)", als[0].Score)
	}
	named := map[string]string{}
	for i, qn := range qg.Nodes {
		if als[0].NodeMap[i] != 0 {
			named[qn.ID] = s.Name(als[0].NodeMap[i])
		}
	}
	if named["p1"] != "/bin/a" || named["p2"] != "/bin/b" {
		t.Fatalf("alignment = %v", named)
	}
}

func TestBaseName(t *testing.T) {
	cases := map[string]string{
		"/usr/bin/tar":   "tar",
		"tar":            "tar",
		`C:\Users\x.exe`: "x.exe",
		"/ends/with/":    "/ends/with/",
	}
	for in, want := range cases {
		if got := baseName(in); got != want {
			t.Errorf("baseName(%q) = %q, want %q", in, got, want)
		}
	}
}
