package engine

import (
	"fmt"
	"testing"

	"threatraptor/internal/audit"
	"threatraptor/internal/graphdb"
	"threatraptor/internal/relational"
)

// internAttrEntities interns one entity of every kind, every attribute
// set, into tbl (IDs 1, 2, 3 on an empty table).
func internAttrEntities(tbl *audit.EntityTable) {
	tbl.InternProcessOn("host-a", 4242, "/bin/tar", "root", "wheel", "tar czf /tmp/x.tgz /etc")
	tbl.InternFileOn("host-a", "/etc/passwd", "root", "wheel")
	tbl.InternNetConn("10.0.0.1", 5555, "10.0.0.2", 443, "tcp")
}

// attrEvents reads the file (entity 2) and connects to the socket
// (entity 3) from the process (entity 1).
func attrEvents() []audit.Event {
	return []audit.Event{
		{ID: 1, SubjectID: 1, ObjectID: 2, Op: audit.OpRead, StartTime: 1_000, EndTime: 1_010, DataAmount: 64},
		{ID: 2, SubjectID: 1, ObjectID: 3, Op: audit.OpConnect, StartTime: 2_000, EndTime: 2_010, DataAmount: 0},
	}
}

// attrStores builds the same three entities into a store each way a store
// can come to hold them: loaded, appended, restored from a segment image,
// and appended after a restore (the socket is the appended entity).
func attrStores(t *testing.T) map[string]*Store {
	t.Helper()
	log := audit.NewLog()
	internAttrEntities(log.Entities)
	log.Events = attrEvents()
	built, err := NewStore(log)
	if err != nil {
		t.Fatal(err)
	}

	appended, err := NewStore(audit.NewLog())
	if err != nil {
		t.Fatal(err)
	}
	internAttrEntities(appended.Log.Entities)
	if err := appended.AppendBatch(appended.Log.Entities.Since(0), attrEvents()); err != nil {
		t.Fatal(err)
	}

	head := audit.NewLog()
	head.Entities.InternProcessOn("host-a", 4242, "/bin/tar", "root", "wheel", "tar czf /tmp/x.tgz /etc")
	head.Entities.InternFileOn("host-a", "/etc/passwd", "root", "wheel")
	head.Events = attrEvents()[:1]
	headStore, err := NewStore(head)
	if err != nil {
		t.Fatal(err)
	}
	restoredAppended := roundTripStore(t, headStore)
	internAttrEntities(restoredAppended.Log.Entities) // interns only the socket
	if err := restoredAppended.AppendBatch(restoredAppended.Log.Entities.Since(2), attrEvents()[1:]); err != nil {
		t.Fatal(err)
	}

	return map[string]*Store{
		"built":             built,
		"appended":          appended,
		"restored":          roundTripStore(t, built),
		"restored+appended": restoredAppended,
	}
}

// TestEntityAttributesAgree pins the one attribute path: for every entity
// kind × attribute key — each kind's own keys, keys of the other kinds,
// and an unknown key — the graph node attribute (read directly and
// through a Cypher projection and predicate on the published view),
// Snapshot.EntityAttr and audit.Entity.Attr agree on every kind of store.
func TestEntityAttributesAgree(t *testing.T) {
	keys := []string{
		"name", "path", "user", "group", "host",
		"pid", "exename", "cmd",
		"srcip", "srcport", "dstip", "dstport", "protocol",
		"nosuch",
	}
	for name, s := range attrStores(t) {
		sn := s.Snapshot()
		if len(sn.Entities) != 3 || s.Graph.NumNodes() != 3 {
			t.Fatalf("%s: %d entities, %d nodes, want 3", name, len(sn.Entities), s.Graph.NumNodes())
		}
		for _, e := range sn.Entities {
			for _, key := range keys {
				where := fmt.Sprintf("%s: %s entity %d key %q", name, e.Kind, e.ID, key)
				want, wantOK := e.Attr(key)
				if wantOK != audit.HasAttr(e.Kind, key) {
					t.Fatalf("%s: Attr ok=%v disagrees with HasAttr", where, wantOK)
				}
				got, ok := s.Graph.Node(e.ID).Prop(key)
				if ok != wantOK || (ok && got.String() != want) {
					t.Fatalf("%s: graph node %v %v, entity %q %v", where, got, ok, want, wantOK)
				}
				numeric := key == "pid" || key == "srcport" || key == "dstport"
				if ok && (got.K == relational.KindInt) != numeric {
					t.Fatalf("%s: graph node value %v has kind %v", where, got, got.K)
				}
				attr := sn.EntityAttr(e.ID, key)
				if ok && !attr.Equal(got) || !ok && !attr.IsNull() {
					t.Fatalf("%s: Snapshot.EntityAttr %v, graph node %v %v", where, attr, got, ok)
				}
				proj := viewQuery(t, s, sn, fmt.Sprintf("MATCH (n) WHERE n.id = %d RETURN n.%s", e.ID, key))
				if len(proj) != 1 || !proj[0][0].Equal(attr) && !(attr.IsNull() && proj[0][0].IsNull()) {
					t.Fatalf("%s: Cypher projection %v, want %v", where, proj, attr)
				}
				if ok {
					lit := relational.ExprString(relational.Lit{V: got})
					pred := viewQuery(t, s, sn, fmt.Sprintf("MATCH (n) WHERE n.id = %d AND n.%s = %s RETURN n.id", e.ID, key, lit))
					if len(pred) != 1 || pred[0][0].I != e.ID {
						t.Fatalf("%s: Cypher predicate %s matched %v", where, lit, pred)
					}
				}
			}
		}
	}
}

// viewQuery runs Cypher source against the snapshot's graph view.
func viewQuery(t *testing.T, s *Store, sn *Snapshot, src string) [][]relational.Value {
	t.Helper()
	q, err := graphdb.ParseQuery(src)
	if err != nil {
		t.Fatalf("%s: %v", src, err)
	}
	rs, _, err := s.Graph.ExecWith(q, &graphdb.ExecParams{View: &sn.Graph})
	if err != nil {
		t.Fatalf("%s: %v", src, err)
	}
	return rs.Rows
}
