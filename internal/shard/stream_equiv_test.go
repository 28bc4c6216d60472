package shard

import (
	"bytes"
	"reflect"
	"sort"
	"strings"
	"testing"

	"threatraptor/internal/audit"
	"threatraptor/internal/cases"
	"threatraptor/internal/engine"
	"threatraptor/internal/rules"
	"threatraptor/internal/stream"
	"threatraptor/internal/tactical"
)

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

const graphTBQL = `proc p1["%/bin/tar%"] ->[read] file f1["%/etc/passwd%"] as evt1
proc p1 ->[write] file f2["%/tmp/upload.tar%"] as evt2
with evt1 before evt2
return distinct p1, f1, f2`

const varlenTBQL = `proc p1["%/bin/tar%"] ~>(1~8)[connect] ip i1["192.168.29.128"]
return distinct p1, i1`

// dataLeakRecords regenerates the data_leak case's raw record stream (the
// simulator run cases.GenerateRaw performs), scaled down.
func dataLeakRecords(t testing.TB, scale float64) []audit.Record {
	t.Helper()
	c := cases.ByID("data_leak")
	if c == nil {
		t.Fatal("data_leak case missing")
	}
	records, _, _ := c.Simulate(scale)
	return records
}

func twinRules(t testing.TB) *rules.Set {
	t.Helper()
	set, err := rules.Compile([]rules.Rule{
		{Name: "credential-file-read", Tactic: "credential-access", Severity: 8,
			Ops: []string{"read"}, Where: map[string]string{"object.kind": "file", "object.name": "/etc/*"}},
		{Name: "staging-write-tmp", Tactic: "collection",
			Ops: []string{"write"}, Where: map[string]string{"object.kind": "file", "object.name": "/tmp/*"}},
		{Name: "outbound-connect", Tactic: "command-and-control",
			Ops: []string{"connect"}, Where: map[string]string{"object.kind": "ip"}},
		{Name: "outbound-send", Tactic: "exfiltration", Severity: 7,
			Ops: []string{"send"}, Where: map[string]string{"object.kind": "ip"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return set
}

func drainMatches(sub *stream.Subscription) []string {
	var out []string
	for {
		select {
		case m, ok := <-sub.C:
			if !ok {
				return out
			}
			var parts []string
			for _, v := range m.Row {
				parts = append(parts, v.String())
			}
			out = append(out, strings.Join(parts, "|"))
		default:
			return out
		}
	}
}

// TestShardedStreamEquivalence drives twin live sessions — one over the
// classic single store, one over each sharded backend configuration —
// through identical chunked ingest with identical standing queries and
// rule sets, and requires indistinguishable outcomes: the same sealed
// event log, the same hunt rows, the same firing sets, and byte-identical
// ranked-incident JSON.
func TestShardedStreamEquivalence(t *testing.T) {
	recs := dataLeakRecords(t, 0.25)
	queries := []string{dataLeakTBQL, graphTBQL, varlenTBQL}
	newCfg := func() stream.Config {
		return stream.Config{MatchBuffer: 8192, Tactical: tactical.Config{Rules: twinRules(t)}}
	}

	type lane struct {
		name string
		sess *stream.Session
		hunt func(src string) (*engine.Result, engine.Stats, error)
		subs []*stream.Subscription
	}
	build := func(name string, sess *stream.Session, hunt func(string) (*engine.Result, engine.Stats, error)) *lane {
		l := &lane{name: name, sess: sess, hunt: hunt}
		for _, q := range queries {
			sub, err := sess.Watch(q)
			if err != nil {
				t.Fatal(err)
			}
			l.subs = append(l.subs, sub)
		}
		return l
	}

	store, err := engine.NewStore(audit.NewLog())
	if err != nil {
		t.Fatal(err)
	}
	en := &engine.Engine{Store: store}
	lanes := []*lane{build("classic", stream.New(store, en, newCfg()), func(src string) (*engine.Result, engine.Stats, error) {
		return en.Hunt(nil, src)
	})}
	for _, cfg := range eqConfigs {
		sh, err := New(audit.NewLog(), cfg.n, cfg.sliceUS)
		if err != nil {
			t.Fatal(err)
		}
		lanes = append(lanes, build(cfg.name, stream.NewWithBackend(sh, newCfg()), func(src string) (*engine.Result, engine.Stats, error) {
			return huntSharded(sh, src)
		}))
	}

	const chunk = 512
	for lo := 0; lo < len(recs); lo += chunk {
		hi := lo + chunk
		if hi > len(recs) {
			hi = len(recs)
		}
		for _, l := range lanes {
			if _, err := l.sess.IngestRecords(recs[lo:hi]); err != nil {
				t.Fatalf("%s ingest: %v", l.name, err)
			}
		}
	}
	for _, l := range lanes {
		if _, err := l.sess.Flush(); err != nil {
			t.Fatalf("%s flush: %v", l.name, err)
		}
	}

	ref := lanes[0]
	refIncs, err := tactical.MarshalIncidents(ref.sess.Incidents())
	if err != nil {
		t.Fatal(err)
	}
	if ref.sess.TacticalStats().AlertsTagged == 0 {
		t.Fatal("reference session tagged no alerts; incident comparison would be vacuous")
	}
	refFired := make([][]string, len(queries))
	for i, sub := range ref.subs {
		refFired[i] = drainMatches(sub)
		sort.Strings(refFired[i])
		if sub.Dropped() != 0 {
			t.Fatalf("reference dropped %d matches; raise MatchBuffer", sub.Dropped())
		}
	}

	for _, l := range lanes[1:] {
		// Identical sealed stores: the watermarked reduction and global ID
		// assignment are backend-independent.
		if !reflect.DeepEqual(ref.sess.Store().Log.Events, l.sess.Store().Log.Events) {
			t.Fatalf("%s sealed event log diverged (%d vs %d events)", l.name,
				len(l.sess.Store().Log.Events), len(ref.sess.Store().Log.Events))
		}
		// Identical hunts through each lane's backend (the sharded lane's
		// hunts scatter-gather; compare canonically sorted).
		for _, q := range queries {
			want, _, err := ref.hunt(q)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := l.hunt(q)
			if err != nil {
				t.Fatalf("%s hunt: %v", l.name, err)
			}
			if !reflect.DeepEqual(sortedRows(got.Set.Strings()), sortedRows(want.Set.Strings())) {
				t.Errorf("%s hunt %q diverged", l.name, q)
			}
		}
		// Identical standing-query firing sets (order is batch-arrival
		// dependent; matches are deduplicated).
		for i, sub := range l.subs {
			if err := sub.Err(); err != nil {
				t.Fatalf("%s subscription %d: %v", l.name, i, err)
			}
			if sub.Dropped() != 0 {
				t.Fatalf("%s dropped %d matches; raise MatchBuffer", l.name, sub.Dropped())
			}
			fired := drainMatches(sub)
			sort.Strings(fired)
			if !reflect.DeepEqual(fired, refFired[i]) {
				t.Errorf("%s firings for %q diverged:\ngot  %v\nwant %v",
					l.name, queries[i], fired, refFired[i])
			}
		}
		// Byte-identical ranked-incident JSON: the tactical layer reads the
		// sharded store's global snapshot, which equals the classic store's.
		incs, err := tactical.MarshalIncidents(l.sess.Incidents())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(incs, refIncs) {
			t.Errorf("%s incident JSON diverged from classic session", l.name)
		}
	}
}
