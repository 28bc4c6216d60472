package main

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"threatraptor/internal/audit"
	"threatraptor/internal/extract"
	"threatraptor/internal/rules"
	"threatraptor/internal/synth"
	"threatraptor/internal/tbql"
)

// TestSeedDeterminesInputs pins the generator's contract: one seed yields
// byte-identical inputs twice, two seeds differ.
func TestSeedDeterminesInputs(t *testing.T) {
	inputs := func(seed int64) []byte {
		var b bytes.Buffer
		st := genStream(seed, shortScale, 3, 9, ingestAttackEvery, streamStartUS)
		b.Write(wire(st.Records))
		b.Write(rulesJSON(genRules(seed, 64)))
		rng := rand.New(rand.NewSource(mix(seed, 7)))
		for _, r := range genReports() {
			b.WriteString(r.perturb(rng))
		}
		pool, err := genQueryPool(st.Records[0].Time, st.Records[len(st.Records)-1].Time)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range pool {
			b.WriteString(uniqueVariant(q.Src, rng.Int63()))
		}
		return b.Bytes()
	}
	a, again, other := inputs(11), inputs(11), inputs(12)
	if !bytes.Equal(a, again) {
		t.Error("seed 11 produced different inputs on a second call")
	}
	if bytes.Equal(a, other) {
		t.Error("seeds 11 and 12 produced identical inputs")
	}
}

// TestStreamLayout checks cloning: clones are laid end to end in event
// time on hosts of their own, attacks are planted on schedule, and a clone
// does not depend on where its stream started.
func TestStreamLayout(t *testing.T) {
	st := genStream(5, shortScale, 0, 10, ingestAttackEvery, streamStartUS)
	if len(st.Clones) != 10 || st.Records[0].Time != streamStartUS {
		t.Fatalf("got %d clones starting at %d", len(st.Clones), st.Records[0].Time)
	}
	for i, c := range st.Clones {
		if want := i%ingestAttackEvery == 0; c.Attack != want {
			t.Errorf("clone %d: attack planted = %v, want %v", i, c.Attack, want)
		}
		if c.CaseID != plantedCases[i%len(plantedCases)] {
			t.Errorf("clone %d replays %s", i, c.CaseID)
		}
		for j := c.Lo; j < c.Hi; j++ {
			if st.Records[j].Host != c.Host {
				t.Fatalf("clone %d: record %d on host %q, want %q", i, j, st.Records[j].Host, c.Host)
			}
		}
		if i > 0 && st.Records[c.Lo].Time != st.Records[c.Lo-1].Time+cloneGapUS {
			t.Errorf("clone %d does not start one gap after clone %d ended", i, i-1)
		}
	}
	benign := genStream(5, shortScale, 1, 1, 1<<30, streamStartUS)
	attacked := genStream(5, shortScale, 1, 1, 1, streamStartUS)
	if len(attacked.Records) <= len(benign.Records) {
		t.Errorf("clone 1 with its attack has %d records, without %d", len(attacked.Records), len(benign.Records))
	}
	tail := genStream(5, shortScale, 7, 3, ingestAttackEvery, st.Records[st.Clones[7].Lo].Time)
	if !bytes.Equal(wire(tail.Records), wire(st.Records[st.Clones[7].Lo:])) {
		t.Error("clones 7..9 generated on their own differ from the same clones inside the longer stream")
	}
}

// TestWireMatchesRecordFormat pins the generator's fast formatter to
// audit.Record.Format, the wire format's definition.
func TestWireMatchesRecordFormat(t *testing.T) {
	st := genStream(3, shortScale, 0, len(plantedCases), 1, streamStartUS)
	recs := append([]audit.Record(nil), st.Records...)
	recs = append(recs,
		audit.Record{Time: 1, Call: audit.SysExecve, PID: 7, Exe: "/bin/my shell", CMD: `sh -c "echo hi"`, FD: audit.FDProc, ChildPID: 8, ChildExe: "/bin/echo", ChildCMD: "echo hi", Ret: -1},
		audit.Record{Time: 2, Call: audit.SysRead, PID: 9, Exe: "/bin/cat", User: "u", Group: "g", FD: audit.FDFile, Path: "/tmp/a b", Bytes: 10},
	)
	var want bytes.Buffer
	if err := audit.WriteRecords(&want, recs); err != nil {
		t.Fatal(err)
	}
	if got := wire(recs); !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("wire() differs from audit.WriteRecords over %d records", len(recs))
	}
	n := 0
	for _, ch := range wireChunks(recs) {
		n += bytes.Count(ch, []byte("\n"))
	}
	if n != len(recs) {
		t.Errorf("wireChunks holds %d lines, want %d", n, len(recs))
	}
}

// TestQueriesAndRulesCompile checks that everything the generator emits is
// accepted by the layer it is meant for.
func TestQueriesAndRulesCompile(t *testing.T) {
	pool, err := genQueryPool(streamStartUS, streamStartUS+600_000_000)
	if err != nil {
		t.Fatal(err)
	}
	hits, trailing := 0, 0
	for _, q := range pool {
		for _, src := range []string{q.Src, uniqueVariant(q.Src, 42), withHostColumn(q.Src)} {
			pq, err := tbql.Parse(src)
			if err == nil {
				_, err = tbql.Analyze(pq)
			}
			if err != nil {
				t.Errorf("%s: %v\n%s", q.Name, err, src)
			}
		}
		if u := uniqueVariant(q.Src, 42); u == q.Src || !strings.Contains(u, "pid != ") {
			t.Errorf("%s: uniqueVariant left the text unchanged", q.Name)
		}
		if q.Planted != "" {
			hits++
		}
		if q.Trailing {
			trailing++
		}
	}
	if len(pool) != 56 || hits != len(plantedCases) || trailing != len(plantedCases) {
		t.Errorf("pool has %d queries, %d planted, %d trailing", len(pool), hits, trailing)
	}
	watches, err := genWatchQueries()
	if err != nil || len(watches) != len(plantedCases) {
		t.Fatalf("watch queries: %d, %v", len(watches), err)
	}
	for _, w := range watches {
		if !strings.Contains(w, ".host, ") {
			t.Errorf("watch query lacks the host column:\n%s", w)
		}
	}
	rs := genRules(9, ingestRuleCount)
	set, err := rules.Compile(rs)
	if err != nil || set.Len() != ingestRuleCount {
		t.Fatalf("rules: %v", err)
	}
	if _, err := rules.ParseJSON(rulesJSON(rs)); err != nil {
		t.Errorf("rule file does not parse back: %v", err)
	}
}

// TestPerturbKeepsReportsSynthesizable checks that a perturbed report is a
// new text that still turns into a query.
func TestPerturbKeepsReportsSynthesizable(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ex := extract.New(extract.DefaultOptions())
	reports := genReports()
	if len(reports) != 19 {
		t.Fatalf("%d reports", len(reports))
	}
	changed := 0
	for _, r := range reports {
		for i := 0; i < 20; i++ {
			p := r.perturb(rng)
			if p != r.Text {
				changed++
			}
			if _, _, err := synth.Synthesize(ex.Extract(p).Graph, synth.Options{}); err != nil {
				t.Fatalf("%s: perturbed report no longer synthesizes: %v\n%s", r.CaseID, err, p)
			}
		}
	}
	if changed == 0 {
		t.Error("no report was ever changed by perturb")
	}
}
