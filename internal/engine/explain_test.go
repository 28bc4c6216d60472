package engine

import (
	"regexp"
	"strings"
	"testing"

	"threatraptor/internal/cases"
	"threatraptor/internal/extract"
	"threatraptor/internal/synth"
	"threatraptor/internal/tbql"
)

// rowFilters matches the per-level filter counts Describe prints.
var rowFilters = regexp.MustCompile(`(\d+) vectorized \+ (\d+) row filters`)

// checkNoRowFilters explains src and demands that every relational level
// it prints (event patterns and graph anchor prefilters alike) runs all
// of its conjuncts as batch kernels.
func checkNoRowFilters(t *testing.T, en *Engine, src string) {
	t.Helper()
	out, err := en.Explain(src)
	if err != nil {
		t.Fatalf("%v\n%s", err, src)
	}
	levels := rowFilters.FindAllStringSubmatch(out, -1)
	if len(levels) == 0 {
		t.Fatalf("no relational level in the plan of\n%s\n%s", src, out)
	}
	for _, m := range levels {
		if m[2] != "0" {
			t.Fatalf("a level runs %s row filters:\n%s\n%s", m[2], src, out)
		}
	}
}

// TestAttrExprsVectorize pins that TBQL attribute expressions — the
// paper's ⟨attr_exp⟩ with !, && and ||, in / not in, wildcard <> (NOT
// LIKE), int comparisons and multi-op events — compile to batch kernels
// on every relational level, for the synthesized queries of every case in
// each synthesis mode and for a table of hand-written shapes.
func TestAttrExprsVectorize(t *testing.T) {
	en := &Engine{Store: tinyStore(t)}
	shapes := []string{
		`proc p[!"%chrome%"] read file f["%passwd%"] return p, f`,
		`proc p["%tar%" || "%bzip%"] read || write file f[!"%tmp%" && "%a%"] return p, f`,
		`proc p[exename = "%tar%" && user = "root"] read file f return p`,
		`proc p[("%tar%" || "%cp%") && !(user = "nobody" || "%vim%")] read file f[!("%tmp%" || !"%etc%")] return p, f`,
		`proc p[exename in ("/bin/tar", "/bin/cp")] read file f[name not in ("/etc/passwd", "/etc/shadow")] return p, f`,
		`proc p[exename <> "%chrome%" && user != "nobody"] write file f return p`,
		`proc p[pid = 1 || pid > 100 && !(pid < 50)] connect ip i[dstport = 443 || dstport = 80 || dstport in (22, 8080)] return p, i`,
		`proc p read || write || execute file f as evt1[amount > 100 || amount < 5] return p, f`,
		`proc p["%tar%" || "%bzip%"] ->[read] file f[!"%tmp%"] return p, f`,
		`proc p[!"%chrome%"] ~>(1~3) file f["%passwd%" || "%shadow%"] return distinct p, f`,
	}
	for _, src := range shapes {
		checkNoRowFilters(t, en, src)
	}

	all := cases.All()
	if len(all) != 18 {
		t.Fatalf("%d cases, want the 18 of Table IV", len(all))
	}
	for _, c := range all {
		graph := extract.New(extract.DefaultOptions()).Extract(c.Report).Graph
		for _, mode := range []synth.Mode{synth.ModeEventPatterns, synth.ModeLength1Paths, synth.ModeVarLenPaths} {
			q, _, err := synth.Synthesize(graph, synth.Options{Mode: mode, MaxPathLen: 3})
			if err != nil {
				t.Fatalf("%s: %v", c.ID, err)
			}
			checkNoRowFilters(t, en, tbql.Format(q))
		}
	}
}

// TestExplainNamesLikeAccess pins how EXPLAIN prints the index LIKE
// access: as the runtime fallback of an event pattern's optional
// subject-ID probe, and alone on a path pattern's anchor prefilter, for
// the first two steps of the data_leak case query. The plans are the
// shape's, so each value slot prints with the query's value bound to it,
// while the monolithic baselines inline the literals.
func TestExplainNamesLikeAccess(t *testing.T) {
	en := &Engine{Store: tinyStore(t)}
	out, err := en.Explain(`proc p1["%/bin/tar%"] read file f1["%/etc/passwd%"] as evt1
proc p1 ->[write] file f2["%/tmp/upload.tar%"] as evt2
with evt1 before evt2
return distinct p1, f1, f2`)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		"  L0 entities s: index multi-probe on id from param list 0 (optional; unbound -> index LIKE on exename (per distinct key)); 3 vectorized + 0 row filters\n",
		"  L0 entities n: index LIKE on exename (per distinct key); 2 vectorized + 0 row filters\n",
		"  s: kind = proc ∧ exename LIKE ?v0 ['%/bin/tar%']\n",
		" AND s.exename LIKE ?v0 ['%/bin/tar%'] AND o.name LIKE ?v1 ['%/etc/passwd%'] AND ",
		"WHERE s.exename LIKE ?v0 ['%/bin/tar%'] AND o.name LIKE ?v2 ['%/tmp/upload.tar%'] RETURN",
		"  anchors of an unbound s: SELECT n.id FROM entities n WHERE n.kind = 'proc' AND n.exename LIKE ?v0 ['%/bin/tar%']\n",
		" AND p1.exename LIKE '%/bin/tar%' AND f1.kind = 'file' AND f1.name LIKE '%/etc/passwd%' AND ",
	} {
		if !strings.Contains(out, line) {
			t.Fatalf("missing %q in\n%s", line, out)
		}
	}
}
