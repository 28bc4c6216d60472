package engine

import (
	"regexp"
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
