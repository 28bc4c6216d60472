package synth

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"threatraptor/internal/cases"
	"threatraptor/internal/extract"
	"threatraptor/internal/ioc"
	"threatraptor/internal/relational"
	"threatraptor/internal/tbql"
)

// perturbedReport replaces each recognized indicator of text with a
// sibling of the same shape: an IPv4 keeps its network, anything else gets
// a tag spliced in before its first dot.
func perturbedReport(text string, tag int) string {
	var b strings.Builder
	prev := 0
	for _, ic := range ioc.Extract(text) {
		b.WriteString(text[prev:ic.Start])
		repl := ic.Text
		if ic.Type == ioc.TypeIPv4 {
			parts := strings.Split(ic.Text, ".")
			repl = fmt.Sprintf("%s.%s.%d.%d", parts[0], parts[1], 1+tag%250, 1+(tag/250)%250)
		} else if dot := strings.IndexByte(ic.Text, '.'); dot > 0 {
			repl = fmt.Sprintf("%s-%06x%s", ic.Text[:dot], tag, ic.Text[dot:])
		} else {
			repl = fmt.Sprintf("%s%06x", ic.Text, tag)
		}
		b.WriteString(repl)
		prev = ic.End
	}
	b.WriteString(text[prev:])
	return b.String()
}

// TestSynthesizedQueriesRoundTrip: for every case report and three
// perturbed variants of it, in every synthesis mode, the synthesized query
// analyzes exactly as its formatted text parsed back does (the same shape,
// literal vector and return items), and none of its literals points into
// the report. The engine caches an analyzed synthesized query under its
// formatted text, so a later hunt of that text runs it.
func TestSynthesizedQueriesRoundTrip(t *testing.T) {
	ex := extract.New(extract.DefaultOptions())
	checked, skipped := 0, 0
	for _, c := range append(cases.All(), cases.Extras()...) {
		for v := 0; v < 4; v++ {
			text := c.Report
			if v > 0 {
				text = perturbedReport(c.Report, 0xabcdef*v)
			}
			g := ex.Extract(text).Graph
			for _, mode := range []Mode{ModeEventPatterns, ModeLength1Paths, ModeVarLenPaths} {
				q, _, err := Synthesize(g, Options{Mode: mode})
				if err != nil && v > 0 {
					skipped++ // the tag left no synthesizable IOC relation
					continue
				}
				if err != nil {
					t.Fatalf("%s/%d mode %d: %v", c.ID, v, mode, err)
				}
				checked++
				src := tbql.Format(q)
				a, err := tbql.Analyze(q)
				if err != nil {
					t.Fatalf("%s/%d mode %d: %v\n%s", c.ID, v, mode, err, src)
				}
				q2, err := tbql.Parse(src)
				if err != nil {
					t.Fatalf("%s/%d mode %d: formatted query must parse: %v\n%s", c.ID, v, mode, err, src)
				}
				a2, err := tbql.Analyze(q2)
				if err != nil {
					t.Fatalf("%s/%d mode %d: %v\n%s", c.ID, v, mode, err, src)
				}
				switch {
				case a.Shape != a2.Shape:
					t.Errorf("%s/%d mode %d: shapes differ:\n%s\nvs\n%s", c.ID, v, mode, a.Shape.Value(), a2.Shape.Value())
				case !slices.Equal(a.Lits, a2.Lits):
					t.Errorf("%s/%d mode %d: literals %q vs %q", c.ID, v, mode, a.Lits, a2.Lits)
				case !slices.Equal(a.ReturnItems, a2.ReturnItems):
					t.Errorf("%s/%d mode %d: return items %v vs %v", c.ID, v, mode, a.ReturnItems, a2.ReturnItems)
				}
				for _, lit := range a.Lits {
					if lit.K == relational.KindString && aliases(lit.S, text) {
						t.Errorf("%s/%d mode %d: literal %q points into the report", c.ID, v, mode, lit.S)
					}
				}
			}
		}
	}
	t.Logf("%d queries round-tripped, %d perturbed variants left nothing to synthesize", checked, skipped)
}

// aliases reports whether s's bytes lie inside text's.
func aliases(s, text string) bool {
	if len(s) == 0 || len(text) == 0 {
		return false
	}
	p, lo := uintptr(unsafe.Pointer(unsafe.StringData(s))), uintptr(unsafe.Pointer(unsafe.StringData(text)))
	return p >= lo && p < lo+uintptr(len(text))
}
