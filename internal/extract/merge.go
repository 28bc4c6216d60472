package extract

import (
	"slices"
	"strings"

	"threatraptor/internal/ioc"
	"threatraptor/internal/nlp"
)

// mergeTable implements Step 8 of Algorithm 1 (IOC scan and merge): the
// same indicator can appear across blocks in different surface forms
// (e.g. the bare file name "upload.tar" and the full path
// "/tmp/upload.tar"); such mentions are merged into one group using
// character-level overlap (path-boundary suffix matching) gated by word-
// vector similarity. The rules are deliberately conservative: two paths
// that merely share a prefix ("/tmp/upload.tar" vs "/tmp/upload.tar.bz2")
// are different files and must never merge.
type mergeTable struct {
	groups    []*mergeGroup
	byText    map[string]int // surface form -> group index
	pipe      *nlp.Pipeline
	threshold float64
}

type mergeGroup struct {
	canonText string
	typ       ioc.Type
	forms     []string // distinct surface forms, in order of addition
}

func (g *mergeGroup) aliases() []string {
	out := slices.Clone(g.forms)
	slices.Sort(out)
	return out
}

func newMergeTable(pipe *nlp.Pipeline, threshold float64) *mergeTable {
	if threshold <= 0 {
		threshold = 0.8
	}
	return &mergeTable{byText: make(map[string]int), pipe: pipe, threshold: threshold}
}

// add registers a mention, merging it into an existing group when the
// merge criteria hold.
func (m *mergeTable) add(ic ioc.IOC) {
	if _, ok := m.byText[ic.Text]; ok {
		return
	}
	for gi, g := range m.groups {
		if m.mergeable(g, ic) {
			g.forms = append(g.forms, ic.Text)
			m.byText[ic.Text] = gi
			// Prefer the most specific (longest) form as canonical.
			if len(ic.Text) > len(g.canonText) {
				g.canonText = ic.Text
			}
			return
		}
	}
	g := &mergeGroup{canonText: ic.Text, typ: ic.Type, forms: []string{ic.Text}}
	m.groups = append(m.groups, g)
	m.byText[ic.Text] = len(m.groups) - 1
}

func (m *mergeTable) mergeable(g *mergeGroup, ic ioc.IOC) bool {
	for _, form := range g.forms {
		if strings.EqualFold(form, ic.Text) {
			return true
		}
		if pathSuffixMatch(form, ic.Text) || pathSuffixMatch(ic.Text, form) {
			// Semantic gate: the shared basename must dominate the vector.
			if m.pipe.Similarity(base(form), base(ic.Text)) >= m.threshold {
				return true
			}
		}
	}
	return false
}

// pathSuffixMatch reports whether short is the basename (or a /-aligned
// suffix) of full.
func pathSuffixMatch(full, short string) bool {
	if len(short) >= len(full) {
		return false
	}
	return strings.HasSuffix(full, "/"+short) || strings.HasSuffix(full, "\\"+short)
}

func base(p string) string {
	if i := strings.LastIndexAny(p, "/\\"); i >= 0 {
		return p[i+1:]
	}
	return p
}

// canonical returns the group index for a known surface form (-1 when the
// form was never added).
func (m *mergeTable) canonical(text string) int {
	if gi, ok := m.byText[text]; ok {
		return gi
	}
	return -1
}
