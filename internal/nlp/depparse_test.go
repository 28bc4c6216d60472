package nlp

import (
	"slices"
	"strings"
	"testing"
)

// parse runs the full pipeline on one sentence and returns its tree.
func parse(t *testing.T, text string) *DepTree {
	t.Helper()
	p := NewPipeline()
	trees := p.Process(text)
	if len(trees) != 1 {
		t.Fatalf("expected 1 sentence, got %d for %q", len(trees), text)
	}
	return trees[0]
}

// find returns the index of the first token with the given text.
func find(t *testing.T, d *DepTree, text string) int {
	t.Helper()
	for i, tok := range d.Tokens {
		if tok.Text == text {
			return i
		}
	}
	t.Fatalf("token %q not found in %v", text, d.Tokens)
	return -1
}

// hasArc asserts head(dep) == head with the given relation.
func hasArc(t *testing.T, d *DepTree, depText, headText, rel string) {
	t.Helper()
	dep := find(t, d, depText)
	head := find(t, d, headText)
	if d.Head[dep] != head || d.Rel[dep] != rel {
		t.Errorf("want %s -%s-> %s; got head=%v rel=%q",
			headText, rel, depText, tokText(d, d.Head[dep]), d.Rel[dep])
	}
}

func tokText(d *DepTree, i int) string {
	if i < 0 {
		return "ROOT"
	}
	return d.Tokens[i].Text
}

func TestParseSVO(t *testing.T) {
	d := parse(t, "The attacker used something.")
	hasArc(t, d, "attacker", "used", RelNsubj)
	hasArc(t, d, "something", "used", RelDobj)
	hasArc(t, d, "The", "attacker", RelDet)
	if d.Root != find(t, d, "used") {
		t.Errorf("root = %v", tokText(d, d.Root))
	}
}

func TestParseInfinitivePurpose(t *testing.T) {
	// The paper's running example, after IOC protection.
	d := parse(t, "The attacker used something to read user credentials from something.")
	used := find(t, d, "used")
	read := find(t, d, "read")
	if d.Head[read] != used || d.Rel[read] != RelXcomp {
		t.Errorf("read should be xcomp of used; head=%v rel=%q", tokText(d, d.Head[read]), d.Rel[read])
	}
	hasArc(t, d, "attacker", "used", RelNsubj)
	// First "something" is dobj of used; second is pobj of "from".
	first := find(t, d, "something")
	if d.Head[first] != used || d.Rel[first] != RelDobj {
		t.Errorf("first something: head=%v rel=%q", tokText(d, d.Head[first]), d.Rel[first])
	}
	from := find(t, d, "from")
	if d.Head[from] != read || d.Rel[from] != RelPrep {
		t.Errorf("from: head=%v rel=%q", tokText(d, d.Head[from]), d.Rel[from])
	}
	var second = -1
	for i, tok := range d.Tokens {
		if tok.Text == "something" && i != first {
			second = i
		}
	}
	if second < 0 || d.Head[second] != from || d.Rel[second] != RelPobj {
		t.Errorf("second something should be pobj of from")
	}
	// LCA of the two IOC placeholders is "used"; the verb nearest the
	// object is "read" — exactly what relation extraction needs.
	if lca := d.LCA(first, second); lca != used {
		t.Errorf("LCA = %v, want used", tokText(d, lca))
	}
}

func TestParseIOCSubject(t *testing.T) {
	d := parse(t, "something read from something and wrote to something.")
	read := find(t, d, "read")
	wrote := find(t, d, "wrote")
	if d.Root != read {
		t.Errorf("root = %v", tokText(d, d.Root))
	}
	first := 0 // first "something" token is the subject
	if d.Head[first] != read || d.Rel[first] != RelNsubj {
		t.Errorf("subject: head=%v rel=%q", tokText(d, d.Head[first]), d.Rel[first])
	}
	if d.Head[wrote] != read || d.Rel[wrote] != RelConj {
		t.Errorf("wrote should be conj of read; head=%v rel=%q", tokText(d, d.Head[wrote]), d.Rel[wrote])
	}
}

func TestParsePrepositionalChain(t *testing.T) {
	d := parse(t, "It wrote the gathered information to a file something.")
	hasArc(t, d, "It", "wrote", RelNsubj)
	hasArc(t, d, "information", "wrote", RelDobj)
	to := find(t, d, "to")
	if d.Rel[to] != RelPrep {
		t.Errorf("to should be prep, got %q", d.Rel[to])
	}
	// "a file something" is one NP headed by the placeholder.
	hasArc(t, d, "something", "to", RelPobj)
	hasArc(t, d, "file", "something", RelCompound)
}

func TestParseRelativeClause(t *testing.T) {
	d := parse(t, "The attacker encrypted the zipped file, which corresponds to the launched process something reading from something.")
	corresponds := find(t, d, "corresponds")
	file := find(t, d, "file")
	if d.Head[corresponds] != file || d.Rel[corresponds] != RelAcl {
		t.Errorf("relative clause: head=%v rel=%q", tokText(d, d.Head[corresponds]), d.Rel[corresponds])
	}
	hasArc(t, d, "which", "corresponds", RelNsubj)
	// "something reading from something": gerund clause on the first
	// placeholder.
	reading := find(t, d, "reading")
	first := find(t, d, "something")
	if d.Head[reading] != first || d.Rel[reading] != RelAcl {
		t.Errorf("gerund clause: head=%v rel=%q", tokText(d, d.Head[reading]), d.Rel[reading])
	}
}

func TestParseByUsingGerund(t *testing.T) {
	d := parse(t, "He leaked the information back to the host by using something to connect to something.")
	leaked := find(t, d, "leaked")
	using := find(t, d, "using")
	connect := find(t, d, "connect")
	if d.Head[using] != leaked || d.Rel[using] != RelAdvcl {
		t.Errorf("using: head=%v rel=%q", tokText(d, d.Head[using]), d.Rel[using])
	}
	if d.Head[connect] != using || d.Rel[connect] != RelXcomp {
		t.Errorf("connect: head=%v rel=%q", tokText(d, d.Head[connect]), d.Rel[connect])
	}
	// First placeholder is dobj of using; second is pobj under connect.
	first := find(t, d, "something")
	if d.Head[first] != using || d.Rel[first] != RelDobj {
		t.Errorf("first something: head=%v rel=%q", tokText(d, d.Head[first]), d.Rel[first])
	}
}

func TestParseCoordinatedObjects(t *testing.T) {
	d := parse(t, "The malware scanned files and directories.")
	hasArc(t, d, "files", "scanned", RelDobj)
	hasArc(t, d, "directories", "files", RelConj)
}

func TestParseCopular(t *testing.T) {
	d := parse(t, "The file is malicious.")
	if d.Root < 0 {
		t.Fatal("no root")
	}
	// Every token must be attached.
	for i := range d.Tokens {
		if d.Head[i] == unattached {
			t.Errorf("token %q unattached", d.Tokens[i].Text)
		}
	}
}

func TestParseTreeWellFormed(t *testing.T) {
	texts := []string{
		"The attacker used something to read user credentials from something.",
		"After compression, the attacker used the tool to encrypt the zipped file.",
		"something read from something and wrote to something.",
		"Finally, the attacker leveraged the utility to read the data from something.",
		"It downloads an image where the address is encoded in the metadata.",
		"Weird , , punctuation ... everywhere !!",
		"",
		"one",
	}
	p := NewPipeline()
	for _, text := range texts {
		for _, d := range p.Process(text) {
			n := len(d.Tokens)
			if n == 0 {
				continue
			}
			roots := 0
			for i := range d.Tokens {
				switch {
				case d.Head[i] == -1:
					roots++
				case d.Head[i] == unattached:
					t.Errorf("%q: token %q unattached", text, d.Tokens[i].Text)
				case d.Head[i] < -2 || d.Head[i] >= n:
					t.Errorf("%q: token %q head out of range: %d", text, d.Tokens[i].Text, d.Head[i])
				case d.Head[i] == i:
					t.Errorf("%q: token %q is its own head", text, d.Tokens[i].Text)
				}
			}
			if roots != 1 {
				t.Errorf("%q: roots = %d, want 1", text, roots)
			}
			// No cycles: every PathToRoot terminates.
			for i := range d.Tokens {
				path := slices.Collect(d.PathToRoot(i))
				if len(path) > n {
					t.Errorf("%q: cycle through token %q", text, d.Tokens[i].Text)
				}
			}
		}
	}
}

func TestPOSTagging(t *testing.T) {
	p := NewPipeline()
	toks := Tokenize("The attacker downloads a password cracker from the server.")
	p.TagTokens(toks)
	wantTags := map[string]Tag{
		"The":       TagDet,
		"attacker":  TagNoun,
		"downloads": TagVerb,
		"a":         TagDet,
		"password":  TagNoun,
		"cracker":   TagNoun,
		"from":      TagAdp,
		"server":    TagNoun,
	}
	for _, tok := range toks {
		if want, ok := wantTags[tok.Text]; ok && tok.POS != want {
			t.Errorf("POS(%q) = %s, want %s", tok.Text, tok.POS, want)
		}
	}
}

func TestPOSNominalVerb(t *testing.T) {
	p := NewPipeline()
	toks := Tokenize("The read happened after the write.")
	p.TagTokens(toks)
	if toks[1].POS != TagNoun {
		t.Errorf("'the read' should tag read as NOUN, got %s", toks[1].POS)
	}
}

func TestPOSIOCs(t *testing.T) {
	p := NewPipeline()
	toks := Tokenize("/bin/tar read 192.168.29.128 data")
	p.TagTokens(toks)
	if toks[0].POS != TagPropn {
		t.Errorf("path should be PROPN, got %s", toks[0].POS)
	}
	if toks[2].POS != TagPropn && toks[2].POS != TagNum {
		t.Errorf("IP should be PROPN/NUM, got %s", toks[2].POS)
	}
}

func TestLCA(t *testing.T) {
	d := parse(t, "The attacker used something to read user credentials from something.")
	used := find(t, d, "used")
	attacker := find(t, d, "attacker")
	if got := d.LCA(attacker, attacker); got != attacker {
		t.Errorf("LCA(x,x) = %v", tokText(d, got))
	}
	read := find(t, d, "read")
	if got := d.LCA(read, attacker); got != used {
		t.Errorf("LCA(read, attacker) = %v, want used", tokText(d, got))
	}
}

// TestLCAOnLongCoordination checks LCA on a run-on sentence whose
// coordinated verbs each head the next, so the tree is about as deep as the
// sentence is long: every pair of tokens must get the first node on b's
// path to the root that is also on a's.
func TestLCAOnLongCoordination(t *testing.T) {
	const verbs = 150
	d := parse(t, "something read something"+strings.Repeat(" and wrote something", verbs)+".")
	depth := 0
	for i := range d.Tokens {
		depth = max(depth, len(slices.Collect(d.PathToRoot(i))))
	}
	if depth < verbs {
		t.Fatalf("tree depth %d, want at least %d: the verbs no longer chain", depth, verbs)
	}
	for a := range d.Tokens {
		onA := make(map[int]bool)
		for x := range d.PathToRoot(a) {
			onA[x] = true
		}
		for b := range d.Tokens {
			want := -1
			for x := range d.PathToRoot(b) {
				if onA[x] {
					want = x
					break
				}
			}
			if got := d.LCA(a, b); got != want {
				t.Fatalf("LCA(%d, %d) = %d, want %d", a, b, got, want)
			}
		}
	}
}

func TestChildren(t *testing.T) {
	d := parse(t, "The attacker used something.")
	used := find(t, d, "used")
	kids := slices.Collect(d.Children(used))
	if len(kids) < 2 {
		t.Fatalf("used should have nsubj and dobj children: %v", kids)
	}
}

// TestTreeWalksDoNotAllocate pins that LCA, PathToRoot and Children walk
// the tree without allocating.
func TestTreeWalksDoNotAllocate(t *testing.T) {
	d := parse(t, "The attacker used something to read user credentials from something.")
	read, attacker := find(t, d, "read"), find(t, d, "attacker")
	sink := 0
	allocs := testing.AllocsPerRun(100, func() {
		sink += d.LCA(read, attacker)
		for x := range d.PathToRoot(read) {
			sink += x
		}
		for c := range d.Children(d.Root) {
			sink += c
		}
	})
	if allocs != 0 {
		t.Errorf("tree walks allocate %.1f times per run", allocs)
	}
	if path := slices.Collect(d.PathToRoot(read)); path[0] != read || path[len(path)-1] != d.Root {
		t.Errorf("PathToRoot(read) = %v, want a path from %d to the root %d", path, read, d.Root)
	}
}
