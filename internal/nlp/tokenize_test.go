package nlp

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"unicode"
	"unicode/utf8"
)

func texts(toks []Token) []string {
	out := make([]string, len(toks))
	for i, t := range toks {
		out[i] = t.Text
	}
	return out
}

func TestTokenizeBasic(t *testing.T) {
	toks := Tokenize("The attacker used something to read credentials.")
	want := []string{"The", "attacker", "used", "something", "to", "read", "credentials", "."}
	if !reflect.DeepEqual(texts(toks), want) {
		t.Fatalf("got %v", texts(toks))
	}
}

func TestTokenizeOffsets(t *testing.T) {
	text := "He ran /bin/tar."
	toks := Tokenize(text)
	for _, tok := range toks {
		if text[tok.Start:tok.End] != tok.Text {
			t.Errorf("offset mismatch: %q vs %q", text[tok.Start:tok.End], tok.Text)
		}
	}
}

func TestTokenizeKeepsPathsAndIPs(t *testing.T) {
	toks := Tokenize("Run /usr/bin/gpg against 192.168.29.128 now.")
	got := texts(toks)
	want := []string{"Run", "/usr/bin/gpg", "against", "192.168.29.128", "now", "."}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v", got)
	}
}

func TestTokenizeSplitsTrailingPeriod(t *testing.T) {
	toks := Tokenize("see /tmp/upload.tar.")
	got := texts(toks)
	want := []string{"see", "/tmp/upload.tar", "."}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v", got)
	}
}

func TestTokenizePunctuationRuns(t *testing.T) {
	toks := Tokenize("files, processes, and connections")
	got := texts(toks)
	want := []string{"files", ",", "processes", ",", "and", "connections"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v", got)
	}
}

func TestSplitSentences(t *testing.T) {
	p := NewPipeline()
	text := "The attacker used something. It wrote data to something. Then it stopped."
	sents := p.SplitSentences(text)
	if len(sents) != 3 {
		t.Fatalf("sentences = %d, want 3: %+v", len(sents), sents)
	}
	if texts(sents[0].Tokens)[0] != "The" || texts(sents[2].Tokens)[0] != "Then" {
		t.Fatalf("wrong boundaries: %v", sents)
	}
}

func TestSplitSentencesIOCSubject(t *testing.T) {
	p := NewPipeline()
	// A sentence starting with an IOC (lowercase '/') must still be split.
	text := "He compressed the file. /bin/bzip2 read from the archive."
	sents := p.SplitSentences(text)
	if len(sents) != 2 {
		t.Fatalf("sentences = %d, want 2", len(sents))
	}
}

func TestSplitSentencesNoFalseSplitOnDecimal(t *testing.T) {
	p := NewPipeline()
	text := "Version 2.5 of the malware connected to the server."
	sents := p.SplitSentences(text)
	if len(sents) != 1 {
		t.Fatalf("sentences = %d, want 1 (no split inside 2.5)", len(sents))
	}
}

// Property: token offsets are strictly increasing, within bounds, and
// round-trip to the token text.
func TestTokenizeOffsetsProperty(t *testing.T) {
	f := func(s string) bool {
		toks := Tokenize(s)
		prev := -1
		for _, tok := range toks {
			if tok.Start < 0 || tok.End > len(s) || tok.Start >= tok.End {
				return false
			}
			if tok.Start < prev {
				return false
			}
			prev = tok.End
			if s[tok.Start:tok.End] != tok.Text {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestLemma(t *testing.T) {
	cases := []struct {
		word string
		pos  Tag
		want string
	}{
		{"wrote", TagVerb, "write"},
		{"reads", TagVerb, "read"},
		{"used", TagVerb, "use"},
		{"copied", TagVerb, "copy"},
		{"dropped", TagVerb, "drop"},
		{"transferred", TagVerb, "transfer"},
		{"connecting", TagVerb, "connect"},
		{"using", TagVerb, "use"},
		{"downloads", TagVerb, "download"},
		{"accesses", TagVerb, "access"},
		{"ran", TagVerb, "run"},
		{"sent", TagVerb, "send"},
		{"stole", TagVerb, "steal"},
		{"leaked", TagVerb, "leak"},
		{"installed", TagVerb, "install"},
		{"executes", TagVerb, "execute"},
		{"launched", TagVerb, "launch"},
		{"activities", TagNoun, "activity"},
		{"files", TagNoun, "file"},
		{"processes", TagNoun, "process"},
		{"credentials", TagNoun, "credential"},
		{"/bin/tar", TagPropn, "/bin/tar"}, // IOCs keep their exact form
	}
	for _, c := range cases {
		if got := Lemma(c.word, c.pos); got != c.want {
			t.Errorf("Lemma(%q, %s) = %q, want %q", c.word, c.pos, got, c.want)
		}
	}
}

func TestVectors(t *testing.T) {
	v := NewVectors(64)
	if s := v.Similarity("upload.tar", "upload.tar"); s < 0.999 {
		t.Errorf("self-similarity = %v", s)
	}
	same := v.Similarity("/tmp/upload.tar", "/tmp/upload.tar.bz2")
	diff := v.Similarity("/tmp/upload.tar", "/etc/passwd")
	if same <= diff {
		t.Errorf("related strings must be closer: same=%v diff=%v", same, diff)
	}
	morph := v.Similarity("download", "downloads")
	unrel := v.Similarity("download", "passwd")
	if morph <= unrel {
		t.Errorf("morphological variants must be closer: %v vs %v", morph, unrel)
	}
}

// TestSimilarityRepeatable checks that Similarity returns the identical
// value on every call, for the same pair and for the pair reversed.
func TestSimilarityRepeatable(t *testing.T) {
	v := NewVectors(64)
	pairs := [][2]string{{"upload.tar", "/tmp/upload.tar"}, {"Download", "downloads"}, {"passwd", "passwd"}, {"", "x"}}
	for _, p := range pairs {
		first := v.Similarity(p[0], p[1])
		for i := 0; i < 3; i++ {
			if got := v.Similarity(p[0], p[1]); got != first {
				t.Errorf("Similarity(%q, %q) call %d = %v, first %v", p[0], p[1], i+2, got, first)
			}
			if got := v.Similarity(p[1], p[0]); got != first {
				t.Errorf("Similarity(%q, %q) = %v, reversed %v", p[1], p[0], got, first)
			}
		}
	}
}

func TestVectorsDeterministic(t *testing.T) {
	a := NewVectors(64).Vector("hello")
	b := NewVectors(64).Vector("hello")
	if !reflect.DeepEqual(a, b) {
		t.Fatal("vectors must be deterministic across instances")
	}
}

// tokenizeReference is Tokenize as it was before its ASCII fast path and
// up-front sizing: every rune decoded and classified by the unicode
// package. Tokenize must return exactly what it returns.
func tokenizeReference(text string) []Token {
	var toks []Token
	i := 0
	n := len(text)
	for i < n {
		r, size := utf8.DecodeRuneInString(text[i:])
		switch {
		case unicode.IsSpace(r):
			i += size
		case isWordRune(r):
			start := i
			for i < n {
				rr, sz := utf8.DecodeRuneInString(text[i:])
				if isWordRune(rr) || isConnectorReference(text, i, sz) {
					i += sz
					continue
				}
				break
			}
			end := i
			for end > start+1 && (text[end-1] == '.' || text[end-1] == ',') {
				end--
			}
			toks = append(toks, Token{Text: text[start:end], Start: start, End: end})
			for p := end; p < i; p++ {
				toks = append(toks, Token{Text: string(text[p]), Start: p, End: p + 1})
			}
		default:
			toks = append(toks, Token{Text: text[i : i+size], Start: i, End: i + size})
			i += size
		}
	}
	return toks
}

func isConnectorReference(text string, i, size int) bool {
	if size != 1 {
		return false
	}
	b := text[i]
	if b != '\'' && b != '-' && b != '.' && b != ':' && b != '@' {
		return false
	}
	if i == 0 || i+1 >= len(text) {
		return false
	}
	prev, _ := utf8.DecodeLastRuneInString(text[:i])
	next, _ := utf8.DecodeRuneInString(text[i+1:])
	return isWordRune(prev) && isWordRune(next)
}

// checkTokenize fails t when Tokenize and the reference disagree on s, or
// when Tokenize outgrows its up-front capacity.
func checkTokenize(t *testing.T, s string) {
	t.Helper()
	got, want := Tokenize(s), tokenizeReference(s)
	if len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) {
		t.Fatalf("%q:\n got %v\nwant %v", s, got, want)
	}
	if c := maxTokens(s); len(got) > c {
		t.Fatalf("%q: %d tokens, bound %d", s, len(got), c)
	}
}

// tokenizeSeeds hold every class boundary the fast path splits: ASCII
// space and word bytes, connectors at the edges and between non-ASCII
// runes, Unicode spaces and letters, invalid UTF-8 and trailing dots.
var tokenizeSeeds = []string{
	"The attacker used something to read credentials from something.",
	"Run /usr/bin/gpg against 192.168.29.128 now. C:\\x\\y.exe $HOME a_b",
	"é.é é-x x-é ü's 'a' -a a- .a a. a..b a.,b a:b@c.d",
	"\u00a0word\u0085next\u2003third\v\f\t\r\n end",
	"\xff.a a.\xff \xc3(x) \xe2\x80 x\xe2\x80\xa8y 日本語.txt",
	"files, processes, and connections; (/usr/bin/curl) \"x\" !?",
}

func TestTokenizeMatchesReference(t *testing.T) {
	for _, s := range tokenizeSeeds {
		checkTokenize(t, s)
	}
	f := func(s string) bool {
		checkTokenize(t, s)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	pieces := []string{" ", ".", ",", "-", "'", ":", "@", "/", "\\", "$", "_", "a", "Z", "9", "é", "\xff", "\u00a0", "(", "\t"}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 5000; i++ {
		var b strings.Builder
		for k := rng.Intn(16); k >= 0; k-- {
			b.WriteString(pieces[rng.Intn(len(pieces))])
		}
		checkTokenize(t, b.String())
	}
}

func FuzzTokenizeMatchesReference(f *testing.F) {
	for _, s := range tokenizeSeeds {
		f.Add(s)
	}
	f.Fuzz(checkTokenize)
}

// TestSentencesAliasTokens checks that ProcessTokens' trees share the
// caller's token slice: a tag set through a tree is visible in it.
func TestSentencesAliasTokens(t *testing.T) {
	toks := Tokenize("The attacker used something. It wrote data to something.")
	trees := NewPipeline().ProcessTokens(toks)
	if len(trees) != 2 {
		t.Fatalf("trees = %d, want 2", len(trees))
	}
	n := 0
	for _, d := range trees {
		for i := range d.Tokens {
			if &d.Tokens[i] != &toks[n] {
				t.Fatalf("tree token %d is not token %d of the input", i, n)
			}
			n++
		}
		if cap(d.Tokens) != len(d.Tokens) {
			t.Errorf("tree tokens have spare capacity %d: an append would overwrite the next sentence", cap(d.Tokens)-len(d.Tokens))
		}
	}
	if toks[0].POS == "" {
		t.Error("tagging through the tree did not reach the input slice")
	}
}
