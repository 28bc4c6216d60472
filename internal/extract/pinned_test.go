package extract

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	"threatraptor/internal/ioc"
)

// pinnedPath holds one line per extracted text: the text's name and the
// SHA-256 of its whole Result. It was written by the pipeline before its
// matchers, tokenizer and annotations were rewritten for speed, and pins
// their output: a change to any IOC offset, triplet, verb offset or graph
// node shows up here as a changed digest.
const pinnedPath = "testdata/pinned.txt"

// perturbedReport replaces each recognized indicator of text with a
// sibling of the same shape, as the ioc package's tests do: an IPv4 keeps
// its network, anything else gets a tag spliced in before its first dot.
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

// pinnedTexts returns every case report and three perturbed variants of
// each, named "<case>/<variant>".
func pinnedTexts() (names, texts []string) {
	for _, c := range caseReports() {
		for v := 0; v < 4; v++ {
			text := c.Report
			if v > 0 {
				text = perturbedReport(c.Report, 0xabcdef*v)
			}
			names = append(names, fmt.Sprintf("%s/%d", c.ID, v))
			texts = append(texts, text)
		}
	}
	return names, texts
}

// resultDigest hashes everything a Result says about its text except the
// timings: the IOC mentions with offsets, the triplets with verb offsets
// and the graph's JSON.
func resultDigest(t *testing.T, res *Result) string {
	h := sha256.New()
	for _, ic := range res.IOCs {
		fmt.Fprintf(h, "ioc %s %q %d %d\n", ic.Type, ic.Text, ic.Start, ic.End)
	}
	for _, tr := range res.Triplets {
		fmt.Fprintf(h, "triplet %s %q %d %d %q %d %s %q %d %d\n",
			tr.Subj.Type, tr.Subj.Text, tr.Subj.Start, tr.Subj.End, tr.Verb, tr.VerbOffset,
			tr.Obj.Type, tr.Obj.Text, tr.Obj.Start, tr.Obj.End)
	}
	graph, err := json.Marshal(res.Graph)
	if err != nil {
		t.Fatal(err)
	}
	h.Write(graph)
	return hex.EncodeToString(h.Sum(nil))
}

// TestExtractMatchesPinned extracts every pinned text and compares its
// Result's digest with the pinned one.
func TestExtractMatchesPinned(t *testing.T) {
	f, err := os.Open(pinnedPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, digest, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("malformed line %q", sc.Text())
		}
		want[name] = digest
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	names, texts := pinnedTexts()
	if len(want) != len(names) {
		t.Fatalf("%s pins %d texts, want %d", pinnedPath, len(want), len(names))
	}
	ex := New(DefaultOptions())
	for i, name := range names {
		if got := resultDigest(t, ex.Extract(texts[i])); got != want[name] {
			t.Errorf("%s: digest %s, pinned %s", name, got, want[name])
		}
	}
}
