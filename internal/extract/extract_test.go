package extract

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"threatraptor/internal/cases"
	"threatraptor/internal/ioc"
)

// dataLeakReport is the OSCTI text of the paper's Figure 2 (case ra_2).
const dataLeakReport = `As a first step, the attacker used /bin/tar to read user credentials from /etc/passwd. It wrote the gathered information to a file /tmp/upload.tar. Then, the attacker leveraged /bin/bzip2 utility to compress the tar file. /bin/bzip2 read from /tmp/upload.tar and wrote to /tmp/upload.tar.bz2. After compression, the attacker used Gnu Privacy Guard (GnuPG) tool to encrypt the zipped file, which corresponds to the launched process /usr/bin/gpg reading from /tmp/upload.tar.bz2. /usr/bin/gpg then wrote the sensitive information to /tmp/upload. Finally, the attacker leveraged the curl utility (/usr/bin/curl) to read the data from /tmp/upload. He leaked the gathered sensitive information back to the attacker C2 host by using /usr/bin/curl to connect to 192.168.29.128.`

// edgeSet turns a graph into "subj verb obj" strings for comparison.
func edgeSet(g *Graph) map[string]int {
	out := make(map[string]int)
	for _, e := range g.Edges {
		key := fmt.Sprintf("%s %s %s", g.Node(e.From).Text, e.Verb, g.Node(e.To).Text)
		out[key] = e.Seq
	}
	return out
}

func TestExtractDataLeakGraph(t *testing.T) {
	ex := New(DefaultOptions())
	res := ex.Extract(dataLeakReport)

	wantEdges := []string{
		"/bin/tar read /etc/passwd",
		"/bin/tar write /tmp/upload.tar",
		"/bin/bzip2 read /tmp/upload.tar",
		"/bin/bzip2 write /tmp/upload.tar.bz2",
		"/usr/bin/gpg read /tmp/upload.tar.bz2",
		"/usr/bin/gpg write /tmp/upload",
		"/usr/bin/curl read /tmp/upload",
		"/usr/bin/curl connect 192.168.29.128",
	}
	got := edgeSet(res.Graph)
	for _, w := range wantEdges {
		if _, ok := got[w]; !ok {
			t.Errorf("missing edge %q\ngraph:\n%s", w, res.Graph)
		}
	}
	if len(res.Graph.Edges) != len(wantEdges) {
		t.Errorf("edges = %d, want %d\n%s", len(res.Graph.Edges), len(wantEdges), res.Graph)
	}
	// Sequence numbers must follow the narrative order.
	for i := 0; i+1 < len(wantEdges); i++ {
		if got[wantEdges[i]] >= got[wantEdges[i+1]] {
			t.Errorf("edge %q (seq %d) should precede %q (seq %d)",
				wantEdges[i], got[wantEdges[i]], wantEdges[i+1], got[wantEdges[i+1]])
		}
	}
	// All nine IOCs of Figure 2 must be nodes.
	if len(res.Graph.Nodes) != 9 {
		var names []string
		for _, n := range res.Graph.Nodes {
			names = append(names, n.Text)
		}
		t.Errorf("nodes = %d (%v), want 9", len(res.Graph.Nodes), names)
	}
}

func TestExtractEntities(t *testing.T) {
	ex := New(DefaultOptions())
	res := ex.Extract(dataLeakReport)
	want := map[string]bool{
		"/bin/tar": true, "/etc/passwd": true, "/tmp/upload.tar": true,
		"/bin/bzip2": true, "/tmp/upload.tar.bz2": true,
		"/usr/bin/gpg": true, "/tmp/upload": true, "/usr/bin/curl": true,
		"192.168.29.128": true,
	}
	got := map[string]bool{}
	for _, ic := range res.IOCs {
		got[ic.Text] = true
	}
	for w := range want {
		if !got[w] {
			t.Errorf("missing entity %q", w)
		}
	}
	for g := range got {
		if !want[g] {
			t.Errorf("unexpected entity %q", g)
		}
	}
}

func TestExtractWithoutProtectionDegrades(t *testing.T) {
	full := New(DefaultOptions()).Extract(dataLeakReport)
	abl := New(Options{IOCProtection: false}).Extract(dataLeakReport)
	if len(abl.Triplets) >= len(full.Triplets) {
		t.Errorf("removing IOC protection must hurt relation recall: %d vs %d",
			len(abl.Triplets), len(full.Triplets))
	}
	uniq := func(res *Result) int {
		set := map[string]bool{}
		for _, ic := range res.IOCs {
			set[ic.Text] = true
		}
		return len(set)
	}
	if uniq(abl) >= uniq(full) {
		t.Errorf("removing IOC protection must hurt entity recall: %d vs %d",
			uniq(abl), uniq(full))
	}
}

func TestExtractSimpleSVO(t *testing.T) {
	ex := New(DefaultOptions())
	res := ex.Extract("/bin/malware.sh wrote data to /tmp/stash.")
	if len(res.Triplets) != 1 {
		t.Fatalf("triplets = %d: %+v", len(res.Triplets), res.Triplets)
	}
	tr := res.Triplets[0]
	if tr.Subj.Text != "/bin/malware.sh" || tr.Verb != "write" || tr.Obj.Text != "/tmp/stash" {
		t.Fatalf("got (%s, %s, %s)", tr.Subj.Text, tr.Verb, tr.Obj.Text)
	}
}

func TestExtractInstrumental(t *testing.T) {
	ex := New(DefaultOptions())
	res := ex.Extract("The attacker used /usr/bin/wget to download the payload from 10.9.8.7.")
	if len(res.Triplets) != 1 {
		t.Fatalf("triplets = %+v", res.Triplets)
	}
	tr := res.Triplets[0]
	if tr.Subj.Text != "/usr/bin/wget" || tr.Verb != "download" || tr.Obj.Text != "10.9.8.7" {
		t.Fatalf("got (%s, %s, %s)", tr.Subj.Text, tr.Verb, tr.Obj.Text)
	}
}

func TestExtractCoordinatedClauses(t *testing.T) {
	ex := New(DefaultOptions())
	res := ex.Extract("/bin/a read from /etc/x and wrote to /tmp/y.")
	got := map[string]bool{}
	for _, tr := range res.Triplets {
		got[fmt.Sprintf("%s %s %s", tr.Subj.Text, tr.Verb, tr.Obj.Text)] = true
	}
	if !got["/bin/a read /etc/x"] || !got["/bin/a write /tmp/y"] {
		t.Fatalf("got %v", got)
	}
	if got["/etc/x write /tmp/y"] || got["/etc/x read /tmp/y"] {
		t.Fatalf("spurious object-object relation: %v", got)
	}
}

func TestExtractNoCrossClauseSubjects(t *testing.T) {
	ex := New(DefaultOptions())
	res := ex.Extract("/bin/a read /etc/x and /bin/b wrote /tmp/y.")
	for _, tr := range res.Triplets {
		key := fmt.Sprintf("%s %s %s", tr.Subj.Text, tr.Verb, tr.Obj.Text)
		switch key {
		case "/bin/a read /etc/x", "/bin/b write /tmp/y":
		default:
			t.Errorf("spurious triplet %q", key)
		}
	}
}

func TestExtractCoref(t *testing.T) {
	ex := New(DefaultOptions())
	res := ex.Extract("The attacker used /bin/nc to read /etc/shadow. It wrote the stolen data to /tmp/loot.bin.")
	got := map[string]bool{}
	for _, tr := range res.Triplets {
		got[fmt.Sprintf("%s %s %s", tr.Subj.Text, tr.Verb, tr.Obj.Text)] = true
	}
	if !got["/bin/nc write /tmp/loot.bin"] {
		t.Fatalf("pronoun subject should resolve to /bin/nc: %v", got)
	}
}

func TestExtractGerundClause(t *testing.T) {
	ex := New(DefaultOptions())
	res := ex.Extract("This corresponds to the process /usr/bin/ssh reading from /home/admin/.ssh/id_rsa.")
	got := map[string]bool{}
	for _, tr := range res.Triplets {
		got[fmt.Sprintf("%s %s %s", tr.Subj.Text, tr.Verb, tr.Obj.Text)] = true
	}
	if !got["/usr/bin/ssh read /home/admin/.ssh/id_rsa"] {
		t.Fatalf("gerund clause extraction failed: %v", got)
	}
}

func TestExtractEmptyAndIrrelevantText(t *testing.T) {
	ex := New(DefaultOptions())
	if res := ex.Extract(""); len(res.Triplets) != 0 || len(res.Graph.Nodes) != 0 {
		t.Error("empty doc must produce an empty result")
	}
	res := ex.Extract("The weather is nice today. Nothing else happened.")
	if len(res.Triplets) != 0 {
		t.Errorf("no-IOC text must produce no triplets: %+v", res.Triplets)
	}
}

func TestExtractMergesAcrossBlocks(t *testing.T) {
	doc := "The malware wrote its loot to /tmp/loot.dat in the first stage.\n\nLater, /bin/scp read loot.dat and sent it to 10.1.2.3."
	ex := New(DefaultOptions())
	res := ex.Extract(doc)
	// "loot.dat" and "/tmp/loot.dat" must merge to one node.
	count := 0
	for _, n := range res.Graph.Nodes {
		if strings.Contains(n.Text, "loot.dat") {
			count++
			if n.Text != "/tmp/loot.dat" {
				t.Errorf("canonical form should be the full path, got %q", n.Text)
			}
		}
	}
	if count != 1 {
		t.Errorf("loot.dat mentions should merge into 1 node, got %d\n%s", count, res.Graph)
	}
}

func TestExtractDoesNotMergeDistinctFiles(t *testing.T) {
	ex := New(DefaultOptions())
	res := ex.Extract("/bin/bzip2 read from /tmp/upload.tar and wrote to /tmp/upload.tar.bz2.")
	names := map[string]bool{}
	for _, n := range res.Graph.Nodes {
		names[n.Text] = true
	}
	if !names["/tmp/upload.tar"] || !names["/tmp/upload.tar.bz2"] {
		t.Fatalf("distinct files must stay distinct nodes: %v", names)
	}
}

func TestSegmentBlocks(t *testing.T) {
	doc := "first block line one\nline two\n\nsecond block\n\n\nthird block"
	blocks := segmentBlocks(doc)
	if len(blocks) != 3 {
		t.Fatalf("blocks = %d, want 3: %+v", len(blocks), blocks)
	}
	for _, b := range blocks {
		if doc[b.offset:b.offset+len(b.text)] != b.text {
			t.Errorf("block offset mismatch: %+v", b)
		}
	}
}

func TestExtractDeterministic(t *testing.T) {
	run := func() string {
		return New(DefaultOptions()).Extract(dataLeakReport).Graph.String()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("extraction must be deterministic:\n%s\nvs\n%s", a, b)
	}
}

// caseReports returns every benchmark and extra case.
func caseReports() []*cases.Case {
	return append(cases.All(), cases.Extras()...)
}

// TestExtractDeterministicOnCaseReports extracts every case report
// repeatedly: the IOC mentions, their order and the graph's JSON must not
// change from run to run.
func TestExtractDeterministicOnCaseReports(t *testing.T) {
	for _, c := range caseReports() {
		var firstIOCs []ioc.IOC
		var firstGraph []byte
		for run := 0; run < 20; run++ {
			res := New(DefaultOptions()).Extract(c.Report)
			graph, err := json.Marshal(res.Graph)
			if err != nil {
				t.Fatal(err)
			}
			if run == 0 {
				firstIOCs, firstGraph = res.IOCs, graph
				continue
			}
			if !reflect.DeepEqual(res.IOCs, firstIOCs) {
				t.Fatalf("%s run %d: IOCs\n%v\nvs\n%v", c.ID, run, res.IOCs, firstIOCs)
			}
			if string(graph) != string(firstGraph) {
				t.Fatalf("%s run %d: graph\n%s\nvs\n%s", c.ID, run, graph, firstGraph)
			}
		}
	}
}

// TestTokenOffsetsAreDocumentOffsets checks that every token of every
// block, in both tokenization modes, spans its own text in the document.
// The appended block starts past the report, so block offsets are tested
// as well as the placeholder shifts inside a block.
func TestTokenOffsetsAreDocumentOffsets(t *testing.T) {
	for _, opts := range []Options{DefaultOptions(), {IOCProtection: false}} {
		ex := New(opts)
		for _, c := range caseReports() {
			doc := c.Report + "\n\nThe attacker then used /bin/sh to read /etc/hosts."
			d := &document{}
			for _, blk := range segmentBlocks(doc) {
				ex.processBlock(d, blk)
			}
			for _, at := range d.trees {
				for _, tok := range at.tree.Tokens {
					if got := doc[tok.Start:tok.End]; got != tok.Text {
						t.Fatalf("%s: token %q at [%d,%d) spans %q", c.ID, tok.Text, tok.Start, tok.End, got)
					}
				}
			}
		}
	}
}

// TestEdgeOrderAcrossLongBlock puts a relation 1.5 MiB into the first
// block: its edge must still precede the second block's.
func TestEdgeOrderAcrossLongBlock(t *testing.T) {
	doc := strings.Repeat(" ", 3<<19) + "The attacker used /bin/tar to read /etc/passwd.\n\n" +
		"Then /bin/bzip2 wrote /tmp/upload.tar.bz2."
	res := New(DefaultOptions()).Extract(doc)
	got := edgeSet(res.Graph)
	first, second := got["/bin/tar read /etc/passwd"], got["/bin/bzip2 write /tmp/upload.tar.bz2"]
	if len(got) != 2 || first != 1 || second != 2 {
		t.Fatalf("edges %v, want the first block's edge at seq 1 and the second's at 2\n%s", got, res.Graph)
	}
	for _, tr := range res.Triplets { // "read" at "read", "write" at "wrote"
		if !strings.HasPrefix(doc[tr.VerbOffset:], tr.Verb[:2]) {
			t.Errorf("verb %q: offset %d points at %.10q", tr.Verb, tr.VerbOffset, doc[tr.VerbOffset:])
		}
	}
}

// TestSharedExtractorConcurrent extracts every case report from two
// goroutines through one Extractor, as two clients of one System do; run
// under -race it checks that extraction shares no mutable state, and each
// goroutine's results must equal a sequential run's.
func TestSharedExtractorConcurrent(t *testing.T) {
	ex := New(DefaultOptions())
	reps := caseReports()
	want := make([]*Result, len(reps))
	for i, c := range reps {
		want[i] = ex.Extract(c.Report)
	}
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for i, c := range reps {
					got := ex.Extract(c.Report)
					if !reflect.DeepEqual(got.IOCs, want[i].IOCs) || !reflect.DeepEqual(got.Triplets, want[i].Triplets) ||
						!reflect.DeepEqual(got.Graph, want[i].Graph) {
						t.Errorf("goroutine %d round %d %s: result differs from the sequential run", g, round, c.ID)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// BenchmarkExtract runs the whole pipeline over every case report per op.
func BenchmarkExtract(b *testing.B) {
	reps := caseReports()
	ex := New(DefaultOptions())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range reps {
			benchSink = ex.Extract(c.Report)
		}
	}
}

var benchSink *Result
