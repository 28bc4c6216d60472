package ioc

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"threatraptor/internal/cases"
)

func typesAndTexts(iocs []IOC) [][2]string {
	out := make([][2]string, len(iocs))
	for i, ic := range iocs {
		out[i] = [2]string{string(ic.Type), ic.Text}
	}
	return out
}

func TestExtractLinuxPaths(t *testing.T) {
	iocs := Extract("The attacker used /bin/tar to read /etc/passwd quickly.")
	want := [][2]string{
		{"FilepathLinux", "/bin/tar"},
		{"FilepathLinux", "/etc/passwd"},
	}
	if !reflect.DeepEqual(typesAndTexts(iocs), want) {
		t.Fatalf("got %v", typesAndTexts(iocs))
	}
}

func TestExtractTrailingPeriod(t *testing.T) {
	iocs := Extract("It wrote to /tmp/upload.tar. Then it stopped.")
	if len(iocs) != 1 || iocs[0].Text != "/tmp/upload.tar" {
		t.Fatalf("got %v", typesAndTexts(iocs))
	}
}

func TestExtractIPv4AndCIDR(t *testing.T) {
	iocs := Extract("connect to 192.168.29.128 and 10.0.0.0/8 but not 999.1.1.1")
	want := [][2]string{
		{"IPv4", "192.168.29.128"},
		{"CIDR", "10.0.0.0/8"},
	}
	if !reflect.DeepEqual(typesAndTexts(iocs), want) {
		t.Fatalf("got %v", typesAndTexts(iocs))
	}
}

func TestExtractWindowsPath(t *testing.T) {
	iocs := Extract(`Dropped C:\Windows\System32\evil.dll on the host.`)
	if len(iocs) != 1 || iocs[0].Type != TypeFilepathWin {
		t.Fatalf("got %v", typesAndTexts(iocs))
	}
	if iocs[0].Text != `C:\Windows\System32\evil.dll` {
		t.Fatalf("text = %q", iocs[0].Text)
	}
}

func TestExtractFilenamesAndHashes(t *testing.T) {
	iocs := Extract("payload.exe has MD5 d41d8cd98f00b204e9800998ecf8427e and ships in john.zip")
	got := typesAndTexts(iocs)
	want := [][2]string{
		{"Filename", "payload.exe"},
		{"MD5", "d41d8cd98f00b204e9800998ecf8427e"},
		{"Filename", "john.zip"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v", got)
	}
}

func TestExtractURLDomainEmailCVE(t *testing.T) {
	iocs := Extract("See https://evil.example.com/a?b=1 report at badsite.ru, mail admin@corp.com about CVE-2014-6271.")
	var types []string
	for _, ic := range iocs {
		types = append(types, string(ic.Type))
	}
	want := []string{"URL", "Domain", "Email", "CVE"}
	if !reflect.DeepEqual(types, want) {
		t.Fatalf("types = %v (%v)", types, typesAndTexts(iocs))
	}
}

func TestExtractRegistry(t *testing.T) {
	iocs := Extract(`Persists via HKEY_LOCAL_MACHINE\Software\Run\evil key.`)
	if len(iocs) != 1 || iocs[0].Type != TypeRegistry {
		t.Fatalf("got %v", typesAndTexts(iocs))
	}
}

func TestExtractAndroidPackage(t *testing.T) {
	iocs := Extract("The process com.android.defcontainer opened MsgApp-instr.apk there.")
	got := typesAndTexts(iocs)
	want := [][2]string{
		{"Package", "com.android.defcontainer"},
		{"Filename", "MsgApp-instr.apk"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v", got)
	}
}

func TestExtractOverlapPrecedence(t *testing.T) {
	// The URL contains a domain; URL must win.
	iocs := Extract("visit http://evil.com/payload now")
	if len(iocs) != 1 || iocs[0].Type != TypeURL {
		t.Fatalf("got %v", typesAndTexts(iocs))
	}
	// A SHA256 must not also match as two MD5-length substrings.
	h := strings.Repeat("ab", 32)
	iocs = Extract("hash " + h + " found")
	if len(iocs) != 1 || iocs[0].Type != TypeSHA256 {
		t.Fatalf("got %v", typesAndTexts(iocs))
	}
}

func TestExtractOffsets(t *testing.T) {
	text := "read /etc/passwd and /tmp/x.tar now"
	for _, ic := range Extract(text) {
		if text[ic.Start:ic.End] != ic.Text {
			t.Errorf("offset mismatch for %q: %q", ic.Text, text[ic.Start:ic.End])
		}
	}
}

func TestExtractRejectsBadIPs(t *testing.T) {
	for _, s := range []string{"256.1.1.1", "01.2.3.4"} {
		for _, ic := range Extract("ip " + s + " here") {
			if ic.Type == TypeIPv4 || ic.Type == TypeCIDR {
				t.Errorf("%q must not extract as IP, got %v", s, ic)
			}
		}
	}
	// An invalid CIDR still yields the embedded valid IPv4.
	for _, ic := range Extract("ip 1.2.3.4/40 here") {
		if ic.Type == TypeCIDR {
			t.Errorf("/40 mask must not parse as CIDR: %v", ic)
		}
	}
}

func TestProtectRestore(t *testing.T) {
	text := "The attacker used /bin/tar to read /etc/passwd and connect to 192.168.29.128."
	prot, recs := Protect(text)
	if strings.Contains(prot, "/bin/tar") || strings.Contains(prot, "192.168") {
		t.Fatalf("IOCs leaked into protected text: %q", prot)
	}
	if got := strings.Count(prot, DummyWord); got != 3 {
		t.Fatalf("placeholders = %d, want 3: %q", got, prot)
	}
	if len(recs) != 3 {
		t.Fatalf("records = %d", len(recs))
	}
	for _, r := range recs {
		if prot[r.Offset:r.Offset+len(DummyWord)] != DummyWord {
			t.Errorf("record offset %d does not point at a placeholder", r.Offset)
		}
	}
	if Restore(prot, recs) != text {
		t.Fatalf("restore mismatch:\n%q\n%q", Restore(prot, recs), text)
	}
}

func TestProtectNoIOCs(t *testing.T) {
	text := "Nothing suspicious here."
	prot, recs := Protect(text)
	if prot != text || recs != nil {
		t.Fatalf("no-op expected: %q %v", prot, recs)
	}
}

func TestProtectLegitimateSomething(t *testing.T) {
	// A pre-existing "something" must not confuse the replacement record.
	text := "He did something with /bin/tar."
	prot, recs := Protect(text)
	if len(recs) != 1 {
		t.Fatalf("records = %d", len(recs))
	}
	if Restore(prot, recs) != text {
		t.Fatalf("restore mismatch: %q", Restore(prot, recs))
	}
}

// Property: Protect/Restore round-trips for ASCII text.
func TestProtectRestoreProperty(t *testing.T) {
	f := func(raw string) bool {
		text := strings.Map(func(r rune) rune {
			if r < 0x20 || r > 0x7e {
				return ' '
			}
			return r
		}, raw)
		prot, recs := Protect(text)
		return Restore(prot, recs) == text
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestExtractDataLeakReport(t *testing.T) {
	// The paper's Figure 2 report must yield exactly its IOC list.
	text := `As a first step, the attacker used /bin/tar to read user credentials from /etc/passwd. It wrote the gathered information to a file /tmp/upload.tar. Then, the attacker leveraged /bin/bzip2 utility to compress the tar file. /bin/bzip2 read from /tmp/upload.tar and wrote to /tmp/upload.tar.bz2. After compression, the attacker used Gnu Privacy Guard (GnuPG) tool to encrypt the zipped file, which corresponds to the launched process /usr/bin/gpg reading from /tmp/upload.tar.bz2. /usr/bin/gpg then wrote the sensitive information to /tmp/upload. Finally, the attacker leveraged the curl utility (/usr/bin/curl) to read the data from /tmp/upload. He leaked the gathered sensitive information back to the attacker C2 host by using /usr/bin/curl to connect to 192.168.29.128.`
	want := map[string]int{
		"/bin/tar": 1, "/etc/passwd": 1, "/tmp/upload.tar": 2,
		"/bin/bzip2": 2, "/tmp/upload.tar.bz2": 2, "/usr/bin/gpg": 2,
		"/tmp/upload": 2, "/usr/bin/curl": 2, "192.168.29.128": 1,
	}
	got := map[string]int{}
	for _, ic := range Extract(text) {
		got[ic.Text]++
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v\nwant %v", got, want)
	}
}

// extractReference is the recognizer's specification: every rule's regex
// over the whole text, overlaps resolved by testing each candidate against
// every kept IOC. Extract must return exactly what it returns.
func extractReference(text string) []IOC {
	var cands []candidate
	for _, r := range rules {
		for _, loc := range r.re.FindAllStringSubmatchIndex(text, -1) {
			start, end := loc[0], loc[1]
			if len(loc) >= 4 && loc[2] >= 0 {
				start, end = loc[2], loc[3]
			}
			raw := trimIOC(text[start:end])
			if raw == "" {
				continue
			}
			off := strings.Index(text[start:end], raw)
			s := start + off
			cand := IOC{Text: raw, Type: r.typ, Start: s, End: s + len(raw)}
			if (cand.Type == TypeIPv4 || cand.Type == TypeCIDR) && !validIP(raw) {
				continue
			}
			cands = append(cands, candidate{cand, r.prec})
		}
	}
	return resolveOverlapsReference(cands)
}

// resolveOverlapsReference is the quadratic overlap resolution that
// resolveOverlaps must agree with.
func resolveOverlapsReference(cands []candidate) []IOC {
	sort.SliceStable(cands, func(a, b int) bool {
		if cands[a].prec != cands[b].prec {
			return cands[a].prec > cands[b].prec
		}
		return cands[a].End-cands[a].Start > cands[b].End-cands[b].Start
	})
	var chosen []IOC
	overlaps := func(a, b IOC) bool { return a.Start < b.End && b.Start < a.End }
	for _, c := range cands {
		ok := true
		for _, g := range chosen {
			if overlaps(c.IOC, g) {
				ok = false
				break
			}
		}
		if ok {
			chosen = append(chosen, c.IOC)
		}
	}
	sort.Slice(chosen, func(a, b int) bool { return chosen[a].Start < chosen[b].Start })
	return chosen
}

// caseReports returns the OSCTI reports of every benchmark and extra case.
func caseReports() []string {
	var out []string
	for _, c := range append(cases.All(), cases.Extras()...) {
		out = append(out, c.Report)
	}
	return out
}

// perturbed returns text with each recognized indicator replaced by a
// sibling of the same shape: an IPv4 keeps its network, anything else
// gets a tag spliced in before its first dot.
func perturbed(text string, tag int) string {
	iocs := Extract(text)
	var b strings.Builder
	prev := 0
	for _, ic := range iocs {
		b.WriteString(text[prev:ic.Start])
		repl := ic.Text
		if ic.Type == TypeIPv4 {
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

// boundarySeeds hold every separator and class-boundary byte next to
// indicator fragments.
var boundarySeeds = []string{
	"a\t/bin/tar\v1.2.3.4\fC:\\x\\y.exe\r\nHKLM\\Soft ware\\x",
	"'/etc/passwd' \"10.0.0.0/8\" (/tmp/a.tar) é/usr/bin/éx évil.com",
	"HKLM\\ HKCU\\a\tb HKEY_USERS\\x\\y\nz C:\\ C:\\a\\ c:\\b\\c.dll:",
	"mail\ta.b@c.d.com\vhttp://x.io/a?b=(1)' https://[::1]/ CVE-2014-6271.",
	"com.android.app.Main\nx.y.z 1.2.3.4/32/5 255.255.255.255. 01.2.3.4",
	strings.Repeat("ab", 32) + " " + strings.Repeat("0f", 20) + "\t" + strings.Repeat("9", 32),
	"/a /b\n/c\r/d\t/e\f/f\v/g\"/h'/i(/j)/k",
}

func TestExtractMatchesReferenceOnReports(t *testing.T) {
	for ri, r := range caseReports() {
		for tag := 0; tag < 3; tag++ {
			text := r
			if tag > 0 {
				text = perturbed(r, 0xabcdef*tag)
			}
			if got, want := Extract(text), extractReference(text); !reflect.DeepEqual(got, want) {
				t.Fatalf("report %d tag %d:\n got %v\nwant %v", ri, tag, got, want)
			}
		}
	}
	for _, s := range boundarySeeds {
		if got, want := Extract(s), extractReference(s); !reflect.DeepEqual(got, want) {
			t.Fatalf("%q:\n got %v\nwant %v", s, got, want)
		}
	}
}

// TestExtractMatchesReferenceRandom compares Extract with the reference on
// random strings over separators, class-boundary bytes and IOC fragments.
func TestExtractMatchesReferenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 20000
	if testing.Short() {
		n = 2000
	}
	for i := 0; i < n; i++ {
		s := randomFragments(rng)
		if got, want := Extract(s), extractReference(s); !reflect.DeepEqual(got, want) {
			t.Fatalf("%q:\n got %v\nwant %v", s, got, want)
		}
	}
}

// fragments are separators, class-boundary bytes and IOC fragments.
var fragments = []string{
	" ", "\n", "\r", "\t", "\v", "\f", "'", "\"", "(", ")", "<", ">", "é", "\xff",
	".", "/", "\\", ":", "@", "-", "_", "+", "~", ",", ";", "?", "!", "|", "*",
	"0", "1", "9", "25", "255", "192.168.", "10.0.0.", "/8", "/32",
	"a", "f", "Z", "com", "ru", "exe", ".tar", ".bz2", "/tmp/", "/bin/tar",
	"http", "https://", "C:\\", "c:", "HK", "HKLM\\", "HKEY_LOCAL_MACHINE\\",
	"CVE-", "2014-", "6271", "admin", "deadbeef", "ab12cd34ef56",
	"com.", "android.", "App", "x_1", "docx", "-tmp", ".co", ".cc", ".info", "A.",
}

// randomFragments joins up to 24 random fragments.
func randomFragments(rng *rand.Rand) string {
	var b strings.Builder
	for k := rng.Intn(24); k >= 0; k-- {
		b.WriteString(fragments[rng.Intn(len(fragments))])
	}
	return b.String()
}

// regexSpans returns the spans of r's regex matches in s, the capture
// group's where the rule has one: what r.at must return.
func regexSpans(r *rule, s string) [][2]int {
	var out [][2]int
	for _, loc := range r.re.FindAllStringSubmatchIndex(s, -1) {
		if len(loc) >= 4 && loc[2] >= 0 {
			loc = loc[2:]
		}
		out = append(out, [2]int{loc[0], loc[1]})
	}
	return out
}

// matcherSpans returns the spans of r.at's matches in s, searched the way
// match searches them.
func matcherSpans(r *rule, s string) [][2]int {
	var out [][2]int
	for p := 0; p < len(s); p++ {
		if start, end := r.at(s, p); start >= 0 {
			out = append(out, [2]int{start, end})
			p = end - 1
		}
	}
	return out
}

// checkRuleMatchers fails t when a hand-written matcher's spans in s
// differ from its regex's.
func checkRuleMatchers(t *testing.T, s string) {
	t.Helper()
	for i := range rules {
		r := &rules[i]
		if r.at == nil {
			continue
		}
		if got, want := matcherSpans(r, s), regexSpans(r, s); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s on %q:\n got %v\nwant %v", r.typ, s, got, want)
		}
	}
}

// TestRuleMatchersMatchRegex compares every hand-written matcher with its
// regex on the case reports, their perturbed variants, the boundary seeds
// and random fragment strings. Whole-text comparison could hide one rule's
// wrong span behind another rule's precedence; this one cannot.
func TestRuleMatchersMatchRegex(t *testing.T) {
	for _, r := range caseReports() {
		checkRuleMatchers(t, r)
		checkRuleMatchers(t, perturbed(r, 0xabcdef))
	}
	for _, s := range boundarySeeds {
		checkRuleMatchers(t, s)
	}
	rng := rand.New(rand.NewSource(3))
	n := 20000
	if testing.Short() {
		n = 2000
	}
	for i := 0; i < n; i++ {
		checkRuleMatchers(t, randomFragments(rng))
	}
}

func FuzzRuleMatcherMatchesRegex(f *testing.F) {
	for _, r := range caseReports() {
		for _, tok := range strings.Fields(r) {
			f.Add(tok)
		}
	}
	for _, s := range boundarySeeds {
		f.Add(s)
	}
	f.Fuzz(checkRuleMatchers)
}

func FuzzExtractMatchesReference(f *testing.F) {
	for _, r := range caseReports() {
		f.Add(r)
		f.Add(perturbed(r, 0x123456))
	}
	for _, s := range boundarySeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if got, want := Extract(s), extractReference(s); !reflect.DeepEqual(got, want) {
			t.Fatalf("%q:\n got %v\nwant %v", s, got, want)
		}
	})
}

// TestResolveOverlapsMatchesReference checks the bitmap resolution against
// the quadratic one on random candidate sets with equal, nested and
// partly overlapping spans, tied precedences and tied lengths. Spans are
// non-empty, as Extract never emits an empty candidate.
func TestResolveOverlapsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for iter := 0; iter < 5000; iter++ {
		var cands []candidate
		for k := rng.Intn(30); k > 0; k-- {
			var c candidate
			switch {
			case len(cands) > 0 && rng.Intn(4) == 0: // equal span
				c = cands[rng.Intn(len(cands))]
			case len(cands) > 0 && rng.Intn(3) == 0: // nested span
				o := cands[rng.Intn(len(cands))]
				c.Start = o.Start + rng.Intn(o.End-o.Start)
				c.End = c.Start + 1 + rng.Intn(o.End-c.Start)
			default:
				c.Start = rng.Intn(200)
				c.End = c.Start + 1 + rng.Intn(20)
			}
			c.prec = rng.Intn(4)
			c.Text = fmt.Sprint(len(cands))
			cands = append(cands, c)
		}
		want := resolveOverlapsReference(append([]candidate(nil), cands...))
		if got := resolveOverlaps(cands); !reflect.DeepEqual(got, want) {
			t.Fatalf("iteration %d:\n got %v\nwant %v", iter, got, want)
		}
	}
}

// TestExtractDenseReport recognizes every indicator of a report of 20 000
// IPv4s, where overlap resolution meets 20 000 kept spans.
func TestExtractDenseReport(t *testing.T) {
	var b strings.Builder
	for i := 0; i < 20000; i++ {
		fmt.Fprintf(&b, "10.%d.%d.%d ", i%7, (i/7)%250, 1+i%250)
	}
	text := b.String()
	iocs := Extract(text)
	if len(iocs) != 20000 {
		t.Fatalf("got %d IOCs, want 20000", len(iocs))
	}
	for _, ic := range iocs {
		if ic.Type != TypeIPv4 || text[ic.Start:ic.End] != ic.Text {
			t.Fatalf("bad IOC %v", ic)
		}
	}
}

// BenchmarkIOCExtract recognizes the indicators of every case report per
// op.
func BenchmarkIOCExtract(b *testing.B) {
	reports := caseReports()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range reports {
			benchSink = Extract(r)
		}
	}
}

var benchSink []IOC
