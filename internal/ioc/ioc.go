// Package ioc recognizes Indicators of Compromise (IOCs) in text with a
// set of regex rules, and implements IOC protection: replacing IOCs with a
// dummy word so general-purpose NLP components are not confused by the
// special characters (dots, slashes, underscores) inside indicators
// (Step 2 of Algorithm 1 in the ThreatRaptor paper).
//
// The rule set extends the open-source ioc-parser the paper builds on,
// e.g. distinguishing Linux and Windows file paths.
//
// Each rule's regex is the single specification of its indicator: Extract
// returns exactly what running every regex over the whole text would. It
// gets there in one scan. The scan splits the text into tokens, maximal
// runs of bytes other than space, '\n' and '\r', and counts each token's
// length, ASCII letters, digits and the bytes . / \ : @. A rule declares
// the counts a token must reach to hold a match (an IPv4 needs three dots
// and four digits, a URL a colon and two slashes, a hash 32 bytes), and it
// runs only on the tokens that reach them. That trigger must be a
// necessary condition of the regex, or matches are lost.
//
// The rules that run on most tokens (the three hashes, IPv4, both file
// path kinds, Package, Filename and Domain) do not run their regex: each
// has a hand-written byte matcher (match.go) that returns the same spans,
// leftmost-first and non-overlapping, without the regex engine's
// backtracking or allocations. CIDR, CVE, URL, Email and Registry rarely
// pass their triggers and keep running their regex. Registry is the one rule
// that runs over the whole text, because its keys may contain a space; it
// runs only when the text contains "HK".
//
// Two fuzz referees in the tests hold this equal to the specification:
// FuzzRuleMatcherMatchesRegex compares each hand-written matcher with its
// own regex on arbitrary strings, and FuzzExtractMatchesReference compares
// Extract with every regex run over the whole text.
package ioc

import (
	"regexp"
	"slices"
	"strconv"
	"strings"
)

// Type classifies an indicator.
type Type string

// Recognized IOC types.
const (
	TypeFilepathLinux Type = "FilepathLinux"
	TypeFilepathWin   Type = "FilepathWindows"
	TypeFilename      Type = "Filename"
	TypeIPv4          Type = "IPv4"
	TypeCIDR          Type = "CIDR"
	TypeURL           Type = "URL"
	TypeDomain        Type = "Domain"
	TypeEmail         Type = "Email"
	TypeMD5           Type = "MD5"
	TypeSHA1          Type = "SHA1"
	TypeSHA256        Type = "SHA256"
	TypeRegistry      Type = "Registry"
	TypeCVE           Type = "CVE"
	TypePackage       Type = "Package" // Android/Java package or APK name
)

// IOC is one recognized indicator with its byte span in the source text.
type IOC struct {
	Text  string
	Type  Type
	Start int
	End   int
}

// rule couples a compiled regex with its type, its precedence (higher
// wins on overlaps) and the trigger counts every token its regex can match
// in must reach. need must be a necessary condition of re: a token below
// it cannot hold a match, so skipping the token changes nothing.
type rule struct {
	re *regexp.Regexp
	// at, when set, is the hand-written matcher that Extract runs in
	// place of re; it returns exactly re's matches (match.go).
	at   matchAt
	typ  Type
	prec int
	need triggers
	// whole, when set, marks a rule whose match may contain a separator:
	// its regex runs once over the whole text, and only when the text
	// contains this literal.
	whole string
}

var rules = []rule{
	{re: regexp.MustCompile(`\bCVE-\d{4}-\d{4,7}\b`), typ: TypeCVE, prec: 100, need: triggers{n: 13, letters: 3, digits: 8}},
	{re: regexp.MustCompile(`\bhttps?://[^\s"'<>\)]+`), typ: TypeURL, prec: 90, need: triggers{n: 8, colons: 1, slashes: 2}},
	{re: regexp.MustCompile(`\b[A-Fa-f0-9]{64}\b`), typ: TypeSHA256, at: hashAt(64), prec: 85, need: triggers{n: 64}},
	{re: regexp.MustCompile(`\b[A-Fa-f0-9]{40}\b`), typ: TypeSHA1, at: hashAt(40), prec: 84, need: triggers{n: 40}},
	{re: regexp.MustCompile(`\b[A-Fa-f0-9]{32}\b`), typ: TypeMD5, at: hashAt(32), prec: 83, need: triggers{n: 32}},
	{re: regexp.MustCompile(`\b(?:HKEY_[A-Z_]+|HKLM|HKCU|HKCR|HKU)\\[\w\\ .-]+`), typ: TypeRegistry, prec: 80, whole: "HK"},
	{re: regexp.MustCompile(`\b(?:\d{1,3}\.){3}\d{1,3}/\d{1,2}\b`), typ: TypeCIDR, prec: 75, need: triggers{n: 9, digits: 5, dots: 3, slashes: 1}},
	{re: regexp.MustCompile(`\b(?:\d{1,3}\.){3}\d{1,3}\b`), typ: TypeIPv4, at: ipv4At, prec: 70, need: triggers{n: 7, digits: 4, dots: 3}},
	{re: regexp.MustCompile(`[\w.+-]+@[\w-]+(?:\.[\w-]+)+`), typ: TypeEmail, prec: 65, need: triggers{n: 5, dots: 1, ats: 1}},
	{re: regexp.MustCompile(`\b[A-Za-z]:\\(?:[^\\/:*?"<>|\r\n ]+\\)*[^\\/:*?"<>|\r\n ]+`), typ: TypeFilepathWin, at: winPathAt, prec: 60, need: triggers{n: 4, colons: 1, backslashes: 1}},
	// Linux path: at least one slash-separated component; excludes bare
	// "/" and trailing sentence periods (trimmed in post). Inside a token
	// the leading separator a whole-text match would consume is the
	// token's start, which ^ matches; the IOC is the capture group.
	{re: regexp.MustCompile(`(?:^|[\s"'(])((?:/[\w.+~-]+){1,})`), typ: TypeFilepathLinux, at: linuxPathAt, prec: 55, need: triggers{n: 2, slashes: 1}},
	// Android/Java package names and APKs: com.example.app, MsgApp.apk.
	{re: regexp.MustCompile(`\b(?:[a-z][a-z0-9_]*\.){2,}[A-Za-z][A-Za-z0-9_]*\b`), typ: TypePackage, at: packageAt, prec: 52, need: triggers{n: 5, letters: 3, dots: 2}},
	{re: regexp.MustCompile(`\b[\w-]+(?:\.[\w-]+)*\.(?:exe|dll|sh|py|tar|gz|bz2|zip|rar|7z|doc|docx|xls|xlsx|ppt|pdf|apk|jar|bat|ps1|vbs|so|bin|img|elf|iso|deb|rpm|msi|scr|tmp|dat|cfg|conf|log)\b`), typ: TypeFilename, at: filenameAt, prec: 50, need: triggers{n: 4, letters: 1, dots: 1}},
	{re: regexp.MustCompile(`\b(?:[a-z0-9][a-z0-9-]*\.)+(?:com|net|org|io|ru|cn|info|biz|xyz|onion|gov|edu|co|me|cc|top)\b`), typ: TypeDomain, at: domainAt, prec: 45, need: triggers{n: 4, letters: 2, dots: 1}},
}

// triggers counts a token's length and the bytes rules key on: ASCII
// letters, digits and five punctuation bytes. A dot that ends the token
// is not counted, since every dot a rule's regex needs is followed by a
// byte of the match.
type triggers struct {
	n, letters, digits, dots, slashes, backslashes, colons, ats int
}

// covers reports whether t reaches every count of need.
func (t *triggers) covers(need *triggers) bool {
	return t.n >= need.n && t.letters >= need.letters && t.digits >= need.digits && t.dots >= need.dots &&
		t.slashes >= need.slashes && t.backslashes >= need.backslashes &&
		t.colons >= need.colons && t.ats >= need.ats
}

// isSeparator reports whether c ends a token. No token rule's regex can
// match one of these bytes (the Linux path rule may consume one as its
// leading context, which ^ stands in for inside the token), and each is a
// non-word byte, so \b at a token's edge reads the same as in the text.
func isSeparator(c byte) bool { return c == ' ' || c == '\n' || c == '\r' }

// candidate is one regex match before overlap resolution.
type candidate struct {
	IOC
	prec int
}

// Extract scans text for IOCs, resolving overlaps by precedence then by
// length (longest match wins), and returns them in source order.
//
// One pass splits text into tokens (maximal runs of non-separator bytes)
// and counts each token's trigger bytes; a rule's regex runs only on the
// tokens that cover its need, with match offsets rebased onto text. The
// result equals running every regex over the whole text.
func Extract(text string) []IOC {
	var cands []candidate
	for i := range rules {
		if r := &rules[i]; r.whole != "" && strings.Contains(text, r.whole) {
			cands = match(cands, r, text, 0)
		}
	}
	var t triggers
	start := 0
	for i := 0; i <= len(text); i++ {
		if i < len(text) && !isSeparator(text[i]) {
			switch c := text[i]; {
			case c >= '0' && c <= '9':
				t.digits++
			case c == '.':
				t.dots++
			case c == '/':
				t.slashes++
			case c == '\\':
				t.backslashes++
			case c == ':':
				t.colons++
			case c == '@':
				t.ats++
			case c|0x20 >= 'a' && c|0x20 <= 'z':
				t.letters++
			}
			continue
		}
		if t.n = i - start; t.n > 0 {
			if text[i-1] == '.' {
				t.dots-- // every dot a rule needs has a byte after it
			}
			for r := range rules {
				if rules[r].whole == "" && t.covers(&rules[r].need) {
					cands = match(cands, &rules[r], text[start:i], start)
				}
			}
		}
		t, start = triggers{}, i+1
	}
	return resolveOverlaps(cands)
}

// match appends r's matches in s, which starts at byte base of the text.
func match(cands []candidate, r *rule, s string, base int) []candidate {
	if r.at == nil {
		for _, loc := range r.re.FindAllStringSubmatchIndex(s, -1) {
			start, end := loc[0], loc[1]
			// Rules with a capture group indicate the IOC is the group.
			if len(loc) >= 4 && loc[2] >= 0 {
				start, end = loc[2], loc[3]
			}
			cands = appendMatch(cands, r, s[start:end], base+start)
		}
		return cands
	}
	for p := 0; p < len(s); p++ {
		if start, end := r.at(s, p); start >= 0 {
			cands = appendMatch(cands, r, s[start:end], base+start)
			p = end - 1 // the next search starts where the match ends
		}
	}
	return cands
}

// appendMatch appends the candidate for a match m of r at byte at of the
// text, with trailing punctuation trimmed and invalid IPs dropped.
func appendMatch(cands []candidate, r *rule, m string, at int) []candidate {
	raw := trimIOC(m)
	if raw == "" {
		return cands
	}
	if (r.typ == TypeIPv4 || r.typ == TypeCIDR) && !validIP(raw) {
		return cands
	}
	return append(cands, candidate{IOC{Text: raw, Type: r.typ, Start: at, End: at + len(raw)}, r.prec})
}

// resolveOverlaps keeps, in precedence then length order (ties in input
// order), every candidate that overlaps no candidate kept before it, and
// returns the kept ones in source order. Candidate spans are non-empty.
// The kept spans are pairwise disjoint, so a bitmap of the bytes they
// cover answers each overlap test in time linear in the candidate's
// length.
func resolveOverlaps(cands []candidate) []IOC {
	if len(cands) == 0 {
		return nil
	}
	slices.SortStableFunc(cands, func(a, b candidate) int {
		if a.prec != b.prec {
			return b.prec - a.prec
		}
		return (b.End - b.Start) - (a.End - a.Start)
	})
	end := 0
	for _, c := range cands {
		end = max(end, c.End)
	}
	taken := make([]uint64, (end+63)/64)
	chosen := make([]IOC, 0, len(cands))
	for _, c := range cands {
		free := true
		for i := c.Start; i < c.End && free; i++ {
			free = taken[i/64]&(1<<(i%64)) == 0
		}
		if !free {
			continue
		}
		for i := c.Start; i < c.End; i++ {
			taken[i/64] |= 1 << (i % 64)
		}
		chosen = append(chosen, c.IOC)
	}
	slices.SortFunc(chosen, func(a, b IOC) int { return a.Start - b.Start })
	return chosen
}

// trimIOC strips trailing sentence punctuation that regexes may capture.
func trimIOC(s string) string {
	s = strings.TrimRight(s, ".,;:!?)\"'")
	return s
}

func validIP(s string) bool {
	host := s
	if i := strings.IndexByte(s, '/'); i >= 0 {
		host = s[:i]
		bits, err := strconv.Atoi(s[i+1:])
		if err != nil || bits < 0 || bits > 32 {
			return false
		}
	}
	parts := strings.Split(host, ".")
	if len(parts) != 4 {
		return false
	}
	for _, p := range parts {
		n, err := strconv.Atoi(p)
		if err != nil || n < 0 || n > 255 {
			return false
		}
		if len(p) > 1 && p[0] == '0' {
			return false
		}
	}
	return true
}

// DummyWord is the placeholder substituted for IOCs during protection. The
// paper uses the word "something" because general dependency parsers treat
// it as an ordinary nominal.
const DummyWord = "something"

// Replacement records one protected IOC: its placeholder's byte offset in
// the protected text, and the original indicator.
type Replacement struct {
	Offset int // byte offset of the dummy word in the protected text
	IOC    IOC // the original indicator (offsets into the original text)
}

// Protect replaces every recognized IOC in text with DummyWord and returns
// the protected text plus the replacement record, in source order.
func Protect(text string) (string, []Replacement) {
	iocs := Extract(text)
	if len(iocs) == 0 {
		return text, nil
	}
	var b strings.Builder
	b.Grow(len(text))
	var recs []Replacement
	prev := 0
	for _, ic := range iocs {
		b.WriteString(text[prev:ic.Start])
		recs = append(recs, Replacement{Offset: b.Len(), IOC: ic})
		b.WriteString(DummyWord)
		prev = ic.End
	}
	b.WriteString(text[prev:])
	return b.String(), recs
}

// Restore undoes Protect, substituting original indicators back into the
// protected text (used in tests and by baselines that operate on raw
// strings rather than token streams).
func Restore(protected string, recs []Replacement) string {
	var b strings.Builder
	prev := 0
	for _, r := range recs {
		if r.Offset < prev || r.Offset+len(DummyWord) > len(protected) {
			continue
		}
		b.WriteString(protected[prev:r.Offset])
		b.WriteString(r.IOC.Text)
		prev = r.Offset + len(DummyWord)
	}
	b.WriteString(protected[prev:])
	return b.String()
}
