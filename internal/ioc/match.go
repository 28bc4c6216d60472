package ioc

import "strings"

// Hand-written matchers for the token rules that run on most tokens. Each
// returns what its rule's regex does in Go's leftmost-first semantics, read
// off the regex:
//
//   - A `[set]+` or `[set]*` followed by a byte outside its set (a '.', a
//     '\' or a '/') must consume its whole run: a shorter take leaves a
//     byte of the set where the next byte is required. So every run is
//     maximal, and the only backtracking left is over the count of a
//     repeated group, which the matchers walk from the greedy count down.
//   - `\b` next to a word byte reads the byte on the other side; a byte
//     outside the string, or any byte >= 0x80 (Go's \b is ASCII), is a
//     non-word byte.
//   - A literal alternation followed by `\b` (the TLDs, the file
//     extensions) matches exactly when the run of word bytes at that
//     position is one of its words, whatever the order of the words.
//
// Every match starts on an ASCII byte, which is always the start of a rune
// in Go's decoding, so a byte-level scan tries the same start positions as
// the regex engine. FuzzRuleMatcherMatchesRegex holds each matcher equal
// to its regex on arbitrary strings.

// Byte classes, one bit each.
const (
	cWord    = 1 << iota // \w: [0-9A-Za-z_]
	cDigit               // \d: [0-9]
	cHex                 // [A-Fa-f0-9]
	cLower               // [a-z]
	cLetter              // [A-Za-z]
	cPkg                 // [a-z0-9_]
	cDomain              // [a-z0-9-]
	cName                // [\w-]
	cPath                // [\w.+~-]
	cWinComp             // [^\\/:*?"<>|\r\n ]: any byte of a Windows path component
	cPathCtx             // [\s"'(]: the byte before a Linux path
)

var class = func() (t [256]uint16) {
	set := func(bits uint16, bytes string) {
		for i := 0; i < len(bytes); i++ {
			t[bytes[i]] |= bits
		}
	}
	for c := 0; c < 256; c++ {
		t[c] |= cWinComp
	}
	for c := '0'; c <= '9'; c++ {
		t[c] |= cWord | cDigit | cHex | cPkg | cDomain
	}
	for c := 'a'; c <= 'z'; c++ {
		t[c] |= cWord | cLower | cLetter | cPkg | cDomain
	}
	for c := 'A'; c <= 'Z'; c++ {
		t[c] |= cWord | cLetter
	}
	for c := 'a'; c <= 'f'; c++ {
		t[c] |= cHex
		t[c-'a'+'A'] |= cHex
	}
	set(cWord|cPkg, "_")
	set(cDomain, "-")
	for c := 0; c < 256; c++ {
		if t[c]&cWord != 0 {
			t[c] |= cName | cPath
		}
	}
	set(cName|cPath, "-")
	set(cPath, ".+~")
	for _, c := range []byte("\\/:*?\"<>|\r\n ") {
		t[c] &^= cWinComp
	}
	set(cPathCtx, "\t\n\f\r \"'(")
	return t
}()

// is reports whether s[i] is in class c; positions outside s are in none.
func is(s string, i int, c uint16) bool {
	return i >= 0 && i < len(s) && class[s[i]]&c != 0
}

// runEnd returns the end of the run of class-c bytes that starts at i.
func runEnd(s string, i int, c uint16) int {
	for i < len(s) && class[s[i]]&c != 0 {
		i++
	}
	return i
}

// wordStart reports whether a word byte at p follows a non-word byte: the
// \b before a match whose first byte is a word byte.
func wordStart(s string, p int) bool { return is(s, p, cWord) && !is(s, p-1, cWord) }

// matchAt returns the span of the rule's leftmost-first match that starts
// at byte p of s (the capture group's span for the Linux path rule), or
// (-1, -1) when none starts there. The span's end is also where the
// regex's next search would start.
type matchAt func(s string, p int) (start, end int)

// hashAt matches \b[A-Fa-f0-9]{n}\b: a run of word bytes exactly n long,
// all hex.
func hashAt(n int) matchAt {
	return func(s string, p int) (int, int) {
		if !wordStart(s, p) || runEnd(s, p, cHex) != p+n || is(s, p+n, cWord) {
			return -1, -1
		}
		return p, p + n
	}
}

// quadEnd returns the end of (?:\d{1,3}\.){3}\d{1,3} at p, or -1. Each
// digit run is maximal, so one longer than three fails.
func quadEnd(s string, p int) int {
	for g := 0; ; g++ {
		e := runEnd(s, p, cDigit)
		if e == p || e-p > 3 {
			return -1
		}
		if g == 3 {
			return e
		}
		if e == len(s) || s[e] != '.' {
			return -1
		}
		p = e + 1
	}
}

// ipv4At matches \b(?:\d{1,3}\.){3}\d{1,3}\b.
func ipv4At(s string, p int) (int, int) {
	if !wordStart(s, p) {
		return -1, -1
	}
	if e := quadEnd(s, p); e >= 0 && !is(s, e, cWord) {
		return p, e
	}
	return -1, -1
}

// packageAt matches \b(?:[a-z][a-z0-9_]*\.){2,}[A-Za-z][A-Za-z0-9_]*\b.
// The greedy repetition takes k segments; the tail, a letter and the rest
// of its word run, always meets its \b. When no letter follows the k-th
// segment, k-1 segments and the k-th segment's word match instead.
func packageAt(s string, p int) (int, int) {
	if !is(s, p, cLower) || is(s, p-1, cWord) {
		return -1, -1
	}
	k, q, last := 0, p, p
	for is(s, q, cLower) {
		e := runEnd(s, q+1, cPkg)
		if e == len(s) || s[e] != '.' {
			break
		}
		k, last, q = k+1, q, e+1
	}
	switch {
	case k >= 2 && is(s, q, cLetter):
		return p, runEnd(s, q, cWord)
	case k >= 3:
		return p, runEnd(s, last, cWord)
	}
	return -1, -1
}

// domainAt matches \b(?:[a-z0-9][a-z0-9-]*\.)+(?:com|…|top)\b: from the
// greedy segment count down to one, the first segment boundary whose word
// run is a TLD ends the match.
func domainAt(s string, p int) (int, int) {
	if !is(s, p, cLower|cDigit) || is(s, p-1, cWord) {
		return -1, -1
	}
	q := p
	for is(s, q, cLower|cDigit) {
		e := runEnd(s, q+1, cDomain)
		if e == len(s) || s[e] != '.' {
			break
		}
		q = e + 1
	}
	// q is past the last segment's dot; segments hold no dots, so each
	// earlier boundary is just past the previous dot.
	for q > p {
		if w := runEnd(s, q, cWord); isTLD(s[q:w]) {
			return p, w
		}
		q = p + strings.LastIndexByte(s[p:q-1], '.') + 1
	}
	return -1, -1
}

func isTLD(w string) bool {
	switch w {
	case "com", "net", "org", "io", "ru", "cn", "info", "biz", "xyz", "onion", "gov", "edu", "co", "me", "cc", "top":
		return true
	}
	return false
}

// filenameAt matches
// \b[\w-]+(?:\.[\w-]+)*\.(?:exe|…|log)\b. The dotted chain of [\w-] runs
// after p is walked once; the greedy repetition prefers the last run
// whose leading word run is an extension. The extension's \b may fall on
// a '-' inside its run.
func filenameAt(s string, p int) (int, int) {
	if !is(s, p, cName) || is(s, p-1, cWord) == is(s, p, cWord) {
		return -1, -1
	}
	end := -1
	for i := runEnd(s, p, cName); i < len(s) && s[i] == '.'; {
		e := runEnd(s, i+1, cName)
		if e == i+1 {
			break
		}
		if w := runEnd(s, i+1, cWord); isExtension(s[i+1 : w]) {
			end = w
		}
		i = e
	}
	if end < 0 {
		return -1, -1
	}
	return p, end
}

func isExtension(w string) bool {
	switch w {
	case "exe", "dll", "sh", "py", "tar", "gz", "bz2", "zip", "rar", "7z", "doc", "docx", "xls", "xlsx",
		"ppt", "pdf", "apk", "jar", "bat", "ps1", "vbs", "so", "bin", "img", "elf", "iso", "deb", "rpm",
		"msi", "scr", "tmp", "dat", "cfg", "conf", "log":
		return true
	}
	return false
}

// winPathAt matches
// \b[A-Za-z]:\\(?:[^\\/:*?"<>|\r\n ]+\\)*[^\\/:*?"<>|\r\n ]+: the greedy
// count of backslash-ended components, then a final component; when none
// follows, the last backslash-ended component is the final one.
func winPathAt(s string, p int) (int, int) {
	if !is(s, p, cLetter) || is(s, p-1, cWord) || p+2 >= len(s) || s[p+1] != ':' || s[p+2] != '\\' {
		return -1, -1
	}
	q, lastEnd := p+3, -1
	for {
		e := runEnd(s, q, cWinComp)
		if e == q {
			break
		}
		if e == len(s) || s[e] != '\\' {
			return p, e
		}
		q, lastEnd = e+1, e
	}
	if lastEnd < 0 {
		return -1, -1
	}
	return p, lastEnd
}

// linuxPathAt matches (?:^|[\s"'(])((?:/[\w.+~-]+){1,}) and returns the
// group: ^ is tried before the context byte, and only at the string's
// start.
func linuxPathAt(s string, p int) (int, int) {
	if p == 0 {
		if e := pathEnd(s, 0); e > 0 {
			return 0, e
		}
	}
	if is(s, p, cPathCtx) {
		if e := pathEnd(s, p+1); e > p+1 {
			return p + 1, e
		}
	}
	return -1, -1
}

// pathEnd returns the end of (?:/[\w.+~-]+)+ at q, or q.
func pathEnd(s string, q int) int {
	for q < len(s) && s[q] == '/' {
		e := runEnd(s, q+1, cPath)
		if e == q+1 {
			break
		}
		q = e
	}
	return q
}
