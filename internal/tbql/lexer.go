package tbql

import (
	"fmt"
	"strings"
	"unicode"
)

type tokKind uint8

const (
	tokEOF tokKind = iota
	tokIdent
	tokNumber
	tokString
	tokSymbol
)

// bytesPerToken is the source bytes per token lex sizes its slice for: the
// densest hunt-benchmark pool query spends 3.2 bytes a token, a
// synthesized query 4.4 or more, so the slice is allocated once.
const bytesPerToken = 3

type token struct {
	kind tokKind
	text string
	pos  int
}

// lex tokenizes TBQL source. Strings are double-quoted; inside one, a
// backslash takes the next byte literally, so '\"' is a quote and '\\' a
// backslash (the two escapes Format writes). A string without escapes is a
// substring of src. '//' starts a line comment.
func lex(src string) ([]token, error) {
	toks := make([]token, 0, len(src)/bytesPerToken+2)
	i := 0
	emit := func(k tokKind, text string, pos int) { toks = append(toks, token{k, text, pos}) }
	for i < len(src) {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '/' && i+1 < len(src) && src[i+1] == '/':
			for i < len(src) && src[i] != '\n' {
				i++
			}
		case c == '_' || unicode.IsLetter(rune(c)):
			start := i
			for i < len(src) && (src[i] == '_' || unicode.IsLetter(rune(src[i])) || unicode.IsDigit(rune(src[i]))) {
				i++
			}
			emit(tokIdent, src[start:i], start)
		case c >= '0' && c <= '9':
			start := i
			for i < len(src) && (src[i] >= '0' && src[i] <= '9') {
				i++
			}
			emit(tokNumber, src[start:i], start)
		case c == '"':
			start := i
			i++
			end := strings.IndexAny(src[i:], "\"\\")
			if end >= 0 && src[i+end] == '"' {
				emit(tokString, src[i:i+end], start)
				i += end + 1
				continue
			}
			var sb strings.Builder
			closed := false
			for i < len(src) && !closed {
				switch src[i] {
				case '"':
					i++
					closed = true
				case '\\':
					if i+1 >= len(src) {
						return nil, fmt.Errorf("tbql: dangling escape at %d", i)
					}
					sb.WriteByte(src[i+1])
					i += 2
				default:
					sb.WriteByte(src[i])
					i++
				}
			}
			if !closed {
				return nil, fmt.Errorf("tbql: unterminated string at %d", start)
			}
			emit(tokString, sb.String(), start)
		default:
			start := i
			matched := false
			for _, op := range []string{"~>", "->", "&&", "||", "<=", ">=", "!=", "<>"} {
				if strings.HasPrefix(src[i:], op) {
					i += 2
					emit(tokSymbol, op, start)
					matched = true
					break
				}
			}
			if matched {
				continue
			}
			switch c {
			case '[', ']', '(', ')', ',', '.', '!', '=', '<', '>', '~', '-':
				i++
				emit(tokSymbol, string(c), start)
			default:
				return nil, fmt.Errorf("tbql: unexpected character %q at %d", c, i)
			}
		}
	}
	emit(tokEOF, "", len(src))
	return toks, nil
}
