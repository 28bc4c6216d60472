package sqltext

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
	tokSymbol // punctuation and operators
)

type token struct {
	kind tokKind
	text string // for idents: original text; keywords matched case-insensitively
	pos  int
}

type lexer struct {
	src  string
	pos  int
	toks []token
}

// lexSQL tokenizes a SQL string. Strings use single quotes with ”
// escaping. Identifiers may be qualified later by the parser via '.'.
func lexSQL(src string) ([]token, error) {
	l := &lexer{src: src}
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			l.pos++
		case c == '-' && l.peek(1) == '-': // line comment
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		case isIdentStart(rune(c)):
			start := l.pos
			for l.pos < len(l.src) && isIdentPart(rune(l.src[l.pos])) {
				l.pos++
			}
			l.emit(tokIdent, l.src[start:l.pos], start)
		case c >= '0' && c <= '9':
			start := l.pos
			for l.pos < len(l.src) && l.src[l.pos] >= '0' && l.src[l.pos] <= '9' {
				l.pos++
			}
			l.emit(tokNumber, l.src[start:l.pos], start)
		case c == '\'':
			start := l.pos
			l.pos++
			var sb strings.Builder
			for {
				if l.pos >= len(l.src) {
					return nil, fmt.Errorf("sql: unterminated string at %d", start)
				}
				if l.src[l.pos] == '\'' {
					if l.peek(1) == '\'' { // escaped quote
						sb.WriteByte('\'')
						l.pos += 2
						continue
					}
					l.pos++
					break
				}
				sb.WriteByte(l.src[l.pos])
				l.pos++
			}
			l.emit(tokString, sb.String(), start)
		default:
			start := l.pos
			// multi-char operators first
			for _, op := range []string{"<=", ">=", "<>", "!="} {
				if strings.HasPrefix(l.src[l.pos:], op) {
					l.pos += 2
					l.emit(tokSymbol, op, start)
					goto next
				}
			}
			switch c {
			case '=', '<', '>', '(', ')', ',', '.', '*', '+', '-':
				l.pos++
				l.emit(tokSymbol, string(c), start)
			default:
				return nil, fmt.Errorf("sql: unexpected character %q at %d", c, l.pos)
			}
		next:
		}
	}
	l.emit(tokEOF, "", l.pos)
	return l.toks, nil
}

func (l *lexer) peek(n int) byte {
	if l.pos+n < len(l.src) {
		return l.src[l.pos+n]
	}
	return 0
}

func (l *lexer) emit(k tokKind, text string, pos int) {
	l.toks = append(l.toks, token{kind: k, text: text, pos: pos})
}

func isIdentStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

func isIdentPart(r rune) bool {
	return r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r)
}
