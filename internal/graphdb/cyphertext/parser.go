// Package cyphertext reads the Cypher subset that graphdb.Query prints.
// It is test support: the printer's round-trip tests and the graph tests
// that state their queries as text use it, while the product builds every
// graph query as an AST and never reads Cypher text. Only test files
// import this package.
package cyphertext

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"unicode"

	"threatraptor/internal/graphdb"
	"threatraptor/internal/relational"
)

// Parse parses a Cypher-subset query:
//
//	MATCH (a:Process {exename: '/bin/tar'})-[e:read]->(b:File)
//	MATCH (b)-[*1..4]->(c:NetConn)
//	WHERE a.exename LIKE '%tar%' AND e.start_time < 100
//	RETURN DISTINCT a.exename, c.dstip
//
// Relationship patterns support single hops "-[v:type]->", reversed hops
// "<-[v:type]-", undirected hops "-[v:type]-", and variable-length spans
// "-[*]", "-[*n]", "-[*n..m]", "-[*n..]", "-[*..m]" (optionally typed).
// WHERE supports the same operators as the relational engine, with LIKE as
// a portability extension.
func Parse(src string) (*graphdb.Query, error) {
	toks, err := lexCypher(src)
	if err != nil {
		return nil, err
	}
	p := &cypherParser{toks: toks}
	q, err := p.parseQuery()
	if err != nil {
		return nil, err
	}
	if !p.atEOF() {
		return nil, fmt.Errorf("cypher: unexpected %q after query", p.cur().text)
	}
	return q, nil
}

// Query parses src, prepares it and runs it on g with no parameters.
func Query(g *graphdb.Graph, src string) (*graphdb.ResultSet, graphdb.ExecStats, error) {
	q, err := Parse(src)
	if err != nil {
		return nil, graphdb.ExecStats{}, err
	}
	return g.ExecPrepared(context.Background(), graphdb.Prepare(q), nil)
}

type ctoken struct {
	kind tokKind
	text string
	pos  int
}

type tokKind uint8

const (
	tokEOF tokKind = iota
	tokIdent
	tokNumber
	tokString
	tokSymbol
)

func lexCypher(src string) ([]ctoken, error) {
	var toks []ctoken
	i := 0
	emit := func(k tokKind, text string, pos int) { toks = append(toks, ctoken{k, text, pos}) }
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
			for i < len(src) && src[i] >= '0' && src[i] <= '9' {
				i++
			}
			emit(tokNumber, src[start:i], start)
		case c == '\'':
			start := i
			i++
			var sb strings.Builder
			for {
				if i >= len(src) {
					return nil, fmt.Errorf("cypher: unterminated string at %d", start)
				}
				if src[i] == '\'' {
					if i+1 < len(src) && src[i+1] == '\'' {
						sb.WriteByte('\'')
						i += 2
						continue
					}
					i++
					break
				}
				sb.WriteByte(src[i])
				i++
			}
			emit(tokString, sb.String(), start)
		default:
			start := i
			matched := false
			for _, op := range []string{"<=", ">=", "<>", "!=", "->", "<-", ".."} {
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
			case '(', ')', '[', ']', '{', '}', ':', ',', '.', '-', '*', '=', '<', '>', '|', '+':
				i++
				emit(tokSymbol, string(c), start)
			default:
				return nil, fmt.Errorf("cypher: unexpected character %q at %d", c, i)
			}
		}
	}
	emit(tokEOF, "", i)
	return toks, nil
}

type cypherParser struct {
	toks []ctoken
	i    int
}

func (p *cypherParser) cur() ctoken { return p.toks[p.i] }
func (p *cypherParser) atEOF() bool { return p.cur().kind == tokEOF }
func (p *cypherParser) advance()    { p.i++ }

func (p *cypherParser) kw(word string) bool {
	t := p.cur()
	if t.kind == tokIdent && strings.EqualFold(t.text, word) {
		p.advance()
		return true
	}
	return false
}

func (p *cypherParser) peekKw(word string) bool {
	t := p.cur()
	return t.kind == tokIdent && strings.EqualFold(t.text, word)
}

func (p *cypherParser) sym(s string) bool {
	t := p.cur()
	if t.kind == tokSymbol && t.text == s {
		p.advance()
		return true
	}
	return false
}

func (p *cypherParser) expectSym(s string) error {
	if !p.sym(s) {
		return fmt.Errorf("cypher: expected %q, found %q at %d", s, p.cur().text, p.cur().pos)
	}
	return nil
}

func (p *cypherParser) ident() (string, error) {
	t := p.cur()
	if t.kind != tokIdent {
		return "", fmt.Errorf("cypher: expected identifier, found %q at %d", t.text, t.pos)
	}
	p.advance()
	return t.text, nil
}

// cypherReserved are the words no variable may be: the subset's keywords,
// and ORDER and LIMIT, which it does not read, so that a query using them
// fails naming the clause.
var cypherReserved = map[string]bool{
	"match": true, "where": true, "return": true, "distinct": true,
	"and": true, "or": true, "not": true, "like": true, "in": true,
	"as": true, "order": true, "limit": true,
}

func (p *cypherParser) parseQuery() (*graphdb.Query, error) {
	q := &graphdb.Query{}
	if !p.peekKw("match") {
		return nil, fmt.Errorf("cypher: query must start with MATCH")
	}
	// MATCH clauses may interleave with WHERE clauses (Cypher style); all
	// WHERE expressions are conjoined.
	for p.kw("match") {
		for {
			pat, err := p.parsePattern()
			if err != nil {
				return nil, err
			}
			q.Patterns = append(q.Patterns, pat)
			if !p.sym(",") {
				break
			}
		}
		if p.kw("where") {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if q.Where == nil {
				q.Where = e
			} else {
				q.Where = relational.BinOp{Op: "and", L: q.Where, R: e}
			}
		}
	}
	if !p.kw("return") {
		return nil, fmt.Errorf("cypher: missing RETURN clause")
	}
	q.Distinct = p.kw("distinct")
	for {
		v, err := p.ident()
		if err != nil {
			return nil, err
		}
		item := graphdb.ReturnItem{Var: v}
		if p.sym(".") {
			prop, err := p.ident()
			if err != nil {
				return nil, err
			}
			item.Prop = prop
		}
		if p.kw("as") {
			alias, err := p.ident()
			if err != nil {
				return nil, err
			}
			item.As = alias
		}
		q.Return = append(q.Return, item)
		if !p.sym(",") {
			break
		}
	}
	return q, nil
}

func (p *cypherParser) parsePattern() (graphdb.Pattern, error) {
	var pat graphdb.Pattern
	node, err := p.parseNodePat()
	if err != nil {
		return pat, err
	}
	pat.Nodes = append(pat.Nodes, node)
	for {
		rel, ok, err := p.parseRelPat()
		if err != nil {
			return pat, err
		}
		if !ok {
			break
		}
		node, err := p.parseNodePat()
		if err != nil {
			return pat, err
		}
		pat.Rels = append(pat.Rels, rel)
		pat.Nodes = append(pat.Nodes, node)
	}
	return pat, nil
}

func (p *cypherParser) parseNodePat() (graphdb.NodePat, error) {
	var n graphdb.NodePat
	if err := p.expectSym("("); err != nil {
		return n, err
	}
	t := p.cur()
	if t.kind == tokIdent && !cypherReserved[strings.ToLower(t.text)] {
		n.Var = t.text
		p.advance()
	}
	if p.sym(":") {
		label, err := p.ident()
		if err != nil {
			return n, err
		}
		n.Label = label
	}
	if p.sym("{") {
		n.Props = make(graphdb.Props)
		for {
			key, err := p.ident()
			if err != nil {
				return n, err
			}
			if err := p.expectSym(":"); err != nil {
				return n, err
			}
			v, err := p.parseLiteral()
			if err != nil {
				return n, err
			}
			n.Props[key] = v
			if !p.sym(",") {
				break
			}
		}
		if err := p.expectSym("}"); err != nil {
			return n, err
		}
	}
	return n, p.expectSym(")")
}

// parseRelPat parses "-[...]->", "<-[...]-", or "-[...]-"; ok=false when the
// next token does not begin a relationship.
func (p *cypherParser) parseRelPat() (graphdb.RelPat, bool, error) {
	var r graphdb.RelPat
	r.Min, r.Max = 1, 1
	switch {
	case p.sym("<-"):
		r.Dir = graphdb.DirIn
	case p.sym("-"):
		r.Dir = graphdb.DirOut // provisional; decided by the closing arrow
	default:
		return r, false, nil
	}
	if err := p.expectSym("["); err != nil {
		return r, false, err
	}
	t := p.cur()
	if t.kind == tokIdent && !cypherReserved[strings.ToLower(t.text)] {
		r.Var = t.text
		p.advance()
	}
	if p.sym(":") {
		for {
			typ, err := p.ident()
			if err != nil {
				return r, false, err
			}
			r.Types = append(r.Types, asciiLower(typ))
			// Neo4j alternation: :a|b
			if !p.sym("|") {
				break
			}
		}
	}
	if p.sym("*") {
		r.Min, r.Max = 1, -1
		if p.cur().kind == tokNumber {
			n, _ := strconv.Atoi(p.cur().text)
			p.advance()
			r.Min, r.Max = n, n
			if p.sym("..") {
				r.Max = -1
				if p.cur().kind == tokNumber {
					m, _ := strconv.Atoi(p.cur().text)
					p.advance()
					r.Max = m
				}
			}
		} else if p.sym("..") {
			r.Min = 1
			r.Max = -1
			if p.cur().kind == tokNumber {
				m, _ := strconv.Atoi(p.cur().text)
				p.advance()
				r.Max = m
			}
		}
	}
	if err := p.expectSym("]"); err != nil {
		return r, false, err
	}
	switch {
	case r.Dir == graphdb.DirIn:
		if err := p.expectSym("-"); err != nil {
			return r, false, err
		}
	case p.sym("->"):
		r.Dir = graphdb.DirOut
	case p.sym("-"):
		r.Dir = graphdb.DirBoth
	default:
		return r, false, fmt.Errorf("cypher: expected -> or - after relationship at %d", p.cur().pos)
	}
	if r.Max != -1 && r.Max < r.Min {
		return r, false, fmt.Errorf("cypher: invalid length bounds *%d..%d", r.Min, r.Max)
	}
	return r, true, nil
}

// asciiLower lowercases ASCII letters only. The lexer reads identifiers
// byte by byte, and a Unicode case mapping can turn their bytes into ones
// it rejects (an invalid UTF-8 byte becomes U+FFFD), so a printed type
// would no longer re-parse.
func asciiLower(s string) string {
	b := []byte(s)
	for i, c := range b {
		if 'A' <= c && c <= 'Z' {
			b[i] = c + 'a' - 'A'
		}
	}
	return string(b)
}

func (p *cypherParser) parseLiteral() (graphdb.Value, error) {
	t := p.cur()
	switch t.kind {
	case tokNumber:
		p.advance()
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return relational.Null(), err
		}
		return relational.Int(n), nil
	case tokString:
		p.advance()
		return relational.Str(t.text), nil
	}
	return relational.Null(), fmt.Errorf("cypher: expected literal, found %q at %d", t.text, t.pos)
}

// Expression grammar mirrors the SQL subset, producing relational.Expr.
func (p *cypherParser) parseExpr() (relational.Expr, error) { return p.parseOr() }

func (p *cypherParser) parseOr() (relational.Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.kw("or") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = relational.BinOp{Op: "or", L: l, R: r}
	}
	return l, nil
}

func (p *cypherParser) parseAnd() (relational.Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.kw("and") {
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = relational.BinOp{Op: "and", L: l, R: r}
	}
	return l, nil
}

func (p *cypherParser) parseNot() (relational.Expr, error) {
	if p.kw("not") {
		e, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return relational.UnOp{Op: "not", E: e}, nil
	}
	return p.parseComparison()
}

func (p *cypherParser) parseComparison() (relational.Expr, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	if p.kw("not") {
		switch {
		case p.kw("like"):
			r, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			return relational.UnOp{Op: "not", E: relational.BinOp{Op: "like", L: l, R: r}}, nil
		case p.kw("in"):
			vals, err := p.parseValueList()
			if err != nil {
				return nil, err
			}
			return relational.InList{E: l, Vals: vals, Negate: true}, nil
		default:
			return nil, fmt.Errorf("cypher: expected LIKE or IN after NOT")
		}
	}
	if p.kw("like") {
		r, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return relational.BinOp{Op: "like", L: l, R: r}, nil
	}
	if p.kw("in") {
		vals, err := p.parseValueList()
		if err != nil {
			return nil, err
		}
		return relational.InList{E: l, Vals: vals}, nil
	}
	for _, op := range []string{"=", "<>", "!=", "<=", ">=", "<", ">"} {
		if p.sym(op) {
			r, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			if op == "!=" {
				op = "<>"
			}
			return relational.BinOp{Op: op, L: l, R: r}, nil
		}
	}
	return l, nil
}

func (p *cypherParser) parseAdditive() (relational.Expr, error) {
	l, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		switch {
		case p.sym("+"):
			op = "+"
		case p.sym("-"):
			op = "-"
		default:
			return l, nil
		}
		r, err := p.parsePrimary()
		if err != nil {
			return nil, err
		}
		l = relational.BinOp{Op: op, L: l, R: r}
	}
}

func (p *cypherParser) parseValueList() ([]relational.Expr, error) {
	if err := p.expectSym("("); err != nil {
		return nil, err
	}
	var vals []relational.Expr
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		vals = append(vals, e)
		if !p.sym(",") {
			break
		}
	}
	return vals, p.expectSym(")")
}

func (p *cypherParser) parsePrimary() (relational.Expr, error) {
	t := p.cur()
	switch t.kind {
	case tokNumber:
		p.advance()
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, err
		}
		return relational.Lit{V: relational.Int(n)}, nil
	case tokString:
		p.advance()
		return relational.Lit{V: relational.Str(t.text)}, nil
	case tokIdent:
		if cypherReserved[strings.ToLower(t.text)] {
			return nil, fmt.Errorf("cypher: unexpected keyword %q at %d", t.text, t.pos)
		}
		p.advance()
		if p.sym(".") {
			prop, err := p.ident()
			if err != nil {
				return nil, err
			}
			return relational.ColRef{Qualifier: t.text, Column: prop}, nil
		}
		return relational.ColRef{Column: t.text}, nil
	case tokSymbol:
		if t.text == "(" {
			p.advance()
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			return e, p.expectSym(")")
		}
	}
	return nil, fmt.Errorf("cypher: unexpected token %q at %d", t.text, t.pos)
}
