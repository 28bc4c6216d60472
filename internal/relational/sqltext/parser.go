// Package sqltext reads the SQL subset that relational.SelectStmt prints.
// It is test support: the printer's round-trip tests and the executor
// tests that state their statements as text use it, while the product
// builds every statement as an AST and never reads SQL text. Only test
// files import this package.
package sqltext

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"threatraptor/internal/relational"
)

// Parse parses a SELECT statement in the supported SQL subset:
//
//	SELECT [DISTINCT] item, ... | *
//	FROM table [alias] (, table [alias])*
//	[WHERE expr]
//
// Expressions support =, <>, !=, <, <=, >, >=, LIKE, NOT LIKE, IN, NOT IN,
// AND, OR, NOT, parentheses, integer and 'string' literals, and
// alias.column references.
func Parse(src string) (*relational.SelectStmt, error) {
	toks, err := lexSQL(src)
	if err != nil {
		return nil, err
	}
	p := &sqlParser{toks: toks}
	stmt, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	if !p.atEOF() {
		return nil, fmt.Errorf("sql: unexpected %q after statement", p.cur().text)
	}
	return stmt, nil
}

// Query parses src, prepares it against db and runs it with no
// parameters.
func Query(db *relational.DB, src string) (*relational.ResultSet, relational.ExecStats, error) {
	stmt, err := Parse(src)
	if err != nil {
		return nil, relational.ExecStats{}, err
	}
	pr, err := db.Prepare(stmt)
	if err != nil {
		return nil, relational.ExecStats{}, err
	}
	return pr.QueryCtx(context.Background(), nil)
}

type sqlParser struct {
	toks []token
	i    int
}

func (p *sqlParser) cur() token  { return p.toks[p.i] }
func (p *sqlParser) atEOF() bool { return p.cur().kind == tokEOF }
func (p *sqlParser) advance()    { p.i++ }

// kw reports whether the current token is the given keyword (case-
// insensitive) and consumes it if so.
func (p *sqlParser) kw(word string) bool {
	t := p.cur()
	if t.kind == tokIdent && strings.EqualFold(t.text, word) {
		p.advance()
		return true
	}
	return false
}

func (p *sqlParser) expectKw(word string) error {
	if !p.kw(word) {
		return fmt.Errorf("sql: expected %s, found %q at %d", strings.ToUpper(word), p.cur().text, p.cur().pos)
	}
	return nil
}

func (p *sqlParser) sym(s string) bool {
	t := p.cur()
	if t.kind == tokSymbol && t.text == s {
		p.advance()
		return true
	}
	return false
}

func (p *sqlParser) expectSym(s string) error {
	if !p.sym(s) {
		return fmt.Errorf("sql: expected %q, found %q at %d", s, p.cur().text, p.cur().pos)
	}
	return nil
}

func (p *sqlParser) ident() (string, error) {
	t := p.cur()
	if t.kind != tokIdent {
		return "", fmt.Errorf("sql: expected identifier, found %q at %d", t.text, t.pos)
	}
	p.advance()
	return t.text, nil
}

// sqlReserved are the words no alias or column may be: the subset's
// keywords, and JOIN, ORDER and LIMIT, which it does not read, so that a
// statement using them fails naming the clause instead of binding it as
// an alias.
var sqlReserved = map[string]bool{
	"select": true, "from": true, "where": true, "distinct": true,
	"and": true, "or": true, "not": true, "like": true, "in": true,
	"as": true, "join": true, "order": true, "limit": true,
}

func (p *sqlParser) parseSelect() (*relational.SelectStmt, error) {
	if err := p.expectKw("select"); err != nil {
		return nil, err
	}
	stmt := &relational.SelectStmt{}
	stmt.Distinct = p.kw("distinct")

	// Projection list.
	if p.sym("*") {
		// empty Select means all columns
	} else {
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := relational.SelectItem{Expr: e}
			if p.kw("as") {
				name, err := p.ident()
				if err != nil {
					return nil, err
				}
				item.As = name
			}
			stmt.Select = append(stmt.Select, item)
			if !p.sym(",") {
				break
			}
		}
	}

	if err := p.expectKw("from"); err != nil {
		return nil, err
	}
	for {
		ref, err := p.parseTableRef()
		if err != nil {
			return nil, err
		}
		stmt.From = append(stmt.From, ref)
		if !p.sym(",") {
			break
		}
	}
	if p.kw("where") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Where = e
	}
	return stmt, nil
}

func (p *sqlParser) parseTableRef() (relational.TableRef, error) {
	name, err := p.ident()
	if err != nil {
		return relational.TableRef{}, err
	}
	ref := relational.TableRef{Table: name, Alias: name}
	p.kw("as")
	t := p.cur()
	if t.kind == tokIdent && !sqlReserved[strings.ToLower(t.text)] {
		ref.Alias = t.text
		p.advance()
	}
	return ref, nil
}

// Expression grammar (precedence low to high): OR, AND, NOT, comparison,
// primary.
func (p *sqlParser) parseExpr() (relational.Expr, error) { return p.parseOr() }

func (p *sqlParser) parseOr() (relational.Expr, error) {
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

func (p *sqlParser) parseAnd() (relational.Expr, error) {
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

func (p *sqlParser) parseNot() (relational.Expr, error) {
	if p.kw("not") {
		e, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return relational.UnOp{Op: "not", E: e}, nil
	}
	return p.parseComparison()
}

func (p *sqlParser) parseComparison() (relational.Expr, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	// NOT LIKE / NOT IN
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
			return nil, fmt.Errorf("sql: expected LIKE or IN after NOT at %d", p.cur().pos)
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

func (p *sqlParser) parseAdditive() (relational.Expr, error) {
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

func (p *sqlParser) parseValueList() ([]relational.Expr, error) {
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
	if err := p.expectSym(")"); err != nil {
		return nil, err
	}
	return vals, nil
}

func (p *sqlParser) parsePrimary() (relational.Expr, error) {
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
		if sqlReserved[strings.ToLower(t.text)] {
			return nil, fmt.Errorf("sql: unexpected keyword %q at %d", t.text, t.pos)
		}
		p.advance()
		if p.sym(".") {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			return relational.ColRef{Qualifier: t.text, Column: col}, nil
		}
		return relational.ColRef{Column: t.text}, nil
	case tokSymbol:
		if t.text == "(" {
			p.advance()
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectSym(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	}
	return nil, fmt.Errorf("sql: unexpected token %q at %d", t.text, t.pos)
}
