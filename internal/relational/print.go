package relational

import (
	"strconv"
	"strings"
)

// This file prints statement ASTs as SQL text — the only place SQL text is
// produced. sqltext.Parse reads every printed statement back to the same
// AST, with two exceptions no parser reads: Param / ParamIDs / ValParam
// placeholders print as "?N" / "x IN ?listN" / "?vN" (followed by the
// bound value in brackets, "?vN ['x']", when the printer is given the
// execution's values), and a negative integer literal prints as
// "(0 - N)", the arithmetic the parser does read.

// String prints the statement as SQL.
func (s *SelectStmt) String() string { return s.BoundString(nil) }

// BoundString prints the statement as SQL with each value slot followed
// by its value in vals.
func (s *SelectStmt) BoundString(vals []Value) string {
	var sb strings.Builder
	sb.WriteString("SELECT ")
	if s.Distinct {
		sb.WriteString("DISTINCT ")
	}
	if len(s.Select) == 0 {
		sb.WriteString("*")
	}
	for i, item := range s.Select {
		if i > 0 {
			sb.WriteString(", ")
		}
		writeExpr(&sb, item.Expr, 0, vals)
		if item.As != "" {
			sb.WriteString(" AS " + item.As)
		}
	}
	sb.WriteString(" FROM ")
	for i, ref := range s.From {
		if i > 0 {
			sb.WriteString(", ")
		}
		writeTableRef(&sb, ref)
	}
	if s.Where != nil {
		sb.WriteString(" WHERE ")
		writeExpr(&sb, s.Where, 0, vals)
	}
	return sb.String()
}

func writeTableRef(sb *strings.Builder, ref TableRef) {
	sb.WriteString(ref.Table)
	if ref.Alias != "" && ref.Alias != ref.Table {
		sb.WriteString(" " + ref.Alias)
	}
}

// String prints the statement the prepared plan was compiled from.
func (pr *Prepared) String() string { return pr.p.stmt.String() }

// BoundString prints the statement with its value slots' values in vals.
func (pr *Prepared) BoundString(vals []Value) string { return pr.p.stmt.BoundString(vals) }

// ExprString prints an expression in the syntax both the SQL and the
// Cypher parser read (the graph backend's WHERE is the same Expr).
func ExprString(e Expr) string { return BoundExprString(e, nil) }

// BoundExprString is ExprString with each value slot followed by its
// value in vals.
func BoundExprString(e Expr, vals []Value) string {
	var sb strings.Builder
	writeExpr(&sb, e, 0, vals)
	return sb.String()
}

// Binding strength of each expression form, one level per parser grammar
// rule (parseOr … parsePrimary): an operand that binds more loosely than
// its position admits is parenthesized.
const (
	precOr = iota + 1
	precAnd
	precNot
	precCmp
	precAdd
	precPrimary
)

func exprPrec(e Expr) int {
	switch v := e.(type) {
	case BinOp:
		switch v.Op {
		case "or":
			return precOr
		case "and":
			return precAnd
		case "+", "-":
			return precAdd
		}
		return precCmp
	case UnOp:
		return precNot
	case InList, ParamIDs:
		return precCmp
	}
	return precPrimary
}

// writeExpr prints e where the grammar admits only forms binding at least
// as tightly as atLeast.
func writeExpr(sb *strings.Builder, e Expr, atLeast int, vals []Value) {
	if exprPrec(e) < atLeast {
		sb.WriteByte('(')
		writeExpr(sb, e, 0, vals)
		sb.WriteByte(')')
		return
	}
	switch v := e.(type) {
	case ColRef:
		if v.Qualifier != "" {
			sb.WriteString(v.Qualifier + ".")
		}
		sb.WriteString(v.Column)
	case Lit:
		writeValue(sb, v.V)
	case Param:
		sb.WriteString("?" + strconv.Itoa(v.Slot))
	case ValParam:
		sb.WriteString("?v" + strconv.Itoa(v.Slot))
		if v.Slot >= 0 && v.Slot < len(vals) {
			sb.WriteString(" [")
			writeValue(sb, vals[v.Slot])
			sb.WriteByte(']')
		}
	case ParamIDs:
		writeExpr(sb, v.E, precAdd, vals)
		sb.WriteString(" IN ?list" + strconv.Itoa(v.Slot))
	case UnOp:
		sb.WriteString("NOT ")
		writeExpr(sb, v.E, precNot, vals)
	case InList:
		writeExpr(sb, v.E, precAdd, vals)
		if v.Negate {
			sb.WriteString(" NOT")
		}
		sb.WriteString(" IN (")
		for i, x := range v.Vals {
			if i > 0 {
				sb.WriteString(", ")
			}
			writeExpr(sb, x, 0, vals)
		}
		sb.WriteByte(')')
	case BinOp:
		// or, and and +/- associate left; comparisons do not chain.
		p := exprPrec(v)
		left, right := p, p+1
		if p == precCmp {
			left, right = precAdd, precAdd
		}
		writeExpr(sb, v.L, left, vals)
		sb.WriteString(" " + strings.ToUpper(v.Op) + " ")
		writeExpr(sb, v.R, right, vals)
	}
}

func writeValue(sb *strings.Builder, v Value) {
	switch {
	case v.K == KindString:
		sb.WriteString("'" + strings.ReplaceAll(v.S, "'", "''") + "'")
	case v.K == KindInt && v.I < 0:
		sb.WriteString("(0 - " + strconv.FormatUint(-uint64(v.I), 10) + ")")
	default:
		sb.WriteString(v.String())
	}
}
