package tbql

import (
	"strconv"
	"strings"
	"time"

	"threatraptor/internal/relational"
)

// Format renders a query back to concise TBQL text, one pattern per line.
// It is the inverse of Parse up to whitespace and sugar expansion, and is
// used by query synthesis, the engine's compiled-query cache key for a
// synthesized query, and the conciseness evaluation (Table X).
func Format(q *Query) string {
	var b strings.Builder
	b.Grow(96 * (len(q.Patterns) + 1))
	if q.GlobalWindow != nil {
		formatWindow(&b, q.GlobalWindow)
		b.WriteByte('\n')
	}
	for _, f := range q.GlobalFilters {
		formatExpr(&b, f)
		b.WriteByte('\n')
	}
	for _, p := range q.Patterns {
		formatPattern(&b, p)
		b.WriteByte('\n')
	}
	if len(q.Relations) > 0 {
		b.WriteString("with ")
		for i, r := range q.Relations {
			if i > 0 {
				b.WriteString(", ")
			}
			formatRelation(&b, r)
		}
		b.WriteByte('\n')
	}
	b.WriteString("return ")
	if q.Return.Distinct {
		b.WriteString("distinct ")
	}
	for i, item := range q.Return.Items {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(item.EntityID)
		if item.Attr != "" {
			b.WriteByte('.')
			b.WriteString(item.Attr)
		}
	}
	return b.String()
}

func formatPattern(b *strings.Builder, p *Pattern) {
	formatEntity(b, p.Subject)
	b.WriteByte(' ')
	if p.Path != nil {
		formatPath(b, p)
	} else {
		formatOpExpr(b, p.Op)
	}
	b.WriteByte(' ')
	formatEntity(b, p.Object)
	if p.ID != "" && !strings.HasPrefix(p.ID, "_evt") {
		b.WriteString(" as ")
		b.WriteString(p.ID)
		if p.IDFilter != nil {
			b.WriteByte('[')
			formatExpr(b, p.IDFilter)
			b.WriteByte(']')
		}
	}
	if p.Window != nil {
		b.WriteByte(' ')
		formatWindow(b, p.Window)
	}
}

func formatEntity(b *strings.Builder, e Entity) {
	b.WriteString(string(e.Type))
	b.WriteByte(' ')
	b.WriteString(e.ID)
	if e.Filter != nil {
		b.WriteByte('[')
		formatExpr(b, e.Filter)
		b.WriteByte(']')
	}
}

func formatPath(b *strings.Builder, p *Pattern) {
	spec := p.Path
	if spec.MinLen == 1 && spec.MaxLen == 1 {
		b.WriteString("->")
	} else {
		b.WriteString("~>")
		switch {
		case spec.MinLen == 1 && spec.MaxLen == -1:
			// default bounds: no annotation
		case spec.MinLen == spec.MaxLen:
			b.WriteByte('(')
			writeInt(b, int64(spec.MinLen))
			b.WriteByte(')')
		case spec.MaxLen == -1:
			b.WriteByte('(')
			writeInt(b, int64(spec.MinLen))
			b.WriteString("~)")
		case spec.MinLen == 1:
			b.WriteString("(~")
			writeInt(b, int64(spec.MaxLen))
			b.WriteByte(')')
		default:
			b.WriteByte('(')
			writeInt(b, int64(spec.MinLen))
			b.WriteByte('~')
			writeInt(b, int64(spec.MaxLen))
			b.WriteByte(')')
		}
	}
	if p.Op != nil {
		b.WriteByte('[')
		formatOpExpr(b, p.Op)
		b.WriteByte(']')
	}
}

// formatOpExpr writes an operation expression, parenthesizing an operand
// wherever Parse's precedence (|| below && below !) and left
// associativity would otherwise read back a different tree.
func formatOpExpr(b *strings.Builder, o *OpExpr) {
	switch {
	case o == nil:
	case o.Op != "":
		b.WriteString(o.Op)
	case o.Not != nil:
		b.WriteByte('!')
		formatOpOperand(b, o.Not, o.Not.binary())
	case o.And[0] != nil:
		formatOpOperand(b, o.And[0], o.And[0].Or[0] != nil)
		b.WriteString(" && ")
		formatOpOperand(b, o.And[1], o.And[1].binary())
	case o.Or[0] != nil:
		formatOpExpr(b, o.Or[0])
		b.WriteString(" || ")
		formatOpOperand(b, o.Or[1], o.Or[1].Or[0] != nil)
	}
}

func formatOpOperand(b *strings.Builder, o *OpExpr, paren bool) {
	if !paren {
		formatOpExpr(b, o)
		return
	}
	b.WriteByte('(')
	formatOpExpr(b, o)
	b.WriteByte(')')
}

func formatWindow(b *strings.Builder, w *Window) {
	const layout = "2006-01-02 15:04:05"
	switch w.Kind {
	case WindRange:
		b.WriteString("from ")
		b.WriteString(strconv.Quote(w.From.Format(layout)))
		b.WriteString(" to ")
		b.WriteString(strconv.Quote(w.To.Format(layout)))
	case WindAt:
		b.WriteString("at ")
		b.WriteString(strconv.Quote(w.From.Format(layout)))
	case WindBefore:
		b.WriteString("before ")
		b.WriteString(strconv.Quote(w.To.Format(layout)))
	case WindAfter:
		b.WriteString("after ")
		b.WriteString(strconv.Quote(w.From.Format(layout)))
	case WindLast:
		b.WriteString("last ")
		formatDuration(b, w.Dur)
	}
}

func formatDuration(b *strings.Builder, d time.Duration) {
	switch {
	case d%(24*time.Hour) == 0:
		writeInt(b, int64(d/(24*time.Hour)))
		b.WriteString(" day")
	case d%time.Hour == 0:
		writeInt(b, int64(d/time.Hour))
		b.WriteString(" hour")
	case d%time.Minute == 0:
		writeInt(b, int64(d/time.Minute))
		b.WriteString(" min")
	default:
		writeInt(b, int64(d/time.Second))
		b.WriteString(" sec")
	}
}

func formatRelation(b *strings.Builder, r Relation) {
	var kw string
	switch r.Kind {
	case RelAttr:
		formatExpr(b, r.Attr)
		return
	case RelBefore:
		kw = " before"
	case RelAfter:
		kw = " after"
	case RelWithin:
		kw = " within"
	default:
		return
	}
	b.WriteString(r.A)
	b.WriteString(kw)
	if r.HasDur {
		b.WriteByte('[')
		writeInt(b, int64(r.LoDur/time.Second))
		b.WriteByte('-')
		writeInt(b, int64(r.HiDur/time.Second))
		b.WriteString(" sec]")
	}
	b.WriteByte(' ')
	b.WriteString(r.B)
}

// formatExpr writes a relational expression in TBQL surface syntax.
func formatExpr(b *strings.Builder, e relational.Expr) {
	switch v := e.(type) {
	case relational.ColRef:
		if v.Qualifier != "" {
			b.WriteString(v.Qualifier)
			b.WriteByte('.')
		}
		b.WriteString(v.Column)
	case relational.Lit:
		formatValue(b, v.V)
	case relational.UnOp:
		if bin, ok := v.E.(relational.BinOp); ok && bin.Op == "like" {
			formatExpr(b, bin.L)
			b.WriteString(" != ")
			formatExpr(b, bin.R)
			return
		}
		b.WriteString("!(")
		formatExpr(b, v.E)
		b.WriteByte(')')
	case relational.InList:
		formatExpr(b, v.E)
		if v.Negate {
			b.WriteString(" not")
		}
		b.WriteString(" in (")
		for i, ve := range v.Vals {
			if i > 0 {
				b.WriteString(", ")
			}
			formatExpr(b, ve)
		}
		b.WriteByte(')')
	case relational.BinOp:
		op := v.Op
		switch op {
		case "and":
			// && groups to the left, so a right operand that is itself a
			// conjunction keeps its parentheses.
			formatExpr(b, v.L)
			b.WriteString(" && ")
			if r, ok := v.R.(relational.BinOp); ok && r.Op == "and" {
				b.WriteByte('(')
				formatExpr(b, v.R)
				b.WriteByte(')')
			} else {
				formatExpr(b, v.R)
			}
			return
		case "or":
			b.WriteByte('(')
			formatExpr(b, v.L)
			b.WriteString(" || ")
			formatExpr(b, v.R)
			b.WriteByte(')')
			return
		case "like":
			op = "="
		}
		// A bare-value filter ("= value" on the empty column) prints as
		// just the value, keeping the synthesized queries as concise as
		// the paper's examples; the column-less form does not parse.
		if c, ok := v.L.(relational.ColRef); ok && c == (relational.ColRef{}) && op == "=" {
			if lit, ok := v.R.(relational.Lit); ok {
				formatValue(b, lit.V)
				return
			}
		}
		formatExpr(b, v.L)
		b.WriteByte(' ')
		b.WriteString(op)
		b.WriteByte(' ')
		formatExpr(b, v.R)
	}
}

// formatValue writes a value literal. A string is double-quoted with '\'
// and '"' each behind a backslash, the two escapes the lexer reads back.
func formatValue(b *strings.Builder, v relational.Value) {
	switch v.K {
	case relational.KindString:
		b.WriteByte('"')
		s := v.S
		for i := strings.IndexAny(s, `\"`); i >= 0; i = strings.IndexAny(s, `\"`) {
			b.WriteString(s[:i])
			b.WriteByte('\\')
			b.WriteByte(s[i])
			s = s[i+1:]
		}
		b.WriteString(s)
		b.WriteByte('"')
	case relational.KindInt:
		writeInt(b, v.I)
	default:
		b.WriteString(v.String())
	}
}

// writeInt writes n in decimal.
func writeInt(b *strings.Builder, n int64) {
	var buf [20]byte
	b.Write(strconv.AppendInt(buf[:0], n, 10))
}
