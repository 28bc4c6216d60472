package tbql

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"threatraptor/internal/relational"
)

// randomQuery generates a structurally valid random TBQL query.
func randomQuery(rng *rand.Rand) *Query {
	nPatterns := 1 + rng.Intn(5)
	q := &Query{}
	ops := []string{"read", "write", "execute", "connect", "send", "receive", "start", "rename"}
	objTypes := []EntityType{EntFile, EntProc, EntIP}

	type entdecl struct {
		id  string
		typ EntityType
	}
	var procs, objs []entdecl

	newProc := func() Entity {
		// Reuse an existing proc sometimes.
		if len(procs) > 0 && rng.Intn(2) == 0 {
			d := procs[rng.Intn(len(procs))]
			return Entity{Type: EntProc, ID: d.id}
		}
		id := fmt.Sprintf("p%d", len(procs)+1)
		procs = append(procs, entdecl{id, EntProc})
		e := Entity{Type: EntProc, ID: id}
		switch rng.Intn(4) {
		case 0, 1:
			e.Filter = bareFilter(randomLiteral(rng, fmt.Sprintf("%%/bin/x%d%%", rng.Intn(9))))
		case 2:
			attr := func(name string) relational.Expr { return attrFilter(name, randomLiteral(rng, name)) }
			e.Filter = nestedAnd(rng.Intn(2) == 0, bareFilter(randomLiteral(rng, "%/bin/y%")), attr("user"), attr("group"))
		}
		return e
	}
	newObj := func(typ EntityType) Entity {
		for _, d := range objs {
			if d.typ == typ && rng.Intn(3) == 0 {
				return Entity{Type: typ, ID: d.id}
			}
		}
		id := fmt.Sprintf("o%d", len(objs)+1)
		objs = append(objs, entdecl{id, typ})
		e := Entity{Type: typ, ID: id}
		if rng.Intn(2) == 0 {
			val := fmt.Sprintf("%%/tmp/f%d%%", rng.Intn(9))
			if typ == EntIP {
				val = fmt.Sprintf("10.0.0.%d", 1+rng.Intn(250))
			}
			e.Filter = bareFilter(randomLiteral(rng, val))
		}
		return e
	}

	for i := 0; i < nPatterns; i++ {
		objType := objTypes[rng.Intn(len(objTypes))]
		var op string
		switch objType {
		case EntIP:
			op = []string{"connect", "send", "receive"}[rng.Intn(3)]
		case EntProc:
			op = []string{"start", "end"}[rng.Intn(2)]
		default:
			op = ops[rng.Intn(4)]
		}
		patt := &Pattern{
			Subject: newProc(),
			Object:  newObj(objType),
			Op:      &OpExpr{Op: op},
			ID:      fmt.Sprintf("evt%d", i+1),
		}
		if rng.Intn(4) == 0 {
			// A compound expression that op still satisfies.
			other := &OpExpr{Op: ops[rng.Intn(len(ops))]}
			switch rng.Intn(4) {
			case 0:
				patt.Op = &OpExpr{Or: [2]*OpExpr{other, patt.Op}}
			case 1:
				patt.Op = &OpExpr{And: [2]*OpExpr{patt.Op, {Not: &OpExpr{Not: patt.Op}}}}
			case 2:
				patt.Op = &OpExpr{Not: &OpExpr{And: [2]*OpExpr{other, {Not: patt.Op}}}}
			default:
				patt.Op = &OpExpr{And: [2]*OpExpr{{Or: [2]*OpExpr{other, patt.Op}}, {Or: [2]*OpExpr{patt.Op, {Or: [2]*OpExpr{other, other}}}}}}
			}
		}
		switch rng.Intn(8) {
		case 0:
			patt.Path = &PathSpec{MinLen: 1, MaxLen: 1}
		case 1:
			lo := 1 + rng.Intn(3)
			patt.Path = &PathSpec{MinLen: lo, MaxLen: []int{-1, lo, lo + 2}[rng.Intn(3)]}
		}
		q.Patterns = append(q.Patterns, patt)
	}
	// Temporal chain over a random prefix of the patterns that bind one
	// event.
	oneEvent := func(p *Pattern) bool { return p.Path == nil || p.Path.MaxLen == 1 }
	for i := 0; i+1 < len(q.Patterns) && oneEvent(q.Patterns[i]) && oneEvent(q.Patterns[i+1]) && rng.Intn(2) == 0; i++ {
		q.Relations = append(q.Relations, Relation{
			Kind: RelBefore,
			A:    q.Patterns[i].ID,
			B:    q.Patterns[i+1].ID,
		})
	}
	q.Return.Distinct = true
	seen := map[string]bool{}
	for _, p := range q.Patterns {
		for _, id := range []string{p.Subject.ID, p.Object.ID} {
			if !seen[id] {
				seen[id] = true
				q.Return.Items = append(q.Return.Items, Attr{EntityID: id})
			}
		}
	}
	return q
}

// randomLiteral draws a string literal around base that may hold the
// bytes Format escapes ('\\', '"') and the LIKE wildcards ('%', '_').
func randomLiteral(rng *rand.Rand, base string) string {
	pieces := []string{`\`, `"`, `%`, `_`, `C:\Windows\`, `\\`, `\"`, `x`}
	var b strings.Builder
	b.WriteString(base)
	for n := rng.Intn(4); n > 0; n-- {
		piece := pieces[rng.Intn(len(pieces))]
		if at := rng.Intn(b.Len() + 1); at < b.Len() {
			s := b.String()
			b.Reset()
			b.WriteString(s[:at] + piece + s[at:])
		} else {
			b.WriteString(piece)
		}
	}
	return b.String()
}

// bareFilter is the parser's bare-value filter for v: LIKE when v holds a
// wildcard, '=' otherwise.
func bareFilter(v string) relational.Expr {
	return valueComparison(relational.ColRef{}, "=", relational.Str(v))
}

// attrFilter is the parser's filter "name = v" on a named attribute.
func attrFilter(name, v string) relational.Expr {
	return valueComparison(relational.ColRef{Column: name}, "=", relational.Str(v))
}

// nestedAnd is "a && (b && c)" when right is set — the parentheses are
// the only thing that tells it from "a && b && c", the other nesting.
func nestedAnd(right bool, a, b, c relational.Expr) relational.Expr {
	if right {
		return relational.BinOp{Op: "and", L: a, R: relational.BinOp{Op: "and", L: b, R: c}}
	}
	return relational.BinOp{Op: "and", L: relational.BinOp{Op: "and", L: a, R: b}, R: c}
}

// checkRoundTrip fails unless Format(q) parses back to a query that
// analyzes exactly as q does (same shape, literal vector and return
// items) and formats to the same text.
func checkRoundTrip(t *testing.T, q *Query) {
	t.Helper()
	text := Format(q)
	q2, err := Parse(text)
	if err != nil {
		t.Fatalf("formatted query must parse: %v\n%s", err, text)
	}
	if len(q2.Patterns) != len(q.Patterns) || len(q2.Relations) != len(q.Relations) {
		t.Fatalf("patterns %d/%d, relations %d/%d after the round trip\n%s",
			len(q2.Patterns), len(q.Patterns), len(q2.Relations), len(q.Relations), text)
	}
	a1, err := Analyze(q)
	if err != nil {
		t.Fatalf("original must analyze: %v\n%s", err, text)
	}
	a2, err := Analyze(q2)
	if err != nil {
		t.Fatalf("reparsed must analyze: %v\n%s", err, text)
	}
	if err := sameAnalysis(a1, a2); err != nil {
		t.Fatalf("%v\n%s", err, text)
	}
	if text2 := Format(q2); text != text2 {
		t.Fatalf("Format is not a fixpoint:\n%s\nvs\n%s", text, text2)
	}
}

// sameAnalysis reports how two analyses of one query differ in what a
// compiled plan is built from: the shape, the literal vector and the
// return items.
func sameAnalysis(a, b *Analyzed) error {
	switch {
	case a.Shape != b.Shape:
		return fmt.Errorf("shapes differ:\n%s\nvs\n%s", a.Shape.Value(), b.Shape.Value())
	case !slices.Equal(a.Lits, b.Lits):
		return fmt.Errorf("literals differ: %q vs %q", a.Lits, b.Lits)
	case !slices.Equal(a.ReturnItems, b.ReturnItems):
		return fmt.Errorf("return items differ: %v vs %v", a.ReturnItems, b.ReturnItems)
	}
	return nil
}

// TestFormatParseRoundTripProperty: Format(q) reparses and re-analyzes to
// the same query for randomly generated queries, whose literals hold
// escapes and wildcards, whose operation expressions nest, and whose
// attribute conjunctions nest to the left or to the right.
func TestFormatParseRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		q := randomQuery(rng)
		t.Run(strconv.Itoa(i), func(t *testing.T) { checkRoundTrip(t, q) })
	}
}

// FuzzFormatParseRoundTrip: a random query with the fuzzed string as one
// entity's literal and as an event filter's value round-trips exactly. The
// entity filter is the bare literal (nest%3 == 0), or the literal compared
// with three attributes in a conjunction nested to the right (1) or to the
// left (2).
func FuzzFormatParseRoundTrip(f *testing.F) {
	for _, lit := range []string{"", `C:\Windows\excel.exe`, `a"b`, `\`, `%x_`, "\x00\xff\n"} {
		f.Add(int64(len(lit)), lit, uint8(0))
	}
	// user = "a" && (user = "a" && group = "a") once formatted without
	// its parentheses, which reparse to a left-nested conjunction.
	f.Add(int64(1), "a", uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, lit string, nest uint8) {
		q := randomQuery(rand.New(rand.NewSource(seed)))
		q.Patterns[0].Subject.Filter = bareFilter(lit)
		if nest%3 != 0 {
			q.Patterns[0].Subject.Filter = nestedAnd(nest%3 == 1, attrFilter("user", lit), attrFilter("user", lit), attrFilter("group", lit))
		}
		q.Patterns[0].IDFilter = relational.BinOp{Op: "and",
			L: relational.BinOp{Op: "=", L: relational.ColRef{Column: "amount"}, R: relational.Lit{V: relational.Int(seed & 0xffffff)}},
			R: valueComparison(relational.ColRef{Column: "optype"}, "<>", relational.Str(lit))}
		checkRoundTrip(t, q)
	})
}

// TestOpExprProperty: De Morgan behaviour of the op-expression evaluator.
func TestOpExprProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	atoms := []string{"read", "write", "execute", "connect"}
	var gen func(depth int) *OpExpr
	gen = func(depth int) *OpExpr {
		if depth == 0 || rng.Intn(3) == 0 {
			return &OpExpr{Op: atoms[rng.Intn(len(atoms))]}
		}
		switch rng.Intn(3) {
		case 0:
			return &OpExpr{Not: gen(depth - 1)}
		case 1:
			return &OpExpr{And: [2]*OpExpr{gen(depth - 1), gen(depth - 1)}}
		default:
			return &OpExpr{Or: [2]*OpExpr{gen(depth - 1), gen(depth - 1)}}
		}
	}
	universe := []string{"read", "write", "execute", "start", "end", "rename", "connect", "send", "receive"}
	for i := 0; i < 500; i++ {
		a, b := gen(3), gen(3)
		notAnd := (&OpExpr{Not: &OpExpr{And: [2]*OpExpr{a, b}}}).Ops()
		orNots := (&OpExpr{Or: [2]*OpExpr{{Not: a}, {Not: b}}}).Ops()
		for _, op := range universe {
			if notAnd[op] != orNots[op] {
				t.Fatalf("De Morgan violated for %q", op)
			}
		}
		// Double negation.
		if got, want := (&OpExpr{Not: &OpExpr{Not: a}}).Ops(), a.Ops(); !sameSet(got, want) {
			t.Fatal("double negation violated")
		}
	}
}

func sameSet(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// TestFormatStableUnderWhitespace: parsing is insensitive to extra spaces.
func TestFormatStableUnderWhitespace(t *testing.T) {
	src := `proc   p1["%/bin/tar%"]   read    file f1["%/etc/passwd%"]  as e1
	   return   distinct   p1 , f1`
	q, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Patterns) != 1 || len(q.Return.Items) != 2 {
		t.Fatalf("structure lost: %+v", q)
	}
	if !strings.Contains(Format(q), `proc p1["%/bin/tar%"] read file f1["%/etc/passwd%"]`) {
		t.Fatalf("format normalizes spacing:\n%s", Format(q))
	}
}
