package graphdb_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	. "threatraptor/internal/graphdb"
	"threatraptor/internal/graphdb/cyphertext"
)

// testQueries collects every string literal in this package's test files
// that begins with prefix (case-insensitive): the corpus the printer
// round-trip test and fuzzer start from (relational keeps the SQL twin).
func testQueries(t testing.TB, prefix string) []string {
	t.Helper()
	files, err := filepath.Glob("*_test.go")
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	fset := token.NewFileSet()
	for _, name := range files {
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if s, err := strconv.Unquote(lit.Value); err == nil &&
					strings.HasPrefix(strings.ToUpper(strings.TrimSpace(s)), prefix) {
					out = append(out, s)
				}
			}
			return true
		})
	}
	return out
}

// checkPrintRoundTrip asserts the printer's contract on one query the
// parser accepted: its text parses back to the same AST, and printing is
// a fixpoint.
func checkPrintRoundTrip(t *testing.T, src string, q *Query) {
	t.Helper()
	text := q.String()
	again, err := cyphertext.Parse(text)
	if err != nil {
		t.Fatalf("printed Cypher does not parse: %v\nsource:  %q\nprinted: %q", err, src, text)
	}
	if !reflect.DeepEqual(q, again) {
		t.Fatalf("printed Cypher parses to a different AST\nsource:  %q\nprinted: %q\n%#v\n%#v", src, text, q, again)
	}
	if text2 := again.String(); text2 != text {
		t.Fatalf("printing is not a fixpoint: %q then %q", text, text2)
	}
}

// TestCypherPrintRoundTrip: every Cypher string in this package's tests
// that parses prints and re-parses to a reflect.DeepEqual AST.
func TestCypherPrintRoundTrip(t *testing.T) {
	parsed := 0
	for _, src := range testQueries(t, "MATCH") {
		q, err := cyphertext.Parse(src)
		if err != nil {
			continue // a deliberately malformed query, or a format string
		}
		parsed++
		checkPrintRoundTrip(t, src, q)
	}
	if parsed < 20 {
		t.Fatalf("only %d test queries parsed; the corpus collector is broken", parsed)
	}
}

// FuzzCypherPrintRoundTrip: any input that parses must print and re-parse
// to the same AST, and neither step may panic.
func FuzzCypherPrintRoundTrip(f *testing.F) {
	for _, src := range testQueries(f, "MATCH") {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		q, err := cyphertext.Parse(src)
		if err != nil {
			return
		}
		checkPrintRoundTrip(t, src, q)
	})
}
