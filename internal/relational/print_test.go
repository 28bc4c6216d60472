package relational_test

import (
	"go/ast"
	"go/parser"
	gotoken "go/token"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	. "threatraptor/internal/relational"
	"threatraptor/internal/relational/sqltext"
)

// testQueries collects every string literal in this package's test files
// that begins with prefix (case-insensitive): the corpus the printer
// round-trip test and fuzzer start from. The graphdb package keeps a copy
// for its MATCH queries.
func testQueries(t testing.TB, prefix string) []string {
	t.Helper()
	files, err := filepath.Glob("*_test.go")
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	fset := gotoken.NewFileSet()
	for _, name := range files {
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == gotoken.STRING {
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

// checkPrintRoundTrip asserts the printer's contract on one statement the
// parser accepted: its text parses back to the same AST, and printing is
// a fixpoint.
func checkPrintRoundTrip(t *testing.T, src string, stmt *SelectStmt) {
	t.Helper()
	text := stmt.String()
	again, err := sqltext.Parse(text)
	if err != nil {
		t.Fatalf("printed SQL does not parse: %v\nsource:  %q\nprinted: %q", err, src, text)
	}
	if !reflect.DeepEqual(stmt, again) {
		t.Fatalf("printed SQL parses to a different AST\nsource:  %q\nprinted: %q\n%#v\n%#v", src, text, stmt, again)
	}
	if text2 := again.String(); text2 != text {
		t.Fatalf("printing is not a fixpoint: %q then %q", text, text2)
	}
}

// TestSQLPrintRoundTrip: every SQL string in this package's tests that
// parses prints and re-parses to a reflect.DeepEqual AST.
func TestSQLPrintRoundTrip(t *testing.T) {
	parsed := 0
	for _, src := range testQueries(t, "SELECT") {
		stmt, err := sqltext.Parse(src)
		if err != nil {
			continue // a deliberately malformed query, or a format string
		}
		parsed++
		checkPrintRoundTrip(t, src, stmt)
	}
	if parsed < 50 {
		t.Fatalf("only %d test queries parsed; the corpus collector is broken", parsed)
	}
}

// TestPrintParamsAndNegatives pins the forms no statement text parses to:
// parameter placeholders, and negative literals printed as arithmetic.
func TestPrintParamsAndNegatives(t *testing.T) {
	e := BinOp{Op: "and",
		L: BinOp{Op: ">=", L: ColRef{Qualifier: "e", Column: "id"}, R: Param{Slot: 2, Prune: true}},
		R: BinOp{Op: "and",
			L: ParamIDs{E: ColRef{Qualifier: "s", Column: "id"}, Slot: 0, Optional: true},
			R: BinOp{Op: ">", L: ColRef{Column: "t"}, R: Lit{V: Int(-5)}}},
	}
	if got, want := ExprString(e), "e.id >= ?2 AND (s.id IN ?list0 AND t > (0 - 5))"; got != want {
		t.Fatalf("ExprString = %q, want %q", got, want)
	}
}

// FuzzSQLPrintRoundTrip: any input that parses must print and re-parse to
// the same AST, and neither step may panic.
func FuzzSQLPrintRoundTrip(f *testing.F) {
	for _, src := range testQueries(f, "SELECT") {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		stmt, err := sqltext.Parse(src)
		if err != nil {
			return
		}
		checkPrintRoundTrip(t, src, stmt)
	})
}
