package relational_test

import (
	"math/rand"
	"strings"
	"testing"

	"threatraptor/internal/relational/sqltext"
)

// intRowsOf collects a QueryInts run's tuples.
type intRowsOf [][]int64

func (r *intRowsOf) Row(row []int64) { *r = append(*r, append([]int64(nil), row...)) }

// TestQueryIntsMatchesQueryCtx holds the int-tuple path to the ResultSet
// path of the same prepared statement on random predicates, plain and
// DISTINCT: the same rows in the same order (a NULL cell reads as 0; the
// DISTINCT leg keeps NULLs out, since the tuples cannot tell NULL from 0),
// and an error exactly when QueryCtx errs.
func TestQueryIntsMatchesQueryCtx(t *testing.T) {
	db := oracleTable(t, "bulk")
	withSmallBatches(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(41))
		for i := 0; i < 150; i++ {
			pred := genWhere(rng.Intn, 3)
			for _, sql := range []string{
				"SELECT id, size FROM t WHERE " + pred,
				"SELECT DISTINCT size FROM t WHERE size >= 0 AND " + pred,
			} {
				stmt, err := sqltext.Parse(sql)
				if err != nil {
					t.Fatal(err)
				}
				pr, err := db.Prepare(stmt)
				if err != nil {
					t.Fatal(err)
				}
				rs, _, werr := pr.QueryCtx(nil, nil)
				var got intRowsOf
				_, err = pr.QueryInts(nil, nil, &got)
				if (err != nil) != (werr != nil) {
					t.Fatalf("QueryInts err %v, QueryCtx err %v\n%s", err, werr, sql)
				}
				if err != nil {
					continue
				}
				if len(got) != len(rs.Rows) {
					t.Fatalf("QueryInts %d rows, QueryCtx %d\n%s", len(got), len(rs.Rows), sql)
				}
				for r, row := range rs.Rows {
					for c, v := range row {
						if got[r][c] != v.I {
							t.Fatalf("row %d col %d: %d vs %v\n%s", r, c, got[r][c], v, sql)
						}
					}
				}
			}
		}
	})
}

// TestQueryIntsRejectsOtherProjections pins QueryInts' contract: a string
// column or more than five columns is an error, not a misread.
func TestQueryIntsRejectsOtherProjections(t *testing.T) {
	db := oracleTable(t, "")
	for _, sql := range []string{
		"SELECT id, name FROM t",
		"SELECT id, id, id, id, id, id FROM t",
	} {
		stmt, err := sqltext.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		pr, err := db.Prepare(stmt)
		if err != nil {
			t.Fatal(err)
		}
		var got intRowsOf
		if _, err := pr.QueryInts(nil, nil, &got); err == nil || !strings.Contains(err.Error(), "QueryInts") {
			t.Errorf("%s: err %v, want a QueryInts error", sql, err)
		}
	}
}
