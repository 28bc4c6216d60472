package relational

// Restore is the segment-recovery fast path: a table adopts fully built
// column vectors instead of replaying appendRow per row. The adopted
// slices are trimmed to cap == len, so the first post-restore append
// reallocates privately and the decoded buffers (which a sibling store
// may share) are never mutated. Indexes are not restored: the restore
// declares them (RestoreIndexLazy) and CreateIndex, the same builder a
// loaded table uses, builds them from the adopted columns.

import "fmt"

// RestoredColumn carries one column's restored storage. Exactly one of
// Ints / Strs / (Codes+Dict) is set according to the schema column kind
// and encoding; Nulls, when non-nil, is the packed null bitmap (bit i
// set = row i NULL) and must be private to this table — bitmaps are
// mutated in place by appends and rollbacks, never shared.
type RestoredColumn struct {
	Ints  []int64
	Strs  []string
	Codes []int32
	Dict  []string
	Nulls []uint64
}

// RestoreColumns installs rows prebuilt rows into an empty table,
// adopting the given column vectors. The table must have been created
// with NewTable (and DictEncode where the restored column carries
// codes) and hold no rows.
func (t *Table) RestoreColumns(rows int, cols []RestoredColumn) error {
	if t.rows != 0 {
		return fmt.Errorf("relational: restore into non-empty table %s", t.Name)
	}
	if len(cols) != len(t.Schema) {
		return fmt.Errorf("relational: restore %s: %d columns, schema has %d", t.Name, len(cols), len(t.Schema))
	}
	for i := range cols {
		rc := &cols[i]
		c := &t.cols[i]
		name := t.Schema[i].Name
		switch {
		case c.kind == KindInt:
			if len(rc.Ints) != rows {
				return fmt.Errorf("relational: restore %s.%s: %d ints for %d rows", t.Name, name, len(rc.Ints), rows)
			}
		case c.dict != nil:
			if len(rc.Codes) != rows {
				return fmt.Errorf("relational: restore %s.%s: %d codes for %d rows", t.Name, name, len(rc.Codes), rows)
			}
			for _, code := range rc.Codes {
				if code < 0 || int(code) >= len(rc.Dict) {
					return fmt.Errorf("relational: restore %s.%s: code %d outside dictionary of %d", t.Name, name, code, len(rc.Dict))
				}
			}
		default:
			if len(rc.Strs) != rows {
				return fmt.Errorf("relational: restore %s.%s: %d strings for %d rows", t.Name, name, len(rc.Strs), rows)
			}
		}
		if rc.Nulls != nil && len(rc.Nulls) < (rows+63)/64 {
			return fmt.Errorf("relational: restore %s.%s: null bitmap covers %d rows, need %d", t.Name, name, len(rc.Nulls)*64, rows)
		}
	}
	for i := range cols {
		rc := &cols[i]
		c := &t.cols[i]
		switch {
		case c.kind == KindInt:
			c.ints = rc.Ints[:rows:rows]
			for p := 1; p < rows; p++ {
				if c.ints[p] < c.ints[p-1] {
					c.unsorted = true
					break
				}
			}
		case c.dict != nil:
			c.codes = rc.Codes[:rows:rows]
			c.dict.vals = rc.Dict[:len(rc.Dict):len(rc.Dict)]
			c.dict.code = make(map[string]int32, len(rc.Dict))
			for code, s := range rc.Dict {
				c.dict.code[s] = int32(code)
			}
		default:
			c.strs = rc.Strs[:rows:rows]
		}
		if rc.Nulls != nil {
			c.null = bitmap(rc.Nulls)
		}
	}
	t.rows = rows
	return nil
}
