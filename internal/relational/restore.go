package relational

// Restore is the segment-recovery fast path: a table adopts fully built
// column vectors instead of replaying appendRow per row, and indexes are
// rebuilt with counting sort over one shared arena instead of per-key
// append growth. The adopted slices are trimmed to cap == len, so the
// first post-restore append reallocates privately and the decoded
// buffers (which a sibling store may share) are never mutated.

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

// RestoreIndexInt builds the hash index on an int column whose non-null
// values all lie in [1, maxKey] (dense IDs) with a two-pass counting
// sort: per-key position lists are carved from one arena, so the build
// does one large allocation instead of one per distinct key. Falls back
// to CreateIndex when the column has NULLs or out-of-range values.
func (t *Table) RestoreIndexInt(column string, maxKey int64) error {
	colIdx := t.Schema.IndexOf(column)
	if colIdx < 0 {
		return fmt.Errorf("relational: table %s has no column %s", t.Name, column)
	}
	c := &t.cols[colIdx]
	if c.kind != KindInt {
		return fmt.Errorf("relational: column %s.%s is not an int column", t.Name, column)
	}
	if len(c.null) > 0 || maxKey < 1 {
		return t.CreateIndex(column)
	}
	for _, v := range c.ints {
		if v < 1 || v > maxKey {
			return t.CreateIndex(column)
		}
	}
	counts := make([]int32, maxKey+1)
	for _, v := range c.ints {
		counts[v]++
	}
	arena := make([]int32, len(c.ints))
	dense := make([][]int32, maxKey+1)
	// Carve each key's slot (cap == final length, so later appends grow
	// privately) and fill positions in ascending row order — two array
	// passes, no hashing at all. Keys appended after the restore that
	// exceed maxKey overflow into the (empty) hash map.
	starts := make([]int32, maxKey+1)
	var off int32
	for k := int64(1); k <= maxKey; k++ {
		starts[k] = off
		if n := counts[k]; n > 0 {
			dense[k] = arena[off : off : off+n]
			off += n
		}
	}
	for pos, v := range c.ints {
		l := dense[v]
		dense[v] = l[:len(l)+1]
		arena[starts[v]] = int32(pos)
		starts[v]++
	}
	t.indexes[colIdx].Store(&hashIndex{col: colIdx, kind: KindInt, ints: make(map[int64][]int32), dense: dense})
	t.dropLazy(column)
	return nil
}

// RestoreIndexDict builds the hash index on a NULL-free
// dictionary-encoded column by counting per code, sharing one arena
// across the per-value lists. Falls back to CreateIndex when the column
// has NULLs or is not dictionary-encoded.
func (t *Table) RestoreIndexDict(column string) error {
	colIdx := t.Schema.IndexOf(column)
	if colIdx < 0 {
		return fmt.Errorf("relational: table %s has no column %s", t.Name, column)
	}
	c := &t.cols[colIdx]
	if c.dict == nil || len(c.null) > 0 {
		return t.CreateIndex(column)
	}
	nCodes := len(c.dict.vals)
	counts := make([]int32, nCodes)
	for _, code := range c.codes {
		counts[code]++
	}
	arena := make([]int32, len(c.codes))
	ix := &hashIndex{col: colIdx, kind: KindString, strs: make(map[string][]int32, nCodes)}
	starts := make([]int32, nCodes)
	lists := make([][]int32, nCodes)
	var off int32
	for code := 0; code < nCodes; code++ {
		starts[code] = off
		if n := counts[code]; n > 0 {
			lists[code] = arena[off : off : off+n]
			off += n
		}
	}
	for pos, code := range c.codes {
		lists[code] = lists[code][:len(lists[code])+1]
		arena[starts[code]] = int32(pos)
		starts[code]++
	}
	for code, l := range lists {
		if len(l) > 0 {
			ix.strs[c.dict.vals[code]] = l
		}
	}
	t.indexes[colIdx].Store(ix)
	t.dropLazy(column)
	return nil
}
