package relational

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
)

// Column describes one table column.
type Column struct {
	Name string
	Kind Kind
}

// Schema is an ordered list of columns.
type Schema []Column

// IndexOf returns the position of the named column, or -1.
func (s Schema) IndexOf(name string) int {
	for i, c := range s {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// col is one column's storage: a dense typed vector plus a null bitmap.
// Only the vector matching the declared kind is populated, so a table of
// n rows with k int columns and m string columns costs exactly
// n*(8k) + n*(16m) bytes of payload, laid out contiguously per column.
// A dictionary-encoded string column stores 4-byte codes instead of
// string headers; the distinct strings live once in the dictionary.
type col struct {
	kind Kind
	ints []int64
	strs []string
	null bitmap
	// dict, when non-nil, dictionary-encodes this string column: codes
	// holds one code per row and strs stays empty. Scans compare codes
	// (ints), projection decodes through dict.vals.
	dict  *dictionary
	codes []int32
	// dvals is set only on snapshot copies of dict-encoded columns: the
	// dict.vals slice header frozen at capture time. Snapshot reads decode
	// and resolve codes through it instead of the live dictionary, whose
	// vals slice and code map the single writer keeps growing.
	dvals []string
	// unsorted records that an int column has received a value smaller
	// than its predecessor. Until then the column is ascending-sorted and
	// range predicates over it (event-ID floors, time windows) can binary
	// search their scan start instead of scanning from row 0. Tracked
	// incrementally on append — one comparison per insert, never a scan.
	unsorted bool
}

// dictionary maps the distinct values of a low-cardinality string column
// to dense int32 codes. Codes are assigned in first-seen order and are not
// ordered like the strings they stand for, so only equality-shaped
// comparisons run on raw codes.
type dictionary struct {
	vals []string
	code map[string]int32
}

func newDictionary() *dictionary {
	return &dictionary{code: make(map[string]int32)}
}

// encode interns s, assigning a fresh code on first sight.
func (d *dictionary) encode(s string) int32 {
	if c, ok := d.code[s]; ok {
		return c
	}
	c := int32(len(d.vals))
	d.vals = append(d.vals, s)
	d.code[s] = c
	return c
}

// Cardinality returns the number of distinct values seen.
func (d *dictionary) Cardinality() int { return len(d.vals) }

// bitmap is a packed null bitmap (bit i set = row i is NULL). Word access
// is atomic: the single writer may set a bit in the word that also covers
// the last rows of a published snapshot, which a concurrent reader is
// scanning. The writer's plain read-modify-write stays safe (there is only
// one writer), but the store and the readers' loads must be atomic so the
// race detector — and weaker memory models — see a well-ordered word.
type bitmap []uint64

func (b bitmap) get(i int) bool {
	return atomic.LoadUint64(&b[i>>6])&(1<<(uint(i)&63)) != 0
}

func (b *bitmap) set(i int) {
	for len(*b) <= i>>6 {
		*b = append(*b, 0)
	}
	atomic.StoreUint64(&(*b)[i>>6], (*b)[i>>6]|1<<(uint(i)&63))
}

func (b *bitmap) grow(n int) {
	words := (n + 63) / 64
	for len(*b) < words {
		*b = append(*b, 0)
	}
}

// clearFrom zeroes every bit at position >= n: a row slot reused by a
// later append must not inherit a stale null bit from a rolled-back row.
func (b bitmap) clearFrom(n int) {
	w := n >> 6
	if w >= len(b) {
		return
	}
	atomic.StoreUint64(&b[w], b[w]&((1<<(uint(n)&63))-1))
	for i := w + 1; i < len(b); i++ {
		atomic.StoreUint64(&b[i], 0)
	}
}

// Table stores rows column-major: each column is a dense typed vector
// ([]int64 or []string) with a null bitmap, and hash indexes are
// kind-specialized (int64 or string keys) so neither inserts nor probes
// allocate a key representation.
type Table struct {
	Name   string
	Schema Schema
	cols   []col
	rows   int
	// indexes[i] is the hash index on column position i, or nil. The slots
	// are atomic because a restored table materializes its declared
	// indexes lazily (see RestoreIndexLazy): the writer installs the built
	// index while planner goroutines probe the same slots, and snapshot
	// copies share this backing array on purpose — a late-built index is
	// visible to earlier snapshots, whose probes trim positions to their
	// captured row count.
	indexes []atomic.Pointer[hashIndex]
	// indexGen is the owning DB's index generation (see DB.IndexGen),
	// which every index build advances; nil for a table outside a DB.
	indexGen *atomic.Uint64
	// lazy holds indexes declared by a restore but not yet built; the
	// writer materializes all of them immediately before its first
	// post-restore append, off the recovery critical path. Until then
	// queries plan (and run) scans over the restored rows.
	lazy []string
	// snapshot marks a captured copy (see snapInto): its column headers
	// are frozen, and index probes route through the shared indexes'
	// RWMutex with results trimmed to the captured row count.
	snapshot bool
}

// hashIndex is a kind-specialized hash index on a single column: int
// columns hash their raw int64, string columns their raw string. NULLs are
// not indexed (SQL equality never matches NULL, and every probe feeds a
// predicate re-check).
type hashIndex struct {
	col  int
	kind Kind
	ints map[int64][]int32
	strs map[string][]int32
	// dense, when non-nil, direct-addresses the position lists for int
	// keys in [1, len(dense)-1] — slot k holds key k's list, and a key in
	// that range is never stored in ints. CreateIndex builds it when the
	// column's keys at build time are dense IDs (entity IDs, and the event
	// columns that reference them); ints is then the overflow for keys
	// appended later outside the range.
	dense [][]int32
	// arena is the spare backing store new position lists are carved from
	// (see appendPos); most keys index a handful of rows, so the carved
	// capacity-4 lists make steady-state index maintenance allocation-free.
	arena []int32
	// mu orders the single writer's map mutations (add/remove) against
	// snapshot readers' probes (lookup, keyLists). The writer's own probes on
	// live tables stay lock-free: they run on the writer goroutine, which
	// cannot race its own mutations. Bulk loads never touch mu at all —
	// NewStore creates the indexes after the batch insert, so appendRow
	// sees nil indexes while loading.
	mu sync.RWMutex
}

func (ix *hashIndex) add(v Value, pos int32) {
	ix.mu.Lock()
	switch {
	case v.K == KindNull:
	case ix.kind == KindInt:
		if ix.inDense(v.I) {
			ix.dense[v.I] = ix.appendPos(ix.dense[v.I], pos)
		} else {
			ix.ints[v.I] = ix.appendPos(ix.ints[v.I], pos)
		}
	default:
		ix.strs[v.S] = ix.appendPos(ix.strs[v.S], pos)
	}
	ix.mu.Unlock()
}

// inDense reports whether an int key is direct-addressed by the dense
// slot array rather than the hash map.
func (ix *hashIndex) inDense(k int64) bool {
	return ix.dense != nil && k >= 1 && k < int64(len(ix.dense))
}

// intPositions returns the position list for an int key from whichever
// store holds it.
func (ix *hashIndex) intPositions(k int64) []int32 {
	if ix.inDense(k) {
		return ix.dense[k]
	}
	return ix.ints[k]
}

// remove pops position pos for value v from the index. Positions are
// appended in row order, so rollback unwinds them strictly from each
// list's tail; a list emptied by the pop has its key deleted.
func (ix *hashIndex) remove(v Value, pos int32) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	switch {
	case v.K == KindNull:
	case ix.kind == KindInt:
		if ix.inDense(v.I) {
			l := ix.dense[v.I]
			if n := len(l); n > 0 && l[n-1] == pos {
				// Keep the truncated header (and its capacity) in the slot;
				// an empty list reads the same as an absent key.
				ix.dense[v.I] = l[:n-1]
			}
			break
		}
		l := ix.ints[v.I]
		if n := len(l); n > 0 && l[n-1] == pos {
			if n == 1 {
				delete(ix.ints, v.I)
			} else {
				ix.ints[v.I] = l[:n-1]
			}
		}
	default:
		l := ix.strs[v.S]
		if n := len(l); n > 0 && l[n-1] == pos {
			if n == 1 {
				delete(ix.strs, v.S)
			} else {
				ix.strs[v.S] = l[:n-1]
			}
		}
	}
}

// appendPos appends to a position list; new lists are carved from the
// index's arena, lists that outgrow their carve fall back to ordinary
// doubling.
func (ix *hashIndex) appendPos(l []int32, pos int32) []int32 {
	if cap(l) == 0 {
		if cap(ix.arena) < 4 {
			ix.arena = make([]int32, 4096)
		}
		l = ix.arena[0:0:4]
		ix.arena = ix.arena[4:]
	}
	return append(l, pos)
}

// NewTable creates an empty table with the given schema.
func NewTable(name string, schema Schema) *Table {
	t := &Table{Name: name, Schema: schema}
	t.cols = make([]col, len(schema))
	for i, c := range schema {
		t.cols[i].kind = c.Kind
	}
	t.indexes = make([]atomic.Pointer[hashIndex], len(schema))
	return t
}

// DictEncode switches the named string column to dictionary encoding.
// It must be called before any rows are inserted: existing plans could
// have compiled raw-string kernels against it. Intended for the
// low-cardinality discriminator columns (entity kind, event op) whose
// full-string comparisons otherwise dominate scan cost.
func (t *Table) DictEncode(column string) error {
	colIdx := t.Schema.IndexOf(column)
	if colIdx < 0 {
		return fmt.Errorf("relational: table %s has no column %s", t.Name, column)
	}
	c := &t.cols[colIdx]
	if c.kind != KindString {
		return fmt.Errorf("relational: column %s.%s is not a string column", t.Name, column)
	}
	if t.rows > 0 {
		return fmt.Errorf("relational: cannot dictionary-encode %s.%s after rows exist", t.Name, column)
	}
	if c.dict != nil {
		return nil
	}
	c.dict = newDictionary()
	return nil
}

// DictEncoded reports whether the named column is dictionary-encoded.
func (t *Table) DictEncoded(column string) bool {
	colIdx := t.Schema.IndexOf(column)
	return colIdx >= 0 && t.cols[colIdx].dict != nil
}

// GrowCap sizes a reallocation: at least need, and at least double the
// current capacity, so a stream of append batches amortizes to O(1)
// copies per element instead of copying the whole store per batch. A cold
// vector (cap 0) gets exactly need, which keeps one-shot batch loads
// tight. It is the shared growth policy for columnar vectors here and the
// graph backend's arenas.
func GrowCap(cur, need int) int {
	if cur*2 > need {
		return cur * 2
	}
	return need
}

// Reserve preallocates column storage for n additional rows.
func (t *Table) Reserve(n int) {
	need := t.rows + n
	for i := range t.cols {
		c := &t.cols[i]
		switch c.kind {
		case KindInt:
			if cap(c.ints) < need {
				grown := make([]int64, len(c.ints), GrowCap(cap(c.ints), need))
				copy(grown, c.ints)
				c.ints = grown
			}
		case KindString:
			if c.dict != nil {
				if cap(c.codes) < need {
					grown := make([]int32, len(c.codes), GrowCap(cap(c.codes), need))
					copy(grown, c.codes)
					c.codes = grown
				}
				break
			}
			if cap(c.strs) < need {
				grown := make([]string, len(c.strs), GrowCap(cap(c.strs), need))
				copy(grown, c.strs)
				c.strs = grown
			}
		}
	}
}

func (t *Table) checkRow(row []Value) error {
	if len(row) != len(t.Schema) {
		return fmt.Errorf("relational: table %s expects %d values, got %d", t.Name, len(t.Schema), len(row))
	}
	for i, v := range row {
		if v.K != KindNull && v.K != t.Schema[i].Kind {
			return fmt.Errorf("relational: table %s column %s expects kind %v, got %v",
				t.Name, t.Schema[i].Name, t.Schema[i].Kind, v.K)
		}
	}
	return nil
}

func (t *Table) appendRow(row []Value) {
	if t.lazy != nil {
		// First post-restore append: build the deferred indexes now, over
		// exactly the restored rows, so incremental maintenance below and
		// on every later append keeps them complete.
		t.materializeLazy()
	}
	pos := int32(t.rows)
	for i, v := range row {
		c := &t.cols[i]
		switch c.kind {
		case KindInt:
			if n := len(c.ints); n > 0 && v.I < c.ints[n-1] {
				c.unsorted = true
			}
			c.ints = append(c.ints, v.I)
		case KindString:
			if c.dict != nil {
				c.codes = append(c.codes, c.dict.encode(v.S))
			} else {
				c.strs = append(c.strs, v.S)
			}
		}
		if v.K == KindNull {
			c.null.set(t.rows)
		}
		// A non-empty bitmap always covers every row, so the vectorized
		// kernels index it without a per-row length guard.
		if len(c.null) > 0 {
			c.null.grow(t.rows + 1)
		}
	}
	t.rows++
	for i := range t.indexes {
		if ix := t.indexes[i].Load(); ix != nil {
			ix.add(row[ix.col], pos)
		}
	}
}

// Insert appends a row after validating arity and kinds (NULLs allowed in
// any column). Indexes are maintained incrementally.
func (t *Table) Insert(row []Value) error {
	if err := t.checkRow(row); err != nil {
		return err
	}
	t.appendRow(row)
	return nil
}

// InsertBatch validates and appends many rows at once, reserving column
// capacity up front. On a validation error nothing is inserted.
func (t *Table) InsertBatch(rows [][]Value) error {
	for _, row := range rows {
		if err := t.checkRow(row); err != nil {
			return err
		}
	}
	t.Reserve(len(rows))
	for _, row := range rows {
		t.appendRow(row)
	}
	return nil
}

// decode resolves a dictionary code to its string: snapshot copies read
// the frozen dvals slice, live columns the dictionary's growing vals.
func (c *col) decode(code int32) string {
	if c.dvals != nil {
		return c.dvals[code]
	}
	return c.dict.vals[code]
}

// dictVals returns the decode slice snapshot reads resolve codes through
// (the frozen dvals on snapshot copies, the live vals otherwise).
func (c *col) dictVals() []string {
	if c.dvals != nil {
		return c.dvals
	}
	return c.dict.vals
}

// cell materializes the value at (row, col). Value is a small struct, so
// this performs no heap allocation.
func (t *Table) cell(row, col int) Value {
	c := &t.cols[col]
	if len(c.null) > row>>6 && c.null.get(row) {
		return Null()
	}
	switch c.kind {
	case KindInt:
		return Value{K: KindInt, I: c.ints[row]}
	case KindString:
		if c.dict != nil {
			return Value{K: KindString, S: c.decode(c.codes[row])}
		}
		return Value{K: KindString, S: c.strs[row]}
	}
	return Null()
}

// Row materializes row i as a []Value (for debugging and generic callers;
// the executor reads columns directly).
func (t *Table) Row(i int) []Value {
	row := make([]Value, len(t.cols))
	for c := range t.cols {
		row[c] = t.cell(i, c)
	}
	return row
}

// CreateIndex builds (or rebuilds) a hash index on the named column. The
// paper creates indexes on key attributes (file name, process executable
// name, source/destination IP) to speed up the search.
//
// It is the one index builder: bulk loads, recovery's deferred builds and
// an index declared on an empty table all come here. It counting-sorts
// the column's non-NULL row positions into one arena (see carve), and
// the column's own data picks the addressing. An int column whose keys
// all lie in [1, K], with K at most 2·rows+1 (dense IDs), direct-addresses
// key k at dense slot k; any other int column, and a plain string column,
// keys a map sized by its distinct-key count; a dictionary-encoded column
// counts per code and keys a map sized by its dictionary.
func (t *Table) CreateIndex(column string) error {
	col := t.Schema.IndexOf(column)
	if col < 0 {
		return fmt.Errorf("relational: table %s has no column %s", t.Name, column)
	}
	c := &t.cols[col]
	null := func(pos int) bool { return len(c.null) > pos>>6 && c.null.get(pos) }
	ix := &hashIndex{col: col, kind: c.kind}
	slots := make([]int32, t.rows)
	switch {
	case c.kind == KindInt:
		hi, dense := int64(0), true
		for pos, v := range c.ints {
			if !null(pos) {
				hi = max(hi, v)
				dense = dense && v >= 1 && v <= 2*int64(t.rows)+1
			}
		}
		if !dense || hi == 0 { // hi == 0: no key to address
			ix.ints = keyedLists(slots, func(pos int) (int64, bool) { return c.ints[pos], !null(pos) })
			break
		}
		for pos, v := range c.ints {
			slots[pos] = int32(v)
			if null(pos) {
				slots[pos] = -1
			}
		}
		ix.dense = carve(slots, int(hi)+1)
		ix.ints = make(map[int64][]int32) // overflow: keys appended past hi
	case c.dict != nil:
		for pos, code := range c.codes {
			slots[pos] = code
			if null(pos) {
				slots[pos] = -1
			}
		}
		ix.strs = make(map[string][]int32, len(c.dict.vals))
		for code, l := range carve(slots, len(c.dict.vals)) {
			if l != nil {
				ix.strs[c.dict.vals[code]] = l
			}
		}
	default:
		ix.strs = keyedLists(slots, func(pos int) (string, bool) { return c.strs[pos], !null(pos) })
	}
	t.indexes[col].Store(ix)
	if t.indexGen != nil {
		t.indexGen.Add(1)
	}
	t.dropLazy(column)
	return nil
}

// keyedLists counting-sorts row positions by key for a hashed index.
// key(pos) returns row pos's key, ok false for a NULL (not indexed);
// slots is scratch of one entry per row. Keys take slots in first-seen
// order, so the returned map is sized by the distinct-key count.
func keyedLists[K comparable](slots []int32, key func(pos int) (K, bool)) map[K][]int32 {
	slotOf := make(map[K]int32)
	var keys []K
	for pos := range slots {
		k, ok := key(pos)
		if !ok {
			slots[pos] = -1
			continue
		}
		s, seen := slotOf[k]
		if !seen {
			s = int32(len(keys))
			slotOf[k] = s
			keys = append(keys, k)
		}
		slots[pos] = s
	}
	m := make(map[K][]int32, len(keys))
	for s, l := range carve(slots, len(keys)) {
		m[keys[s]] = l
	}
	return m
}

// carve is the counting sort behind every index build: slots[pos] is row
// pos's key slot in [0, n), or -1 for a row the index skips. It returns
// each slot's positions in ascending row order (nil for an empty slot),
// every list carved from one arena with cap == len, so a later append to
// a list reallocates privately instead of running into its neighbor.
func carve(slots []int32, n int) [][]int32 {
	counts := make([]int32, n)
	total := 0
	for _, s := range slots {
		if s >= 0 {
			counts[s]++
			total++
		}
	}
	arena := make([]int32, total)
	lists := make([][]int32, n)
	var off int32
	for s, k := range counts {
		if k > 0 {
			lists[s] = arena[off : off : off+k]
			off += k
		}
	}
	for pos, s := range slots {
		if s >= 0 {
			lists[s] = append(lists[s], int32(pos))
		}
	}
	return lists
}

// RestoreIndexLazy declares an index on the named column without
// building it. The build is deferred to the writer's first post-restore
// append (or an explicit CreateIndex), keeping index construction — the
// most expensive part of reopening a segment-backed store — off the
// recovery critical path; until then queries scan the restored rows.
func (t *Table) RestoreIndexLazy(column string) error {
	if t.Schema.IndexOf(column) < 0 {
		return fmt.Errorf("relational: table %s has no column %s", t.Name, column)
	}
	t.lazy = append(t.lazy, column)
	return nil
}

// materializeLazy builds every pending lazy index. Writer-side only.
func (t *Table) materializeLazy() {
	pending := t.lazy
	t.lazy = nil
	for _, column := range pending {
		// Column names were validated at declaration, so the build cannot
		// fail.
		t.CreateIndex(column)
	}
}

// dropLazy removes any pending lazy declaration for column (it has just
// been built eagerly).
func (t *Table) dropLazy(column string) {
	t.lazy = slices.DeleteFunc(t.lazy, func(c string) bool { return c == column })
}

// ascLowerBound returns the first row position whose value in the int
// column at position col is >= k, when the column is ascending-sorted
// (no NULLs, never a decreasing append); ok is false otherwise.
// Sortedness is tracked incrementally on append, so the check is O(1) and
// the search O(log n).
func (t *Table) ascLowerBound(col int, k int64) (int32, bool) {
	c := &t.cols[col]
	if c.kind != KindInt || c.unsorted || len(c.null) > 0 {
		return 0, false
	}
	return int32(LowerBoundInt64(c.ints, k)), true
}

// LowerBoundInt64 is sort.Search specialized to "first element >= k"
// over an ascending []int64 (no interface indirection on the hot path).
// It is the one sorted-ID search shared by the scan floors and parameter
// membership here, the engine's view reads, and the graph backend's
// anchor intersection; ContainsSortedInt64 is the membership form.
func LowerBoundInt64(a []int64, k int64) int {
	lo, hi := 0, len(a)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if a[mid] < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// ContainsSortedInt64 binary-searches a sorted unique []int64 for k.
func ContainsSortedInt64(a []int64, k int64) bool {
	i := LowerBoundInt64(a, k)
	return i < len(a) && a[i] == k
}

// IndexLists returns the hash index on column as every non-empty key's
// position list, and how many key slots it direct-addresses (0 when every
// key hashes); ok is false when the column has no index. Pending lazy
// indexes are built first, so it is writer-side only. It lets tests
// compare the indexes of tables built different ways.
func (t *Table) IndexLists(column string) (lists map[Value][]int32, dense int, ok bool) {
	if t.lazy != nil {
		t.materializeLazy()
	}
	col := t.Schema.IndexOf(column)
	if col < 0 || t.indexes[col].Load() == nil {
		return nil, 0, false
	}
	ix := t.indexes[col].Load()
	lists = make(map[Value][]int32)
	for k, l := range ix.dense {
		if len(l) > 0 {
			lists[Int(int64(k))] = l
		}
	}
	for k, l := range ix.ints {
		lists[Int(k)] = l
	}
	for k, l := range ix.strs {
		lists[Str(k)] = l
	}
	return lists, len(ix.dense), true
}

// lookup returns the positions of rows whose column equals v, probing the
// kind-specialized index without allocating. ok is false when the column
// is not indexed. Probes whose value kind cannot equal the column kind
// return no rows (matching strict index-probe semantics). On a snapshot
// copy the probe runs under the index's read lock and is trimmed to the
// snapshot's row count.
func (t *Table) lookup(col int, v Value) (positions []int32, ok bool) {
	ix := t.indexes[col].Load()
	if ix == nil {
		return nil, false
	}
	if !t.snapshot {
		return ix.positions(v), true
	}
	ix.mu.RLock()
	positions = below(ix.positions(v), int32(t.rows))
	ix.mu.RUnlock()
	return positions, true
}

// positions returns key v's position list (nil when no row holds it, or v
// has another kind than the index).
func (ix *hashIndex) positions(v Value) []int32 {
	switch {
	case v.K != ix.kind:
		return nil
	case ix.kind == KindInt:
		return ix.intPositions(v.I)
	}
	return ix.strs[v.S]
}

// below trims an ascending position list to its positions < rows: a
// snapshot's view of a list read under the index's read lock. The lists
// are append-only in row order (rollback pops only positions at or above
// its mark, which is never below a published snapshot's row count), so
// the returned prefix is immutable and safe to use after the lock is
// released.
func below(pos []int32, rows int32) []int32 {
	lo, hi := 0, len(pos)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if pos[mid] < rows {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return pos[:lo]
}

// keyLists appends to dst the non-empty position list of every key a
// key-set access selects under execution st's bound constants: its IN
// list's keys, or each distinct index key its LIKE pattern matches (only
// the pattern itself when it has no wildcard). It returns dst and the
// lists' total length.
// The access was planned on a built index, and an index is never
// dropped. A snapshot copy reads the index under its read lock and trims
// each list as lookup does. NULLs are not indexed, and neither IN nor
// LIKE matches NULL, so the lists hold every row the access can select.
func (t *Table) keyLists(ia *indexAccess, st *execState, dst [][]int32) ([][]int32, int) {
	ix := t.indexes[ia.col].Load()
	if t.snapshot {
		ix.mu.RLock()
		defer ix.mu.RUnlock()
	}
	total := 0
	keep := func(l []int32) {
		if t.snapshot {
			l = below(l, int32(t.rows)) // a key added after the capture trims to nothing
		}
		if len(l) > 0 {
			dst = append(dst, l)
			total += len(l)
		}
	}
	if ia.in != nil {
		set := &st.ins[ia.in.idx]
		for _, k := range set.ints {
			keep(ix.positions(Int(k)))
		}
		for _, k := range set.strs {
			keep(ix.positions(Str(k)))
		}
		return dst, total
	}
	m := &st.likes[ia.like.idx]
	if m.shape == likeExact {
		keep(ix.positions(Str(m.part)))
		return dst, total
	}
	for k, l := range ix.strs {
		if m.match(k) {
			keep(l)
		}
	}
	return dst, total
}

// Len returns the row count.
func (t *Table) Len() int { return t.rows }

// TruncateRows discards every row at position >= n, restoring the table to
// exactly n rows: index position lists pop the dropped rows from their
// tails, column vectors are cut back (dropped string headers are zeroed so
// the backing arrays stop pinning them), and null bits past the cut are
// cleared. It is the rollback half of the store's crash-consistent append;
// callers must not retain result sets referencing the dropped rows. The
// sorted-append shortcut flag is left as-is (conservative: a rollback may
// keep a column marked unsorted that became sorted again, costing only the
// binary-search fast path, never correctness).
func (t *Table) TruncateRows(n int) {
	if n < 0 {
		n = 0
	}
	if n >= t.rows {
		return
	}
	// Unwind the indexes first, while cell() still sees the dropped rows.
	// Pending lazy indexes need no unwinding: they build later from the
	// truncated columns.
	for i := range t.indexes {
		ix := t.indexes[i].Load()
		if ix == nil {
			continue
		}
		for pos := t.rows - 1; pos >= n; pos-- {
			ix.remove(t.cell(pos, ix.col), int32(pos))
		}
	}
	for i := range t.cols {
		c := &t.cols[i]
		switch c.kind {
		case KindInt:
			c.ints = c.ints[:n]
		case KindString:
			if c.dict != nil {
				// Strings interned by rolled-back rows stay in the
				// dictionary: harmless (nothing references their codes).
				c.codes = c.codes[:n]
				break
			}
			for r := n; r < len(c.strs); r++ {
				c.strs[r] = ""
			}
			c.strs = c.strs[:n]
		}
		c.null.clearFrom(n)
	}
	t.rows = n
}

// ResultSet is the output of a query: column labels plus rows.
type ResultSet struct {
	Columns []string
	Rows    [][]Value
}

// Len returns the number of result rows.
func (r *ResultSet) Len() int { return len(r.Rows) }

// Strings renders every row as a []string, for display and tests.
func (r *ResultSet) Strings() [][]string {
	out := make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		s := make([]string, len(row))
		for j, v := range row {
			s[j] = v.String()
		}
		out[i] = s
	}
	return out
}
