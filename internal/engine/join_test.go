package engine

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"threatraptor/internal/relational"
	"threatraptor/internal/synth"
	"threatraptor/internal/tbql"
)

// The reference join below (with temporalHolds) is the engine's previous
// cross-pattern join, kept verbatim as the oracle the join walk is held to: a hash join for
// two patterns sharing an entity, otherwise a backtracking walk in
// ascending row-count order over map bindings with undo closures, every
// relation checked at the leaf.

// referenceJoin combines per-pattern rows into complete bindings, enforcing
// shared entity identity, temporal relationships, attribute relationships,
// and global filters, then projects the return clause (cols labels the
// projection). The 2-pattern case hash-joins on the shared entity
// variables; larger conjunctions use the backtracking walk. Entity
// attributes resolve through attrOf — the pinned snapshot's resolver, since
// concurrent executions must not probe the live intern maps, which the
// writer mutates. results holds one entry per query pattern, indexed by
// pattern.
func referenceJoin(ctx context.Context, a *tbql.Analyzed, cols []string, attrOf func(id int64, attr string) relational.Value, results []PatternRows) (*Result, int, error) {
	q := a.Query
	rs := &relational.ResultSet{Columns: cols}
	matched := make(map[int64]bool)
	joined := 0

	// Amortized cancellation checkpoint for the join loops: the outer rows
	// of the backtracking walk and the hash-join probe loop poll every 256
	// iterations (a nil context makes it a nil compare).
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	var tick uint32
	checkCancel := func() error {
		if done == nil {
			return nil
		}
		if tick++; tick&255 != 1 {
			return nil
		}
		select {
		case <-done:
			return ctx.Err()
		default:
			return nil
		}
	}

	// Join in ascending row-count order to keep intermediates small.
	order := make([]int, len(results))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(x, y int) bool {
		return len(results[order[x]].Rows) < len(results[order[y]].Rows)
	})

	entityBind := make(map[string]int64)
	pattTimes := make(map[string][2]int64) // pattern ID -> start,end
	pattEvent := make(map[string]int64)    // pattern ID -> event row ID

	var resolveAttr func(c relational.ColRef) (relational.Value, error)
	resolveAttr = func(c relational.ColRef) (relational.Value, error) {
		id, ok := entityBind[c.Qualifier]
		if !ok {
			return relational.Null(), fmt.Errorf("engine: unbound entity %s", c.Qualifier)
		}
		return attrOf(id, c.Column), nil
	}

	checkRelations := func() (bool, error) {
		for _, rel := range q.Relations {
			switch rel.Kind {
			case tbql.RelAttr:
				v, err := relational.EvalExpr(rel.Attr, resolveAttr)
				if err != nil {
					return false, err
				}
				if !v.Truthy() {
					return false, nil
				}
			default:
				ta, okA := pattTimes[rel.A]
				tb, okB := pattTimes[rel.B]
				if !okA || !okB {
					return false, fmt.Errorf("engine: temporal relation on pattern without event times")
				}
				if !temporalHolds(rel, ta[0], tb[0]) {
					return false, nil
				}
			}
		}
		return true, nil
	}

	// emit runs on every complete binding: relation checks, event
	// collection, and return projection. Shared by the hash join and the
	// backtracking walk.
	emit := func() error {
		ok, err := checkRelations()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		joined++
		for _, ev := range pattEvent {
			matched[ev] = true
		}
		row := make([]relational.Value, len(a.ReturnItems))
		for i, item := range a.ReturnItems {
			row[i] = attrOf(entityBind[item.EntityID], item.Attr)
		}
		rs.Rows = append(rs.Rows, row)
		return nil
	}

	// bindRow binds one pattern's row, returning false when it conflicts
	// with existing bindings, plus an undo closure.
	bindRow := func(pr PatternRows, r [5]int64) (bool, func()) {
		p := q.Patterns[pr.Idx]
		sPrev, sBound := entityBind[p.Subject.ID]
		if sBound && sPrev != r[1] {
			return false, nil
		}
		oPrev, oBound := entityBind[p.Object.ID]
		if oBound && oPrev != r[2] {
			return false, nil
		}
		if !sBound {
			entityBind[p.Subject.ID] = r[1]
		}
		// Re-check the object binding: binding the subject may have bound
		// the same variable when subject and object share it.
		oPrev, oBound = entityBind[p.Object.ID]
		if oBound && oPrev != r[2] {
			if !sBound {
				delete(entityBind, p.Subject.ID)
			}
			return false, nil
		}
		if !oBound {
			entityBind[p.Object.ID] = r[2]
		}
		if pr.HasEvent {
			pattTimes[p.ID] = [2]int64{r[3], r[4]}
			pattEvent[p.ID] = r[0]
		}
		return true, func() {
			if pr.HasEvent {
				delete(pattTimes, p.ID)
				delete(pattEvent, p.ID)
			}
			if !oBound {
				delete(entityBind, p.Object.ID)
			}
			if !sBound {
				delete(entityBind, p.Subject.ID)
			}
		}
	}

	runJoin := func() error {
		if len(order) == 2 {
			if ok, err := referenceHashJoin2(q, results, order, bindRow, emit, checkCancel); ok {
				return err
			}
		}
		var walk func(k int) error
		walk = func(k int) error {
			if k == len(order) {
				return emit()
			}
			pr := results[order[k]]
			for _, r := range pr.Rows {
				if err := checkCancel(); err != nil {
					return err
				}
				ok, undo := bindRow(pr, r)
				if !ok {
					continue
				}
				if err := walk(k + 1); err != nil {
					undo()
					return err
				}
				undo()
			}
			return nil
		}
		return walk(0)
	}
	if err := runJoin(); err != nil {
		return nil, joined, err
	}

	if q.Return.Distinct {
		rs.Rows = relational.DedupRows(rs.Rows)
	}
	return &Result{Set: rs, MatchedEvents: matched}, joined, nil
}

// referenceHashJoin2 joins exactly two patterns on their shared entity variables:
// the smaller side is indexed by its shared-variable values, the larger
// side probes. Returns ok=false (and does nothing) when the patterns
// share no entity variable — the cross-product walk handles that case.
func referenceHashJoin2(q *tbql.Query, results []PatternRows, order []int,
	bindRow func(PatternRows, [5]int64) (bool, func()), emit func() error,
	checkCancel func() error) (bool, error) {

	small, large := results[order[0]], results[order[1]]
	ps, pl := q.Patterns[small.Idx], q.Patterns[large.Idx]

	// Shared entity variables, as (column in small row, column in large
	// row) pairs; row columns 1 and 2 hold subject and object IDs. Up to
	// four pairs arise when a pattern uses one variable as both subject
	// and object (self-loop) on each side.
	type colPair struct{ s, l int }
	var shared []colPair
	for _, sc := range []struct {
		id  string
		col int
	}{{ps.Subject.ID, 1}, {ps.Object.ID, 2}} {
		if sc.id == pl.Subject.ID {
			shared = append(shared, colPair{sc.col, 1})
		}
		if sc.id == pl.Object.ID {
			shared = append(shared, colPair{sc.col, 2})
		}
	}
	if len(shared) == 0 {
		return false, nil
	}

	type key [4]int64
	keyOfSmall := func(r [5]int64) key {
		var k key
		for i, cp := range shared {
			k[i] = r[cp.s]
		}
		return k
	}
	keyOfLarge := func(r [5]int64) key {
		var k key
		for i, cp := range shared {
			k[i] = r[cp.l]
		}
		return k
	}

	idx := make(map[key][][5]int64, len(small.Rows))
	for _, r := range small.Rows {
		k := keyOfSmall(r)
		idx[k] = append(idx[k], r)
	}
	for _, rl := range large.Rows {
		if err := checkCancel(); err != nil {
			return true, err
		}
		for _, rsm := range idx[keyOfLarge(rl)] {
			okS, undoS := bindRow(small, rsm)
			if !okS {
				continue
			}
			okL, undoL := bindRow(large, rl)
			if !okL {
				undoS()
				continue
			}
			err := emit()
			undoL()
			undoS()
			if err != nil {
				return true, err
			}
		}
	}
	return true, nil
}

func temporalHolds(rel tbql.Relation, startA, startB int64) bool {
	switch rel.Kind {
	case tbql.RelBefore:
		if startA >= startB {
			return false
		}
		if rel.HasDur {
			d := startB - startA
			return d >= rel.LoDur.Microseconds() && d <= rel.HiDur.Microseconds()
		}
		return true
	case tbql.RelAfter:
		if startA <= startB {
			return false
		}
		if rel.HasDur {
			d := startA - startB
			return d >= rel.LoDur.Microseconds() && d <= rel.HiDur.Microseconds()
		}
		return true
	case tbql.RelWithin:
		d := startA - startB
		if d < 0 {
			d = -d
		}
		return d <= rel.HiDur.Microseconds()
	}
	return false
}

// randomJoinQuery builds a seeded random conjunction of 2–6 patterns over
// a small entity pool (shared, unshared and self-loop variables, some
// variable-length), with before/after/within relations with and without
// durations, attribute relations, and a distinct or plain return.
func randomJoinQuery(rng *rand.Rand) string {
	procs := []string{"p0", "p1", "p2", "p3"}
	files := []string{"f0", "f1", "f2"}
	n := 2 + rng.Intn(5)
	var sb strings.Builder
	var events []string
	for i := 0; i < n; i++ {
		subj := procs[rng.Intn(len(procs))]
		id := fmt.Sprintf("e%d", i)
		switch r := rng.Intn(10); {
		case r < 2: // process pattern, possibly a self-loop
			obj := procs[rng.Intn(len(procs))]
			fmt.Fprintf(&sb, "proc %s start proc %s as %s\n", subj, obj, id)
			events = append(events, id)
		case r < 4:
			fmt.Fprintf(&sb, "proc %s ~>(1~3) file %s as %s\n", subj, files[rng.Intn(len(files))], id)
		default:
			fmt.Fprintf(&sb, "proc %s read file %s as %s\n", subj, files[rng.Intn(len(files))], id)
			events = append(events, id)
		}
	}
	var rels []string
	for r := rng.Intn(4); r > 0 && len(events) > 0; r-- {
		a, b := events[rng.Intn(len(events))], events[rng.Intn(len(events))]
		dur := ""
		if rng.Intn(2) == 0 {
			lo := rng.Intn(3)
			dur = fmt.Sprintf("[%d-%d sec]", lo, lo+rng.Intn(4))
		}
		rels = append(rels, fmt.Sprintf("%s %s%s %s", a, []string{"before", "after", "within"}[rng.Intn(3)], dur, b))
	}
	if rng.Intn(3) == 0 {
		rels = append(rels, fmt.Sprintf("%s.pid %s %s.pid",
			procs[rng.Intn(len(procs))], []string{"=", "<>", "<"}[rng.Intn(3)], procs[rng.Intn(len(procs))]))
	}
	if len(rels) > 0 {
		sb.WriteString("with " + strings.Join(rels, ", ") + "\n")
	}
	// Return the entities the patterns declared (their first uses).
	q, err := tbql.Parse(sb.String() + "return p0")
	var ret []string
	if err == nil {
		seen := map[string]bool{}
		for _, p := range q.Patterns {
			for _, id := range []string{p.Subject.ID, p.Object.ID} {
				if !seen[id] && rng.Intn(2) == 0 {
					seen[id] = true
					ret = append(ret, id)
				}
			}
		}
	}
	if len(ret) == 0 {
		ret = []string{"p0"}
	}
	if rng.Intn(2) == 0 {
		return sb.String() + "return distinct " + strings.Join(ret, ", ")
	}
	return sb.String() + "return " + strings.Join(ret, ", ")
}

// randomPatternRows draws rows for every pattern of a from small ID pools
// so that shared variables meet often: processes 1–6, files 11–15, start
// times 1–8 s.
func randomPatternRows(rng *rand.Rand, a *tbql.Analyzed) []PatternRows {
	results := make([]PatternRows, len(a.Query.Patterns))
	var evID int64
	for i, p := range a.Query.Patterns {
		pr := PatternRows{Idx: i, HasEvent: p.Path == nil}
		for r := 1 + rng.Intn(12); r > 0; r-- {
			var row [5]int64
			row[1] = 1 + rng.Int63n(6)
			if p.Object.Type == tbql.EntProc {
				row[2] = 1 + rng.Int63n(6)
				if rng.Intn(3) == 0 {
					row[2] = row[1]
				}
			} else {
				row[2] = 11 + rng.Int63n(5)
			}
			if pr.HasEvent {
				evID++
				row[0] = evID
				row[3] = (1 + rng.Int63n(8)) * 1_000_000
				row[4] = row[3] + 10
			}
			pr.Rows = append(pr.Rows, row)
			if !pr.HasEvent && rng.Intn(3) == 0 {
				pr.Rows = append(pr.Rows, row) // var-len paths repeat rows
			}
		}
		results[i] = pr
	}
	return results
}

// joinTestAttr is a deterministic attribute resolver with collisions:
// entities share pids and names, so distinct projections collapse.
func joinTestAttr(id int64, attr string) relational.Value {
	if attr == "pid" {
		return relational.Int(id % 3)
	}
	return relational.Str(fmt.Sprintf("%s-%d", attr, id%4))
}

// TestJoinWalkMatchesReference holds the join walk to the previous join on
// seeded random queries and rows: result rows as multisets, matched
// events, and (for plain returns) the binding count. The chains leg draws
// tc_theia_4-shaped joins — up to 40 rows per pattern, cross products and
// shared variables under chains of before/after relations — so a distinct
// walk hits its memo and runs start-dominance existence descents.
func TestJoinWalkMatchesReference(t *testing.T) {
	t.Run("random", func(t *testing.T) {
		rng := rand.New(rand.NewSource(26))
		var w joinWalk // reused across trials, as the pooled scratch is
		checked, nonEmpty := 0, 0
		for trial := 0; trial < 3000; trial++ {
			src := randomJoinQuery(rng)
			a := analyzeJoinQuery(t, src)
			if a == nil {
				continue // e.g. an attribute relation on an undeclared entity
			}
			checked++
			if compareJoin(t, &w, src, a, randomPatternRows(rng, a)) {
				nonEmpty++
			}
		}
		if checked < 1000 || nonEmpty < checked/4 {
			t.Fatalf("vacuous: %d random queries analyzed, %d with rows", checked, nonEmpty)
		}
		t.Logf("%d queries, %d with rows", checked, nonEmpty)
	})
	t.Run("chains", func(t *testing.T) {
		rng := rand.New(rand.NewSource(35))
		var w joinWalk
		nonEmpty, hits, probes, hitTrials, probeTrials := 0, 0, 0, 0, 0
		for trial := 0; trial < 20000; trial++ {
			src := randomChainQuery(rng)
			a := analyzeJoinQuery(t, src)
			if a == nil {
				t.Fatalf("chain query does not analyze\n%s", src)
			}
			if compareJoin(t, &w, src, a, randomChainRows(rng, a)) {
				nonEmpty++
			}
			hits, probes = hits+w.hits, probes+w.probes
			if w.hits > 0 {
				hitTrials++
			}
			if w.probes > 0 {
				probeTrials++
			}
		}
		if nonEmpty < 5000 || hitTrials < 2000 || probeTrials < 1000 {
			t.Fatalf("vacuous: %d trials with rows, %d with memo hits, %d with existence descents",
				nonEmpty, hitTrials, probeTrials)
		}
		t.Logf("%d trials with rows; %d memo hits in %d trials, %d existence descents in %d trials",
			nonEmpty, hits, hitTrials, probes, probeTrials)
	})
}

// FuzzJoinWalkMatchesReference is TestJoinWalkMatchesReference with the
// query's shape and every pattern's rows decoded from the fuzz input.
func FuzzJoinWalkMatchesReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 1, 3, 1, 4, 1, 2, 0, 1, 0, 7, 255, 9, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20})
	f.Add([]byte{2, 0, 1, 1, 0, 1, 5, 1, 1, 2, 1, 31, 3, 8, 0, 1, 2, 2, 2, 0, 0, 1, 1, 0, 5, 3, 9, 4, 4, 8, 2, 7, 6, 6, 1, 1, 9, 0, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		src, rows := decodeJoinCase(data)
		a := analyzeJoinQuery(t, src)
		if a == nil {
			t.Fatalf("decoded query does not analyze\n%s", src)
		}
		var w joinWalk
		compareJoin(t, &w, src, a, rows(a))
	})
}

// analyzeJoinQuery parses and analyzes src, returning nil when the
// analyzer rejects it.
func analyzeJoinQuery(t *testing.T, src string) *tbql.Analyzed {
	t.Helper()
	q, err := tbql.Parse(src)
	if err != nil {
		t.Fatalf("%v\n%s", err, src)
	}
	a, err := tbql.Analyze(q)
	if err != nil {
		return nil
	}
	return a
}

// compareJoin runs the reference join and w on results and fails t unless
// they agree: rows as multisets, matched events, and the binding count of
// a plain return. It reports whether the result has rows.
func compareJoin(t *testing.T, w *joinWalk, src string, a *tbql.Analyzed, results []PatternRows) bool {
	t.Helper()
	cols := returnColumns(a)
	want, wantJoined, err := referenceJoin(context.Background(), a, cols, joinTestAttr, results)
	if err != nil {
		t.Fatalf("reference: %v\n%s", err, src)
	}
	got, joined, err := w.join(context.Background(), newJoinProgram(a), cols, joinTestAttr, results)
	w.reset()
	if err != nil {
		t.Fatalf("walk: %v\n%s", err, src)
	}
	if g, x := rowMultiset(got.Set.Strings()), rowMultiset(want.Set.Strings()); g != x {
		t.Fatalf("rows differ\n%s\n%s\ngot  %s\nwant %s", src, dumpRows(results), g, x)
	}
	if fmt.Sprint(sortedIDs(got.MatchedEvents)) != fmt.Sprint(sortedIDs(want.MatchedEvents)) {
		t.Fatalf("matched events differ\n%s\n%s\ngot  %v\nwant %v", src, dumpRows(results),
			sortedIDs(got.MatchedEvents), sortedIDs(want.MatchedEvents))
	}
	if !a.Query.Return.Distinct && joined != wantJoined {
		t.Fatalf("bindings %d, want %d\n%s", joined, wantJoined, src)
	}
	if a.Query.Return.Distinct && joined > wantJoined {
		t.Fatalf("distinct walk reached %d bindings, more than the reference's %d\n%s", joined, wantJoined, src)
	}
	return want.Set.Len() > 0
}

// dumpRows prints each pattern's rows (event, subject, object, start s).
func dumpRows(results []PatternRows) string {
	var sb strings.Builder
	for i, pr := range results {
		fmt.Fprintf(&sb, "pattern %d:", i)
		for _, r := range pr.Rows {
			fmt.Fprintf(&sb, " (%d %d %d %d)", r[0], r[1], r[2], r[3]/1_000_000)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// randomChainQuery builds a seeded random conjunction of 2–4 event
// patterns in the tc_theia_4 shape: subjects and objects drawn from small
// pools, so some patterns share variables and others cross-product, linked
// by a chain of relations between consecutive patterns — mostly
// before/after without a duration (the start-dominance case), some within
// or with a duration — and a mostly distinct return.
func randomChainQuery(rng *rand.Rand) string {
	var sb strings.Builder
	var declared []string // entity IDs in first-use order
	use := func(id string) string {
		if !slices.Contains(declared, id) {
			declared = append(declared, id)
		}
		return id
	}
	n := 2 + rng.Intn(3)
	for i := 0; i < n; i++ {
		subj := use(fmt.Sprintf("p%d", rng.Intn(3)))
		if rng.Intn(4) == 0 {
			fmt.Fprintf(&sb, "proc %s start proc %s as e%d\n", subj, use(fmt.Sprintf("p%d", rng.Intn(3))), i)
		} else {
			fmt.Fprintf(&sb, "proc %s read file %s as e%d\n", subj, use(fmt.Sprintf("f%d", rng.Intn(3))), i)
		}
	}
	var rels []string
	for i := 0; i+1 < n; i++ {
		a, b := fmt.Sprintf("e%d", i), fmt.Sprintf("e%d", i+1)
		if rng.Intn(2) == 0 {
			a, b = b, a
		}
		kind := []string{"before", "after"}[rng.Intn(2)]
		switch r := rng.Intn(10); {
		case r == 0:
			continue
		case r == 1:
			kind = "within[0-3 sec]"
		case r == 2:
			kind += fmt.Sprintf("[1-%d sec]", 1+rng.Intn(8))
		}
		rels = append(rels, a+" "+kind+" "+b)
	}
	if rng.Intn(4) == 0 {
		a, b := rng.Intn(n), rng.Intn(n)
		rels = append(rels, fmt.Sprintf("e%d %s e%d", a, []string{"before", "after"}[rng.Intn(2)], b))
	}
	if len(rels) > 0 {
		sb.WriteString("with " + strings.Join(rels, ", ") + "\n")
	}
	var ret []string
	for _, id := range declared {
		if rng.Intn(3) != 0 {
			ret = append(ret, id)
		}
	}
	if len(ret) == 0 {
		ret = declared[:1]
	}
	if rng.Intn(5) == 0 {
		return sb.String() + "return " + strings.Join(ret, ", ")
	}
	return sb.String() + "return distinct " + strings.Join(ret, ", ")
}

// randomChainRows draws up to 40 rows per pattern of a (most patterns far
// fewer, so the reference's leaf-checked cross products stay cheap):
// processes 1–4, files 11–13, start times 1–20 s.
func randomChainRows(rng *rand.Rand, a *tbql.Analyzed) []PatternRows {
	results := make([]PatternRows, len(a.Query.Patterns))
	var evID int64
	for i, p := range a.Query.Patterns {
		pr := PatternRows{Idx: i, HasEvent: true}
		for r := 1 + rng.Intn(1+rng.Intn(40)); r > 0; r-- {
			evID++
			row := [5]int64{evID, 1 + rng.Int63n(4), 11 + rng.Int63n(3), (1 + rng.Int63n(20)) * 1_000_000}
			if p.Object.Type == tbql.EntProc {
				row[2] = 1 + rng.Int63n(4)
			}
			row[4] = row[3] + 10
			pr.Rows = append(pr.Rows, row)
		}
		results[i] = pr
	}
	return results
}

// decodeJoinCase decodes a chain-shaped join (see randomChainQuery) from
// data, reading zeros once it runs out: the pattern count, each pattern's
// variables, each link's relation, the return, then each pattern's rows.
// It returns the query text and the rows for its analyzed form.
func decodeJoinCase(data []byte) (string, func(*tbql.Analyzed) []PatternRows) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	var sb strings.Builder
	var procs []int
	n := 2 + next()%3
	for i := 0; i < n; i++ {
		subj, obj := next()%3, next()%6
		procs = append(procs, subj)
		if obj >= 3 {
			fmt.Fprintf(&sb, "proc p%d start proc p%d as e%d\n", subj, obj-3, i)
			procs = append(procs, obj-3)
		} else {
			fmt.Fprintf(&sb, "proc p%d read file f%d as e%d\n", subj, obj, i)
		}
	}
	var rels []string
	for i := 0; i+1 < n; i++ {
		kind := []string{"", "before", "after", "within[0-3 sec]", "before[1-4 sec]", "after[0-2 sec]"}[next()%6]
		if kind != "" {
			rels = append(rels, fmt.Sprintf("e%d %s e%d", i, kind, i+1))
		}
	}
	if len(rels) > 0 {
		sb.WriteString("with " + strings.Join(rels, ", ") + "\n")
	}
	ret, mask := "return distinct ", next()
	if mask&1 == 1 {
		ret = "return "
	}
	var items []string
	for i := 0; i < 3; i++ {
		if mask&(2<<i) != 0 && slices.Contains(procs, i) {
			items = append(items, fmt.Sprintf("p%d", i))
		}
	}
	if len(items) == 0 {
		items = []string{fmt.Sprintf("p%d", procs[0])}
	}
	src := sb.String() + ret + strings.Join(items, ", ")

	return src, func(a *tbql.Analyzed) []PatternRows {
		results := make([]PatternRows, len(a.Query.Patterns))
		var evID int64
		for i, p := range a.Query.Patterns {
			pr := PatternRows{Idx: i, HasEvent: true}
			for r := 1 + next()%16; r > 0; r-- {
				evID++
				row := [5]int64{evID, 1 + int64(next()%4), 11 + int64(next()%3), (1 + int64(next()%10)) * 1_000_000}
				if p.Object.Type == tbql.EntProc {
					row[2] -= 10
				}
				row[4] = row[3] + 10
				pr.Rows = append(pr.Rows, row)
			}
			results[i] = pr
		}
		return results
	}
}

// TestDistinctJoinMatchesPlainHunt runs the tc_theia_4 and vpnfilter case
// hunts over eight instances each, with their return distinct and plain:
// the distinct rows must be the plain rows deduplicated and the matched
// events equal, and the distinct walk must reach under a tenth of the
// plain walk's bindings — in a hunt, and in a delta round floored inside
// the last instance. The vpnfilter hunt's bound is a quarter: its final
// level holds 160 connect events per instance, each a matched event and so
// a completion the distinct walk must reach once, while the plain walk
// reaches each 4.5 times (once per earlier instance's first pattern).
func TestDistinctJoinMatchesPlainHunt(t *testing.T) {
	for _, tc := range []struct {
		id         string
		huntFactor int
	}{{"tc_theia_4", 10}, {"vpnfilter", 4}} {
		id := tc.id
		t.Run(id, func(t *testing.T) {
			store := instancesStore(t, id, 8, 1.0)
			distinct := caseHunt(t, id, synth.ModeEventPatterns)
			if !distinct.Query.Return.Distinct {
				t.Fatal("case hunt's return is not distinct")
			}
			plain := analyzed(t, strings.Replace(tbql.Format(distinct.Query), "return distinct", "return", 1))
			en := &Engine{Store: store}
			compare := func(round string, factor int, d, p *Result, ds, ps Stats) {
				t.Helper()
				dedup := &relational.ResultSet{Columns: p.Set.Columns, Rows: relational.DedupRows(p.Set.Rows)}
				if g, x := rowMultiset(d.Set.Strings()), rowMultiset(dedup.Strings()); g != x || d.Set.Len() == 0 {
					t.Fatalf("%s: distinct rows %s, plain rows deduplicated %s", round, g, x)
				}
				if fmt.Sprint(sortedIDs(d.MatchedEvents)) != fmt.Sprint(sortedIDs(p.MatchedEvents)) {
					t.Fatalf("%s: matched events differ: distinct %d, plain %d", round, len(d.MatchedEvents), len(p.MatchedEvents))
				}
				if ds.JoinBindings*factor >= ps.JoinBindings {
					t.Fatalf("%s: distinct walk reached %d bindings, plain %d", round, ds.JoinBindings, ps.JoinBindings)
				}
				t.Logf("%s: %d rows, %d matched events, %d bindings (plain %d)",
					round, d.Set.Len(), len(d.MatchedEvents), ds.JoinBindings, ps.JoinBindings)
			}
			d, ds, err := en.Execute(nil, distinct)
			if err != nil {
				t.Fatal(err)
			}
			p, ps, err := en.Execute(nil, plain)
			if err != nil {
				t.Fatal(err)
			}
			compare("hunt", tc.huntFactor, d, p, ds, ps)

			floor := store.NextEventID() * 15 / 16
			d, ds, err = en.ExecuteDelta(nil, distinct, floor)
			if err != nil {
				t.Fatal(err)
			}
			p, ps, err = en.ExecuteDelta(nil, plain, floor)
			if err != nil {
				t.Fatal(err)
			}
			compare("delta", 10, d, p, ds, ps)
		})
	}
}

func rowMultiset(rows [][]string) string {
	lines := make([]string, len(rows))
	for i, r := range rows {
		lines[i] = strings.Join(r, "|")
	}
	sort.Strings(lines)
	return strings.Join(lines, "; ")
}

func sortedIDs(m map[int64]bool) []int64 {
	ids := make([]int64, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	return ids
}
