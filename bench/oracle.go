package main

// Output oracles. A hunt's answer is reduced to a hash of its row set; the
// reference hash of a query comes from the unscheduled engine path
// (DisableScheduling: declaration order, no constraint feeding) over an
// unsharded store, which shares no plan with the path being timed.

import (
	"context"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"

	"threatraptor/internal/engine"
	"threatraptor/internal/tbql"
)

// rowsHash hashes a row set independent of row order. matched < 0 leaves
// the matched-event count out (HTTP hunts on a store whose event IDs differ
// from the reference's).
func rowsHash(columns []string, rows [][]string, matched int) uint64 {
	lines := make([]string, len(rows))
	for i, r := range rows {
		lines[i] = strings.Join(r, "\x1f")
	}
	sort.Strings(lines)
	h := fnv.New64a()
	fmt.Fprintf(h, "%s\x1e%d\x1e", strings.Join(columns, "\x1f"), matched)
	for _, l := range lines {
		h.Write([]byte(l))
		h.Write([]byte{0x1e})
	}
	return h.Sum64()
}

// resultHash hashes an in-process hunt result, matched-event count
// included.
func resultHash(res *engine.Result) uint64 {
	return rowsHash(res.Set.Columns, res.Set.Strings(), len(res.MatchedEvents))
}

// oracle answers queries by the reference path.
type oracle struct {
	en *engine.Engine
	// flip is XORed into every reference hash: nonzero only under
	// config.breakOracle, where every comparison must then fail.
	flip uint64
}

func newOracle(store *engine.Store, broken bool) *oracle {
	o := &oracle{en: &engine.Engine{Store: store, DisableScheduling: true}}
	if broken {
		o.flip = 1
	}
	return o
}

// run executes src on the reference path.
func (o *oracle) run(src string) (*engine.Result, error) {
	q, err := tbql.Parse(src)
	if err != nil {
		return nil, err
	}
	a, err := tbql.Analyze(q)
	if err != nil {
		return nil, err
	}
	res, _, err := o.en.Execute(context.Background(), a)
	return res, err
}

// hash is the reference hash of src's answer: rows plus matched-event
// count, or (rowsOnly) rows alone.
func (o *oracle) hash(src string, rowsOnly bool) (uint64, error) {
	res, err := o.run(src)
	if err != nil {
		return 0, fmt.Errorf("oracle: %w", err)
	}
	if rowsOnly {
		return rowsHash(res.Set.Columns, res.Set.Strings(), -1) ^ o.flip, nil
	}
	return resultHash(res) ^ o.flip, nil
}
