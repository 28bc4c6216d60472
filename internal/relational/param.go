package relational

import (
	"context"
	"fmt"
	"strings"
)

// This file is the bound-parameter execution path: a statement built with
// Param / ParamIDs placeholders compiles once into a Prepared plan, and
// each execution binds the varying values through a Params struct instead
// of splicing them into fresh SQL text. The TBQL engine's logical-plan
// lowering uses it for the scheduler's binding sets and the standing-query
// delta floor.

// Prepared is a compiled statement executable with per-call parameters.
// It is safe for concurrent use: all mutable execution state is per-call.
type Prepared struct {
	p *plan
}

// Prepare compiles a statement AST against the database's current tables.
// The plan survives row appends (column vectors are re-fetched per batch)
// but not schema changes.
func (db *DB) Prepare(stmt *SelectStmt) (*Prepared, error) {
	p, err := db.plan(stmt)
	if err != nil {
		return nil, err
	}
	return &Prepared{p: p}, nil
}

// QueryCtx executes the prepared plan with the given parameter bindings
// (nil binds every slot to its zero value). The executor polls
// ctx.Done() at batch boundaries and (amortized) in index-probe loops and
// returns ctx.Err() promptly once the context is cancelled. A nil or
// never-cancelled context adds no per-row work.
func (pr *Prepared) QueryCtx(ctx context.Context, params *Params) (*ResultSet, ExecStats, error) {
	return pr.p.run(ctx, params, nil)
}

// QueryInts is QueryCtx for a statement whose projection is at most five
// integer columns: instead of building a ResultSet it hands each result
// row to sink as an int tuple read straight from the int column storage,
// in QueryCtx's row order. A NULL cell reads as 0, and DISTINCT compares
// the tuples.
func (pr *Prepared) QueryInts(ctx context.Context, params *Params, sink IntSink) (ExecStats, error) {
	if pr.p.intProj == nil {
		return ExecStats{}, fmt.Errorf("relational: QueryInts needs a projection of at most five integer columns")
	}
	_, stats, err := pr.p.run(ctx, params, sink)
	return stats, err
}

// Describe renders the physical plan for EXPLAIN output: one line per
// nested-loop level with its access path and filter counts.
func (pr *Prepared) Describe() string {
	p := pr.p
	var sb strings.Builder
	for lvl, tbl := range p.tables {
		alias := tbl.Name
		if a := p.stmt.From[lvl].Alias; a != "" {
			alias = a
		}
		access := describeAccess(tbl, p.access[lvl])
		if ia := p.access[lvl]; ia != nil && ia.optional {
			access += " (optional; unbound -> " + describeAccess(tbl, ia.fallback) + ")"
		}
		if n := len(p.floors[lvl]); n > 0 {
			access += fmt.Sprintf("; %d scan floor(s)", n)
		}
		vec, row := 0, 0
		for _, pred := range p.levelPreds[lvl] {
			if pred.vec != nil {
				vec++
			} else {
				row++
			}
		}
		fmt.Fprintf(&sb, "L%d %s %s: %s; %d vectorized + %d row filters\n",
			lvl, tbl.Name, alias, access, vec, row)
	}
	return sb.String()
}

// describeAccess names one level access path for Describe (nil is the
// full scan).
func describeAccess(tbl *Table, ia *indexAccess) string {
	if ia == nil {
		return "full scan"
	}
	col := tbl.Schema[ia.col].Name
	switch {
	case ia.listSlot >= 0:
		return fmt.Sprintf("index multi-probe on %s from param list %d", col, ia.listSlot)
	case ia.like != nil && ia.like.pat.slot < 0 && !strings.ContainsAny(ia.like.pat.lit.S, "%_"):
		return fmt.Sprintf("index LIKE on %s (exact key)", col)
	case ia.like != nil:
		return fmt.Sprintf("index LIKE on %s (per distinct key)", col)
	case ia.in != nil:
		return fmt.Sprintf("index multi-probe on %s (%d keys)", col, len(ia.in.ops))
	}
	return "index probe on " + col
}

func checkSlot(slot int) (int, error) {
	if slot < 0 || slot >= MaxParamSlots {
		return 0, fmt.Errorf("relational: parameter slot %d out of range", slot)
	}
	return slot, nil
}

// contains reports membership of k in the sorted unique list bound at
// slot; an unbound list contains nothing.
func (p *Params) contains(slot int, k int64) bool {
	return ContainsSortedInt64(p.Lists[slot], k)
}

// vecCmpParam is the batch kernel for "intcol OP <param int>": the bound
// value is read once per batch, then the literal comparison kernels run.
func vecCmpParam(a colAccess, op string, slot int) *vecPred {
	return &vecPred{
		filterSel: func(st *execState, sel, dst []int32) []int32 {
			col, nb := intVec(a, st)
			return filterCmp(col, nb, op, st.params.Ints[slot], sel, dst)
		},
		filterRange: func(st *execState, lo, hi int32, dst []int32) []int32 {
			col, nb := intVec(a, st)
			return filterCmpRange(col, nb, op, st.params.Ints[slot], lo, hi, dst)
		},
	}
}

// vecParamIDs is the batch kernel for "intcol IN <param list>": a
// binary-search membership test against the sorted unique bound list.
// NULL cells are members of nothing.
func vecParamIDs(a colAccess, slot int) *vecPred {
	return &vecPred{
		filterSel: func(st *execState, sel, dst []int32) []int32 {
			col, nb := intVec(a, st)
			if len(nb) == 0 {
				for _, r := range sel {
					if st.params.contains(slot, col[r]) {
						dst = append(dst, r)
					}
				}
				return dst
			}
			for _, r := range sel {
				if !nullAt(nb, r) && st.params.contains(slot, col[r]) {
					dst = append(dst, r)
				}
			}
			return dst
		},
		filterRange: func(st *execState, lo, hi int32, dst []int32) []int32 {
			col, nb := intVec(a, st)
			if len(nb) == 0 {
				for r := lo; r < hi; r++ {
					if st.params.contains(slot, col[r]) {
						dst = append(dst, r)
					}
				}
				return dst
			}
			for r := lo; r < hi; r++ {
				if !nullAt(nb, r) && st.params.contains(slot, col[r]) {
					dst = append(dst, r)
				}
			}
			return dst
		},
	}
}
