// Package shard partitions the live store by event start-time slices and
// executes hunts scatter-gather: one authoritative global store (the
// correctness anchor — it serves variable-length path traversals, the
// tactical layer, and fuzzy search, and its snapshot defines
// the system's published state) plus N partition stores that each hold a
// routed subset of the events over the shared entity table.
//
// Event IDs are GLOBAL everywhere: the coordinator lets the global store
// assign them and fans the finalized events out, so binding sets, delta
// floors, and the op-bitmap index work across partitions with no
// remapping. Entities fan out to every partition (cross-shard patterns
// join on shared entity identity — a network connection's 5-tuple interns
// to one entity that both the connecting and the accepting host's events
// reference), while each event's row and graph edge live in exactly one
// partition.
//
// A hunt keeps the whole scheduled plan at the coordinator — the global
// engine runs pruning-score order, binding-set feed, final join — and
// scatters only the per-pattern data queries, routing each to the
// partitions its window and op mask can possibly touch
// (engine.PatternMeta) and merging the gathered rows in global event-ID
// order, so the result is deterministic across shard counts and slice
// widths.
package shard

import (
	"fmt"
	"strings"
	"time"
)

// defaultSliceUS is the slice width (µs) of an empty or bare "time" spec.
const defaultSliceUS = int64(time.Hour / time.Microsecond)

// partitionOf is the one routing rule: the event starting at startUS
// lies in time slice startUS / sliceUS, and slice k goes to partition
// k mod n. Slices are cut at absolute multiples of the width, so a
// rebuilt store routes identically and a time-windowed pattern touches
// only the partitions its resolved window overlaps.
func partitionOf(startUS, sliceUS int64, n int) int {
	return int(uint64(startUS/sliceUS) % uint64(n))
}

// SliceName is the spec that parses back to slice width sliceUS
// ("time:1h0m0s"); a data dir's manifest records it.
func SliceName(sliceUS int64) string {
	return "time:" + time.Duration(sliceUS*int64(time.Microsecond)).String()
}

// ParsePartitioner parses a CLI partitioning spec into its slice width
// (µs): "" or "time" (1 h slices), or "time:<duration>" (e.g. "time:10m").
func ParsePartitioner(spec string) (int64, error) {
	switch {
	case spec == "" || spec == "time":
		return defaultSliceUS, nil
	case strings.HasPrefix(spec, "time:"):
		d, err := time.ParseDuration(spec[len("time:"):])
		if err != nil || d < time.Microsecond {
			return 0, fmt.Errorf("shard: bad time partitioner slice %q", spec)
		}
		return int64(d / time.Microsecond), nil
	}
	return 0, fmt.Errorf("shard: unknown partitioner %q (want time or time:<duration>)", spec)
}
