// Package shard partitions the live store by host, time, or hash and
// executes hunts scatter-gather: one authoritative global store (the
// correctness anchor — it serves variable-length path traversals, the
// tactical layer, and provenance/fuzzy reads, and its snapshot defines
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
// partitions its window, op mask, and host pins can possibly touch
// (engine.PatternMeta) and merging the gathered rows in global event-ID
// order, so the result is deterministic across shard counts and
// partitioners.
package shard

import (
	"fmt"
	"hash/fnv"
	"strings"
	"time"

	"threatraptor/internal/audit"
)

// Partitioner routes one event to a partition. Routing must be a pure
// function of the event and its subject entity so a rebuilt store routes
// identically.
type Partitioner interface {
	// Name identifies the partitioner ("hash", "host", "time:1h", ...).
	Name() string
	// Route returns the partition index in [0, n) for an event; subj is
	// the event's subject entity (always a process).
	Route(ev *audit.Event, subj *audit.Entity, n int) int
}

// HostRouter is implemented by partitioners that place every event of one
// host in one known partition; the scatter router uses it to send a
// pattern pinned by a `host = "..."` equality to that partition alone.
type HostRouter interface {
	HostShard(host string, n int) int
}

// ByHash spreads events uniformly by event ID — the load-balancing
// default with no routing affinity.
func ByHash() Partitioner { return hashPart{} }

type hashPart struct{}

func (hashPart) Name() string { return "hash" }
func (hashPart) Route(ev *audit.Event, _ *audit.Entity, n int) int {
	return int(uint64(ev.ID) % uint64(n))
}

// ByHost routes by the subject entity's host, so every event a host's
// processes perform lands in that host's partition and host-pinned
// patterns scatter to exactly one shard. Host-less subjects (single-host
// logs) all route together.
func ByHost() Partitioner { return hostPart{} }

type hostPart struct{}

func (hostPart) Name() string { return "host" }
func (hostPart) Route(ev *audit.Event, subj *audit.Entity, n int) int {
	host := ""
	if subj != nil {
		host = subj.Host()
	}
	return hostPart{}.HostShard(host, n)
}

// HostShard returns the partition a host's events route to.
func (hostPart) HostShard(host string, n int) int {
	h := fnv.New32a()
	h.Write([]byte(host))
	return int(h.Sum32() % uint32(n))
}

// ByTime routes by event start-time slice: slice k (StartTime / sliceUS)
// goes to partition k mod n, so a time-windowed pattern touches only the
// partitions its resolved window overlaps.
func ByTime(sliceUS int64) Partitioner {
	if sliceUS <= 0 {
		sliceUS = int64(time.Hour / time.Microsecond)
	}
	return timePart{sliceUS: sliceUS}
}

type timePart struct{ sliceUS int64 }

func (p timePart) Name() string {
	return "time:" + time.Duration(p.sliceUS*int64(time.Microsecond)).String()
}
func (p timePart) Route(ev *audit.Event, _ *audit.Entity, n int) int {
	slice := ev.StartTime / p.sliceUS
	return int(uint64(slice) % uint64(n))
}

// ParsePartitioner parses a CLI partitioner spec: "hash", "host", "time"
// (1 h slices), or "time:<duration>" (e.g. "time:10m").
func ParsePartitioner(spec string) (Partitioner, error) {
	switch {
	case spec == "" || spec == "hash":
		return ByHash(), nil
	case spec == "host":
		return ByHost(), nil
	case spec == "time":
		return ByTime(0), nil
	case strings.HasPrefix(spec, "time:"):
		d, err := time.ParseDuration(spec[len("time:"):])
		if err != nil || d <= 0 {
			return nil, fmt.Errorf("shard: bad time partitioner slice %q", spec)
		}
		return ByTime(int64(d / time.Microsecond)), nil
	}
	return nil, fmt.Errorf("shard: unknown partitioner %q (want hash, host, time, or time:<duration>)", spec)
}
