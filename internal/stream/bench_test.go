package stream

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"threatraptor/internal/audit"
	"threatraptor/internal/segment"
	"threatraptor/internal/shard"
	"threatraptor/internal/tactical"
)

// shiftRecords copies template with every timestamp moved forward by
// offset, so repeated ingestion produces genuinely new (unmergeable,
// monotonically later) events.
func shiftRecords(template []audit.Record, dst []audit.Record, offset int64) []audit.Record {
	dst = append(dst[:0], template...)
	for i := range dst {
		dst[i].Time += offset
	}
	return dst
}

// benchSession builds a live session preloaded with the data_leak history.
func benchSession(b *testing.B, cfg Config) (*Session, []audit.Record) {
	b.Helper()
	recs := dataLeakRecords(b, 0.25)
	sess, _ := emptySession(b, cfg)
	if _, err := sess.IngestRecords(recs); err != nil {
		b.Fatal(err)
	}
	if _, err := sess.Flush(); err != nil {
		b.Fatal(err)
	}
	return sess, recs
}

// BenchmarkStreamIngest measures the live append path: each iteration
// ingests one 512-record chunk into a store that keeps growing across
// iterations, so a flat ns/op is direct evidence that per-event ingest
// cost stays sublinear in store size (no full re-sort or re-index per
// batch).
func BenchmarkStreamIngest(b *testing.B) {
	sess, recs := benchSession(b, DefaultConfig())
	template := recs[:512]
	span := template[len(template)-1].Time - template[0].Time + 10_000_000
	base := sess.Store().MaxTime + 10_000_000 - template[0].Time
	buf := make([]audit.Record, 0, len(template))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		chunk := shiftRecords(template, buf, base+int64(i)*span)
		if _, err := sess.IngestRecords(chunk); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStandingQuery measures continuous evaluation: a registered
// standing query (the 8-pattern data_leak hunt) is re-evaluated
// incrementally against each sealed 64-record batch. Each pattern's
// materialized match view catches up with one floor-anchored data query
// over the new events, so a batch without matching behavior costs
// O(batch) regardless of how much history the store holds. It is the
// 1x leg of BenchmarkStandingQueryScale under the gate's name.
func BenchmarkStandingQuery(b *testing.B) {
	standingRounds(b, 1, singleSession(b), dataLeakTBQL)
}

// BenchmarkConcurrentHunts measures snapshot-pinned hunt throughput:
// GOMAXPROCS goroutines each run the full 8-pattern data_leak hunt
// against a live session in a tight loop. Hunts take no session lock —
// each pins the store's published snapshot — so ns/op should improve
// with GOMAXPROCS instead of serializing the way the old reader-lock
// design did whenever a writer was queued.
func BenchmarkConcurrentHunts(b *testing.B) {
	sess, _ := benchSession(b, DefaultConfig())
	if _, _, err := sessionHunt(sess, dataLeakTBQL); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, _, err := sessionHunt(sess, dataLeakTBQL); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkTacticalRound measures the tactical detection overhead on the
// live append path: the same 64-record chunked ingest as
// BenchmarkStandingQuery, but with a four-rule tactical layer tagging
// each sealed batch, attributing alerts through backward reachability,
// and rescoring the touched incidents. The delta vs BenchmarkStreamIngest
// is the per-batch cost of detection; alerts/op reports how much tagging
// work each round, timed or warm-up, actually did.
func BenchmarkTacticalRound(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Tactical = tactical.Config{Rules: chaosRules(b)}
	recs := dataLeakRecords(b, 0.25)
	// A chunk where every fourth record matches a rule (a credential read
	// or a staging write among untagged reads), spread over a few
	// processes so attribution does real reachability work.
	template := make([]audit.Record, 64)
	for i := range template {
		r := audit.Record{Time: int64(i) * 250_000, PID: 9000 + i%8,
			Exe: fmt.Sprintf("/bin/tool%d", i%8), User: "root", FD: audit.FDFile, Bytes: 10}
		switch i % 4 {
		case 0:
			r.Call, r.Path = audit.SysRead, fmt.Sprintf("/etc/conf%d", i)
		case 2:
			r.Call, r.Path = audit.SysWrite, fmt.Sprintf("/tmp/stage%d", i)
		default:
			r.Call, r.Path = audit.SysRead, fmt.Sprintf("/home/u/f%d", i)
		}
		template[i] = r
	}
	var alerts, start int64
	sessions := sessionRounds(b, template, func() *Session {
		sess, _ := emptySession(b, cfg)
		if _, err := sess.IngestRecords(recs); err != nil {
			b.Fatal(err)
		}
		if _, err := sess.Flush(); err != nil {
			b.Fatal(err)
		}
		start = sess.TacticalStats().AlertsTagged
		return sess
	}, func(sess *Session) {
		if _, err := sess.Flush(); err != nil {
			b.Fatal(err)
		}
		alerts += sess.TacticalStats().AlertsTagged - start
	})
	b.ReportMetric(float64(alerts)/float64(b.N+sessions*warmRounds), "alerts/op")
	if alerts == 0 {
		b.Fatal("no alerts tagged; the tactical path was not exercised")
	}
}

// BenchmarkSegmentFlush is the store-size sweep behind O(delta) segment
// flushes: one flush of 64 sealed 16-record batches on a durable store
// preloaded 1× and 8× with the data_leak history. Every iteration
// flushes the same 64 batches: the role's live list is put back to what
// it was before them, ending in one flush of 64 batches, so each timed
// flush writes one plain delta — no merge, whose share of a flush would
// depend on b.N — and the store does not grow with b.N. Flat B/op and
// allocs/op from 1x to 8x is the claim; a flush that rewrote the whole
// store grew with the preload.
func BenchmarkSegmentFlush(b *testing.B) {
	for _, mult := range []int{1, 8} {
		b.Run(fmt.Sprintf("%dx", mult), func(b *testing.B) {
			cfg := Config{}
			cfg.Durability = Durability{Dir: b.TempDir(), Fsync: segment.FsyncOff, SegmentEvery: 1 << 30}
			sess, _, err := openSingle(b, cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer sess.Close()
			recs := dataLeakRecords(b, 1)
			span := recs[len(recs)-1].Time - recs[0].Time + 10_000_000
			buf := make([]audit.Record, 0, len(recs))
			for i := 0; i < mult; i++ {
				if _, err := sess.IngestRecords(shiftRecords(recs, buf, int64(i)*span)); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := sess.Flush(); err != nil {
				b.Fatal(err)
			}
			template := recs[:16]
			chunkSpan := template[len(template)-1].Time - template[0].Time + 10_000_000
			base := sess.Store().MaxTime + 10_000_000 - template[0].Time
			next := 0
			seal := func() {
				for j := 0; j < 64; j++ {
					if _, err := sess.IngestRecords(shiftRecords(template, buf, base+int64(next)*chunkSpan)); err != nil {
						b.Fatal(err)
					}
					next++
				}
			}
			flush := func() {
				sess.mu.Lock()
				defer sess.mu.Unlock()
				if err := sess.flushSegmentsLocked(); err != nil {
					b.Fatal(err)
				}
			}
			flush() // the preload
			seal()
			flush() // one delta: the live list now ends in a delta-sized segment
			seal()
			live := sess.dur.live[0]
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sess.dur.live[0] = live
				flush()
			}
		})
	}
}

// BenchmarkStandingQueryScale is the store-size sweep behind the O(delta)
// claim: the same 64-record standing-query round as BenchmarkStandingQuery,
// but with the pre-loaded history scaled 1×→8×. Near-flat ns/op across
// the sub-benchmarks is direct evidence that a delta round's cost depends
// on the batch, not the store (the pre-view design re-ran every pattern's
// data query per round, so its rounds grew linearly with history). The
// 8x-shardsN legs run the identical rounds against a sharded backend so
// the per-round cost of scatter coordination is visible next to the
// single-store number; their slices are narrow enough that every round's
// batch routes to all n partitions.
func BenchmarkStandingQueryScale(b *testing.B) {
	for _, mult := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("%dx", mult), func(b *testing.B) {
			standingRounds(b, mult, singleSession(b), dataLeakTBQL)
		})
	}
	const sliceUS = 10_000
	for _, n := range []int{2, 4} {
		b.Run(fmt.Sprintf("8x-shards%d", n), func(b *testing.B) {
			requireFullScatter(b, n, sliceUS)
			standingRounds(b, 8, func() *Session {
				sh, err := shard.New(audit.NewLog(), n, sliceUS)
				if err != nil {
					b.Fatal(err)
				}
				return NewWithBackend(sh, Config{MatchBuffer: 16})
			}, dataLeakTBQL)
		})
	}
}

// requireFullScatter fails the benchmark unless every standing round's
// batch routes to all n partitions at sliceUS-wide time slices. A round
// seals the standingRounds template's events, time-shifted; when no two
// consecutive start times lie a slice width apart and they span n widths,
// the slices they start in are more than n consecutive ones whatever the
// shift, so they cover every partition.
func requireFullScatter(b *testing.B, n int, sliceUS int64) {
	sess, _ := emptySession(b, Config{})
	defer sess.Close()
	if _, err := sess.IngestRecords(dataLeakRecords(b, 0.25)[:64]); err != nil {
		b.Fatal(err)
	}
	if _, err := sess.Flush(); err != nil {
		b.Fatal(err)
	}
	var starts []int64
	for _, ev := range sess.Store().Snapshot().Events {
		starts = append(starts, ev.StartTime)
	}
	slices.Sort(starts)
	for i := 1; i < len(starts); i++ {
		if gap := starts[i] - starts[i-1]; gap >= sliceUS {
			b.Fatalf("batch events %d µs apart may leave a %d µs slice empty", gap, sliceUS)
		}
	}
	if span := starts[len(starts)-1] - starts[0]; span < int64(n)*sliceUS {
		b.Fatalf("batch spans %d µs, under %d slices of %d µs", span, n, sliceUS)
	}
}

// BenchmarkStandingQueryVarLen is the same sweep for a variable-length
// watch (tar's information flow to the exfiltration address, up to 3
// hops): each round runs the path's traversal floored at the batch, a
// trail through a new edge, under the one delta rule every standing query
// takes.
func BenchmarkStandingQueryVarLen(b *testing.B) {
	q := strings.Replace(varlenTBQL, "(1~8)", "(1~3)", 1)
	for _, mult := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("%dx", mult), func(b *testing.B) {
			standingRounds(b, mult, singleSession(b), q)
		})
	}
}

// singleSession returns a factory of empty single-store sessions for
// standingRounds.
func singleSession(b *testing.B) func() *Session {
	return func() *Session {
		sess, _ := emptySession(b, Config{MatchBuffer: 16})
		return sess
	}
}

// roundsPerSession is how many timed rounds sessionRounds runs on one
// session before starting over on a fresh one. Each round appends 64
// records (the 1x preload holds 976), so without the restart the store a
// benchmark times would grow with b.N, and with it B/op.
const roundsPerSession = 16

// warmRounds is how many untimed rounds each session runs before its
// timed ones: the flushed first round compiles a watched query's plan and
// materializes its views, and the first watermark-sealed round (the
// second after it) sizes the delta path's buffers, a one-time cost of
// about 1 300 allocations that the timed rounds would otherwise share.
const warmRounds = 3

// standingRounds times one 64-record sealed round per iteration on
// sessions from newSess preloaded with mult time-shifted copies of the
// data_leak history and watching query (see sessionRounds): store growth
// shows across the 1x-8x legs, not across b.N.
func standingRounds(b *testing.B, mult int, newSess func() *Session, query string) {
	recs := dataLeakRecords(b, 0.25)
	span := recs[len(recs)-1].Time - recs[0].Time + 10_000_000
	buf := make([]audit.Record, 0, len(recs))
	sessionRounds(b, recs[:64], func() *Session {
		sess := newSess()
		for i := 0; i < mult; i++ {
			if _, err := sess.IngestRecords(shiftRecords(recs, buf, int64(i)*span)); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := sess.Flush(); err != nil {
			b.Fatal(err)
		}
		if _, err := sess.Watch(query); err != nil {
			b.Fatal(err)
		}
		return sess
	}, nil)
}

// sessionRounds times one round per iteration: the session ingests
// template, time-shifted past everything it holds. open returns a
// preloaded session; each runs warmRounds untimed rounds (the first one
// flushed, so it seals) and then roundsPerSession timed ones, after which
// done (when non-nil) sees it, it is closed, and a fresh one opens, all
// with the timer stopped. So a round runs against the stated preload plus
// warmRounds to warmRounds + roundsPerSession rounds at any -benchtime.
// It returns how many sessions it opened.
func sessionRounds(b *testing.B, template []audit.Record, open func() *Session, done func(*Session)) int {
	chunkSpan := template[len(template)-1].Time - template[0].Time + 10_000_000
	cbuf := make([]audit.Record, 0, len(template))
	var sess *Session
	var base int64
	sessions := 0
	round := func(i int) {
		if _, err := sess.IngestRecords(shiftRecords(template, cbuf, base+int64(i)*chunkSpan)); err != nil {
			b.Fatal(err)
		}
	}
	finish := func() {
		if done != nil {
			done(sess)
		}
		if err := sess.Close(); err != nil {
			b.Fatal(err)
		}
	}
	start := func() {
		if sess != nil {
			finish()
		}
		sess = open()
		sessions++
		base = sess.Store().MaxTime + 10_000_000 - template[0].Time
		round(0)
		if _, err := sess.Flush(); err != nil { // seal it: a watched query runs
			b.Fatal(err)
		}
		for i := 1; i < warmRounds; i++ {
			round(i)
		}
	}
	start()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%roundsPerSession == 0 {
			b.StopTimer()
			start()
			b.StartTimer()
		}
		round(warmRounds + i%roundsPerSession)
	}
	b.StopTimer()
	finish()
	return sessions
}
