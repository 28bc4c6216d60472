package main

// ingest-durable: write-only. A durable System (WAL with fsync "always",
// a segment generation every 64 sealed batches — the shipped defaults),
// eight standing queries and a 256-rule set ingest a multi-case stream in
// 512-record wire-format chunks. audit, reduction, segment, tactical and
// the engine's append/delta path carry the load; ad-hoc hunts none.

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"threatraptor"
	"threatraptor/internal/audit"
	"threatraptor/internal/engine"
	"threatraptor/internal/reduction"
	"threatraptor/internal/relational"
	"threatraptor/internal/rules"
	"threatraptor/internal/segment"
	"threatraptor/internal/stream"
	"threatraptor/internal/tactical"
	"threatraptor/internal/tbql"
)

const (
	// Set-up ingests the stream up to sealed batch ingestPrefixBatches
	// (≈140 k raw records), so that every run abandons and recovers the
	// same shape of directory: three segment generations and a WAL tail of
	// half a generation.
	ingestPrefixBatches      = 3*ingestSegmentEvery + ingestSegmentEvery/2
	ingestPrefixBatchesShort = 6
	// The measured work is a fixed count, ingestChunksPerSecond chunks per
	// second of -seconds (1300 chunks = 666 k raw records at 10 s, about
	// what the seed commit ingests in that time), after a warm-up counted
	// the same way: a segment flush rewrites the whole store, so a window
	// of fixed length would hand a faster system more, and dearer, work.
	ingestChunksPerSecond = 130
	// ingestTail: p95 of a chunk's latency sits on the sparse knee between
	// the bulk (≈3–6 ms) and the segment-flush stalls (≥100 ms) and varies
	// by 17–37 % between runs of the same code; p90 repeats within 4 %.
	ingestTail = 0.90
	// One clone in ingestAttackEvery carries its attack (≈ one planted
	// instance per 55 k records); the rest are benign noise.
	ingestAttackEvery  = 5
	ingestRuleCount    = 256
	ingestFsync        = "always"
	ingestSegmentEvery = 64
	// genGroup clones are generated and rendered to chunks at a time, so
	// the parsed records of the whole stream are never held at once.
	genGroup = 16
)

// ingestInputs are the generated inputs of the ingest workloads.
type ingestInputs struct {
	set     *rules.Set
	watches []string
	// The stream as chunks; chunkEnd[i] is the number of stream records in
	// chunks[0..i], and clones index stream records.
	clones   []clone
	chunks   [][]byte
	chunkEnd []int
}

// genIngestInputs generates the rules, the standing queries, and a stream
// of at least needChunks chunks.
func genIngestInputs(cfg *config, needChunks int, scale float64) (*ingestInputs, error) {
	in := &ingestInputs{}
	var err error
	if in.set, err = rules.Compile(genRules(cfg.seed, ingestRuleCount)); err != nil {
		return nil, err
	}
	if in.watches, err = genWatchQueries(); err != nil {
		return nil, err
	}
	at, total := int64(streamStartUS), 0
	for first := 0; len(in.chunks) < needChunks; first += genGroup {
		g := genStream(cfg.seed, scale, first, genGroup, ingestAttackEvery, at)
		at = g.endUS()
		for _, c := range g.Clones {
			c.Lo, c.Hi = c.Lo+total, c.Hi+total
			in.clones = append(in.clones, c)
		}
		for k, ch := range wireChunks(g.Records) {
			in.chunks = append(in.chunks, ch)
			in.chunkEnd = append(in.chunkEnd, total+min((k+1)*chunkRecords, len(g.Records)))
		}
		total += len(g.Records)
	}
	return in, nil
}

// ingestSizes returns the warm-up and measured chunk counts, the set-up
// prefix in sealed batches, and the clone scale.
func ingestSizes(cfg *config) (warm, measured int, prefixBatches int64, scale float64) {
	warm = int(cfg.warm().Seconds() * ingestChunksPerSecond)
	measured = int(cfg.seconds * ingestChunksPerSecond)
	if cfg.short {
		return warm, measured, ingestPrefixBatchesShort, shortScale
	}
	return warm, measured, ingestPrefixBatches, cloneScale
}

func durableOpts(dir string, set *rules.Set) threatraptor.Options {
	o := threatraptor.DefaultOptions()
	o.DataDir = dir
	o.FsyncPolicy = ingestFsync
	o.SegmentEvery = ingestSegmentEvery
	o.Rules = set
	return o
}

// watchSet is a system's standing queries with everything they delivered.
type watchSet struct {
	queries []string
	subs    []*stream.Subscription
	got     []map[string]int // per query: delivered row → times delivered
	firings int
}

func openWatches(sys *threatraptor.System, queries []string) (*watchSet, error) {
	ws := &watchSet{queries: queries}
	for _, q := range queries {
		sub, err := sys.Watch(q)
		if err != nil {
			return nil, fmt.Errorf("watch: %w", err)
		}
		ws.subs = append(ws.subs, sub)
		ws.got = append(ws.got, map[string]int{})
	}
	return ws, nil
}

func rowKey(row []relational.Value) string {
	parts := make([]string, len(row))
	for i, v := range row {
		parts[i] = v.String()
	}
	return strings.Join(parts, "\x1f")
}

// drain collects the matches delivered so far (firings are delivered
// inside the ingest call, so after it returns they are all in the channel).
func (ws *watchSet) drain() {
	for i, sub := range ws.subs {
		for pending := true; pending; {
			select {
			case m, ok := <-sub.C:
				if pending = ok && !m.Terminal; pending {
					ws.got[i][rowKey(m.Row)]++
					ws.firings++
				}
			default:
				pending = false
			}
		}
	}
}

// huntRows returns a query's current answer as a row-key set.
func huntRows(sys *threatraptor.System, q string) (map[string]bool, error) {
	res, _, err := sys.Hunt(context.Background(), q)
	if err != nil {
		return nil, err
	}
	rows := map[string]bool{}
	for _, r := range res.Set.Rows {
		rows[rowKey(r)] = true
	}
	return rows, nil
}

// check holds the deliveries to the oracle: every row the query answers
// now that it did not answer when the watch was opened (before) must have
// been delivered, no row may have been delivered twice or be absent from
// the answer, and nothing may have been dropped. (A row answered before
// the watch may be delivered once more: a new event on an entity hosts
// share, such as a C2 address, re-derives it.) attacked lists, per watched
// case, the hosts of the attack instances ingested since; each must appear
// in its case's deliveries.
func (ws *watchSet) check(out *outcome, sys *threatraptor.System, before []map[string]bool, attacked map[string][]string) error {
	for i, q := range ws.queries {
		now, err := huntRows(sys, q)
		if err != nil {
			return err
		}
		out.attempted++
		bad := ""
		for row, n := range ws.got[i] {
			if n != 1 {
				bad = fmt.Sprintf("row delivered %d times", n)
			}
			if !now[row] {
				bad = fmt.Sprintf("delivered row %q is not in the query's answer", row)
			}
		}
		want := 0
		for row := range now {
			if !before[i][row] {
				want++
				if ws.got[i][row] == 0 {
					bad = "a new answer row was never delivered"
				}
			}
		}
		if d := ws.subs[i].Dropped(); d != 0 {
			bad = fmt.Sprintf("%d matches dropped", d)
		}
		for _, host := range attacked[plantedCases[i]] {
			found := false
			for row := range ws.got[i] {
				if strings.HasPrefix(row, host+"\x1f") {
					found = true
				}
			}
			if !found {
				bad = "planted attack on " + host + " never fired"
			}
		}
		if bad != "" {
			out.fail(1, fmt.Errorf("standing query %s: %s (delivered %d, want %d)", plantedCases[i], bad, len(ws.got[i]), want))
		}
	}
	return nil
}

// attackedHosts lists, per case, the hosts of the attack instances among
// clones wholly inside stream records [lo, hi).
func attackedHosts(clones []clone, lo, hi int) map[string][]string {
	m := map[string][]string{}
	for _, c := range clones {
		if c.Attack && c.Lo >= lo && c.Hi <= hi {
			m[c.CaseID] = append(m[c.CaseID], c.Host)
		}
	}
	return m
}

// checkTactical holds the live tactical layer to the batch one: alerts
// tagged over the session's life must equal a one-shot Analyze of the
// final store.
func checkTactical(out *outcome, sys *threatraptor.System, set *rules.Set) error {
	incs, err := sys.Analyze(set)
	if err != nil {
		return err
	}
	var batch int64
	for _, inc := range incs {
		batch += int64(inc.AlertCount)
	}
	out.attempted++
	if live := sys.TacticalStats().AlertsTagged; live != batch {
		out.fail(1, fmt.Errorf("tactical: live session tagged %d alerts, one-shot Analyze of the same store %d", live, batch))
	}
	return nil
}

// dirBytes sums the sizes of the files in dir.
func dirBytes(dir string) (total int64, files int) {
	es, err := os.ReadDir(dir)
	if err != nil {
		return 0, 0
	}
	for _, e := range es {
		if fi, err := e.Info(); err == nil && !fi.IsDir() {
			total += fi.Size()
			files++
		}
	}
	return total, files
}

// storeSig is an event count plus the hashes of the watch queries' answers:
// what a recovered or replicated store must reproduce.
type storeSig struct {
	events int64
	hashes []uint64
}

func signature(sys *threatraptor.System, queries []string) (storeSig, error) {
	sig := storeSig{events: sys.Store().Snapshot().NextEventID - 1}
	for _, q := range queries {
		res, _, err := sys.Hunt(context.Background(), q)
		if err != nil {
			return sig, err
		}
		sig.hashes = append(sig.hashes, resultHash(res))
	}
	return sig, nil
}

func (a storeSig) equal(b storeSig) bool {
	if a.events != b.events || len(a.hashes) != len(b.hashes) {
		return false
	}
	for i := range a.hashes {
		if a.hashes[i] != b.hashes[i] {
			return false
		}
	}
	return true
}

func runIngestDurable(cfg *config) (*outcome, error) {
	out := &outcome{metrics: map[string]float64{}}
	warm, measured, prefixBatches, scale := ingestSizes(cfg)
	// A sealed batch takes at most one chunk more than it yields, plus the
	// first second of event time the watermark trails by.
	in, err := genIngestInputs(cfg, int(prefixBatches)+64+warm+measured, scale)
	if err != nil {
		return nil, err
	}
	tmp, err := cfg.scratch()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	dir := filepath.Join(tmp, "data")
	base := heapMiB()

	// Phase 1: a fresh durable system takes the stream's prefix, seals
	// it, and is abandoned without Close — the un-Closed stop recovery
	// must survive.
	first := threatraptor.New(durableOpts(dir, in.set))
	ws, err := openWatches(first, in.watches)
	if err != nil {
		return nil, err
	}
	next := 0
	for batch := int64(0); batch < prefixBatches; next++ {
		if next == len(in.chunks) {
			return nil, fmt.Errorf("the stream sealed only %d batches, set-up wants %d", batch, prefixBatches)
		}
		st, err := first.Ingest(bytes.NewReader(in.chunks[next]))
		if err != nil {
			return nil, fmt.Errorf("prefix ingest: %w", err)
		}
		batch = st.Batch
		ws.drain()
	}
	if _, err := first.FlushStream(); err != nil {
		return nil, err
	}
	ws.drain()
	prefixRecords := in.chunkEnd[next-1]
	empty := make([]map[string]bool, len(in.watches))
	if err := ws.check(out, first, empty, attackedHosts(in.clones, 0, prefixRecords)); err != nil {
		return nil, err
	}
	want, err := signature(first, in.watches)
	if err != nil {
		return nil, err
	}
	if cfg.breakOracle {
		want.events++
	}
	bytesOnDisk, _ := dirBytes(dir)
	out.note("prefix: %d chunks, %d raw records, %d events, %d firings; %.1f bytes on disk per event; fsync %s, segment every %d batches, %d rules, %d standing queries",
		next, prefixRecords, want.events, ws.firings, float64(bytesOnDisk)/float64(want.events), ingestFsync, ingestSegmentEvery, in.set.Len(), len(in.watches))
	first, ws = nil, nil

	// Phase 2: set-up is the restart — reopen the directory (newest
	// segment generation + WAL tail replay + tactical catch-up) until the
	// first hunt is answered.
	var sys *threatraptor.System
	var fsyncMS, flushMS samples
	setupS, err := setupUntil(func() error {
		sys = nil
		o := durableOpts(dir, in.set)
		o.OnWALFsync = func(d time.Duration) { fsyncMS = append(fsyncMS, ms(d)) }
		o.OnSegmentFlush = func(fs stream.FlushStats) { flushMS = append(flushMS, ms(fs.Took)) }
		s := threatraptor.New(o)
		if _, err := s.Live(); err != nil {
			return err
		}
		if _, _, err := s.Hunt(context.Background(), in.watches[0]); err != nil {
			return err
		}
		sys = s
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("recovery: %w", err)
	}
	out.metrics["setup_s"] = median(setupS)
	out.metrics["mem_mb"] = heapMiB() - base
	rs := sys.RecoveryStats()
	out.note("recovery ×%d: generation %d, %d WAL records replayed (%d events)", len(setupS), rs.ManifestSeq, rs.ReplayedRecords, rs.ReplayedEvents)
	got, err := signature(sys, in.watches)
	if err != nil {
		return nil, err
	}
	out.attempted++
	if !got.equal(want) {
		out.fail(1, fmt.Errorf("recovery: reopened store has %d events, abandoned one had %d, or a hunt's rows differ", got.events, want.events))
	}

	// Phase 3: the measured work — one closed-loop writer.
	ws, err = openWatches(sys, in.watches)
	if err != nil {
		return nil, err
	}
	before := make([]map[string]bool, len(in.watches))
	for i, q := range in.watches {
		if before[i], err = huntRows(sys, q); err != nil {
			return nil, err
		}
	}
	fsyncMS, flushMS = nil, nil
	if next+warm+measured > len(in.chunks) {
		return nil, fmt.Errorf("set-up took %d chunks to seal %d batches; %d are left, the run wants %d", next, prefixBatches, len(in.chunks)-next, warm+measured)
	}
	res := countedLoop(warm, measured, func(int) error {
		_, err := sys.Ingest(bytes.NewReader(in.chunks[next]))
		next++
		ws.drain()
		return err
	})
	out.addLoop(res, ingestTail)
	if _, err := sys.FlushStream(); err != nil {
		return nil, err
	}
	ws.drain()
	sent := in.chunkEnd[next-1]
	sort.Float64s(fsyncMS)
	sort.Float64s(flushMS)
	out.note("diagnostic: %d WAL fsyncs p50 %.3f ms p95 %.3f ms, sum %.0f ms; %d segment flushes, sum %.0f ms, longest %.0f ms",
		len(fsyncMS), fsyncMS.quantile(0.5), fsyncMS.quantile(0.95), fsyncMS.sum(), len(flushMS), flushMS.sum(), flushMS.quantile(1))
	out.note("measured %d chunks in %.2f s after %d of warm-up (%.0f records/s); stream position %d raw records, %d firings since recovery, store now %d events",
		measured, res.Elapsed.Seconds(), warm, res.opsPerSec()*chunkRecords, sent, ws.firings, sys.Store().Snapshot().NextEventID-1)
	if err := ws.check(out, sys, before, attackedHosts(in.clones, prefixRecords, sent)); err != nil {
		return nil, err
	}
	if err := checkTactical(out, sys, in.set); err != nil {
		return nil, err
	}
	runtime.KeepAlive(in)
	return out, nil
}

// staged is the benchmark's own copy of stream.Session's ingest path
// (Session.Ingest + advanceLocked + fireLocked + flushSegmentsLocked),
// built from the layers' public functions with a span around each call.
type staged struct {
	rec    *recorder
	dir    string
	store  *engine.Store
	en     *engine.Engine
	parser *audit.Parser
	plog   *audit.Log
	red    *reduction.Streamer
	tact   *tactical.Analyzer
	wal    *segment.WAL

	watches      []*tbql.Analyzed
	seen         []*relational.RowSet
	lastEntityID int64
	seq          uint64
	gen          int64
	sinceFlush   int

	// Work counts.
	records, sealed    int
	frames, flushes    int
	walBytes, segBytes int64
	firings            int
	alerts             int
}

func newStaged(rec *recorder, dir string, set *rules.Set, watches []string) (*staged, error) {
	store, err := engine.NewStore(audit.NewLog())
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	wal, err := segment.OpenWAL(dir)
	if err != nil {
		return nil, err
	}
	plog := &audit.Log{Entities: store.Log.Entities}
	cfg := reduction.DefaultConfig()
	s := &staged{
		rec: rec, dir: dir, store: store, en: &engine.Engine{Store: store},
		parser: audit.NewParserWith(plog), plog: plog,
		red:  reduction.NewStreamer(cfg, cfg.ThresholdUS),
		tact: tactical.NewAnalyzer(tactical.Config{Rules: set}),
		wal:  wal,
	}
	for _, src := range watches {
		q, err := tbql.Parse(src)
		if err != nil {
			return nil, err
		}
		a, err := tbql.Analyze(q)
		if err != nil {
			return nil, err
		}
		s.watches = append(s.watches, a)
		s.seen = append(s.seen, relational.NewRowSet())
	}
	return s, nil
}

// ingest moves one chunk (or, with flush, everything still buffered)
// through the staged pipeline.
func (s *staged) ingest(chunk []byte, req int, flush bool) error {
	r := s.rec
	root := r.begin("ingest", -1, req)
	defer r.end(root)

	sp := r.begin("audit", root, req)
	err := s.parser.FeedChunk(chunk)
	if err == nil && flush {
		err = s.parser.FlushChunk()
	}
	r.end(sp)
	if err != nil {
		return err
	}

	sp = r.begin("reduction", root, req)
	parsed := s.plog.TakeEvents()
	s.red.Observe(parsed)
	var sealed []audit.Event
	if flush {
		sealed = s.red.Flush()
	} else {
		sealed = s.red.Seal()
	}
	r.end(sp)
	s.records += len(parsed)
	s.sealed += len(sealed)

	ents := s.store.Log.Entities.Since(s.lastEntityID)
	if len(sealed) == 0 && len(ents) == 0 {
		return nil
	}
	floor := s.store.NextEventID()

	sp = r.begin("segment", root, req)
	payload := segment.EncodeRecord(s.seq+1, ents, sealed)
	if err = s.wal.Append(payload); err == nil {
		err = s.wal.Sync()
	}
	r.end(sp)
	if err != nil {
		return err
	}
	s.frames++
	s.walBytes += int64(len(payload)) + 8

	sp = r.begin("engine", root, req)
	err = s.store.AppendBatch(ents, sealed)
	r.end(sp)
	if err != nil {
		return err
	}
	s.seq++
	s.lastEntityID = s.store.Log.Entities.MaxID()
	if len(sealed) == 0 {
		return nil
	}

	for i, a := range s.watches {
		sp = r.begin("engine", root, req)
		res, _, err := s.en.ExecuteDelta(context.Background(), a, floor)
		r.end(sp)
		if err != nil {
			return err
		}
		for _, row := range res.Set.Rows {
			if s.seen[i].Add(row) {
				s.firings++
			}
		}
	}

	sp = r.begin("tactical", root, req)
	rs := s.tact.RoundOn(tactical.SnapSource{Snap: s.store.Snapshot()}, floor)
	r.end(sp)
	s.alerts += rs.Alerts

	if s.sinceFlush++; s.sinceFlush >= ingestSegmentEvery {
		sp = r.begin("segment", root, req)
		err = s.flushSegment()
		r.end(sp)
	}
	return err
}

// flushSegment writes one segment generation and retires the WAL, as
// Session.flushSegmentsLocked does for an unsharded store.
func (s *staged) flushSegment() error {
	if err := s.wal.Sync(); err != nil {
		return err
	}
	gen := s.gen + 1
	name := segment.SegmentFileName(gen, segment.RoleGlobal)
	n, err := segment.WriteSegment(s.dir, name, engine.DumpImage(s.store, true))
	if err != nil {
		return err
	}
	m := &segment.Manifest{Seq: gen, WALFloor: s.seq, Segments: []segment.SegmentRef{{Role: segment.RoleGlobal, File: name}}}
	if err := segment.WriteManifest(s.dir, m); err != nil {
		return err
	}
	s.gen, s.sinceFlush = gen, 0
	s.flushes++
	s.segBytes += n
	if err := s.wal.Truncate(0); err != nil {
		return err
	}
	return segment.RemoveStale(s.dir, m)
}

func traceIngestDurable(cfg *config) (*outcome, error) {
	out := &outcome{metrics: map[string]float64{}}
	_, measured, _, scale := ingestSizes(cfg)
	n := measured / 2
	in, err := genIngestInputs(cfg, n, scale)
	if err != nil {
		return nil, err
	}
	tmp, err := cfg.scratch()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	// Untraced pass through the System, with the public observer hooks
	// counting what the durability and tactical layers did.
	var fsyncs, flushes, rounds int
	var fsyncNS, roundNS time.Duration
	var flushBytes int64
	opts := durableOpts(filepath.Join(tmp, "sys"), in.set)
	opts.OnWALFsync = func(d time.Duration) { fsyncs++; fsyncNS += d }
	opts.OnSegmentFlush = func(fs stream.FlushStats) { flushes++; flushBytes += fs.Bytes }
	opts.OnTacticalRound = func(d time.Duration, _ tactical.RoundStats) { rounds++; roundNS += d }
	sys := threatraptor.New(opts)
	ws, err := openWatches(sys, in.watches)
	if err != nil {
		return nil, err
	}
	wireBytes := 0
	untraced := countedLoop(0, n, func(i int) error {
		_, err := sys.Ingest(bytes.NewReader(in.chunks[i]))
		wireBytes += len(in.chunks[i])
		ws.drain()
		return err
	})
	if _, err := sys.FlushStream(); err != nil {
		return nil, err
	}
	ws.drain()
	want, err := signature(sys, in.watches)
	if err != nil {
		return nil, err
	}
	if cfg.breakOracle {
		want.events++
	}
	onDisk, files := dirBytes(opts.DataDir)
	tstats := sys.TacticalStats()
	var dropped int64
	for _, sub := range ws.subs {
		dropped += sub.Dropped()
	}

	// Traced pass: the same n chunks through the staged copy.
	rec := newRecorder()
	st, err := newStaged(rec, filepath.Join(tmp, "staged"), in.set, in.watches)
	if err != nil {
		return nil, err
	}
	defer st.wal.Close()
	var lat samples
	t0 := time.Now()
	for i := 0; i < n; i++ {
		t := time.Now()
		if err := st.ingest(in.chunks[i], i+1, false); err != nil {
			return nil, fmt.Errorf("staged ingest: %w", err)
		}
		lat = append(lat, ms(time.Since(t)))
	}
	elapsed := time.Since(t0)
	if err := st.ingest(nil, n+1, true); err != nil {
		return nil, fmt.Errorf("staged flush: %w", err)
	}
	traced := loopResult{Lat: lat, Attempted: n, Elapsed: elapsed}
	sort.Float64s(traced.Lat)

	// The staged copy must end where the System did.
	got := storeSig{events: st.store.Snapshot().NextEventID - 1}
	full := &engine.Engine{Store: st.store}
	for _, q := range in.watches {
		res, _, err := full.Hunt(context.Background(), q)
		if err != nil {
			return nil, err
		}
		got.hashes = append(got.hashes, resultHash(res))
	}
	out.attempted += untraced.Attempted + n + 1
	if untraced.Failed > 0 {
		out.fail(untraced.Failed, untraced.FirstErr)
	}
	if !got.equal(want) || st.firings != ws.firings || int64(st.alerts) != tstats.AlertsTagged {
		out.fail(1, fmt.Errorf("staged copy diverged from the System: events %d vs %d, firings %d vs %d, alerts %d vs %d, or a hunt's rows differ",
			got.events, want.events, st.firings, ws.firings, st.alerts, tstats.AlertsTagged))
	}

	self := selfTimes(rec.spans)
	total := float64(rootNS(rec.spans))
	ops := float64(n)
	perOp := func(name string) float64 { return float64(self[name].SelfNS) / 1e3 / ops }
	m := out.metrics
	m["traced_op_p50_ms"] = traced.Lat.quantile(0.5)
	m["trace_overhead_pct"] = 100 * (traced.Lat.quantile(0.5) - untraced.Lat.quantile(0.5)) / untraced.Lat.quantile(0.5)
	for _, l := range []string{"audit", "reduction", "segment", "engine", "tactical"} {
		m[l+"_us_per_op"] = perOp(l)
	}
	m["stream_us_per_op"] = perOp("ingest")
	path := float64(self["audit"].SelfNS + self["reduction"].SelfNS + self["segment"].SelfNS + self["tactical"].SelfNS)
	m["ingest_path_share_pct"] = 100 * path / total
	m["engine_share_pct"] = 100 * float64(self["engine"].SelfNS) / total
	views := st.en.Views()
	m["engine_view_rows"] = float64(views.CachedRows)
	m["engine_view_catchup_skips"] = float64(views.CatchupSkips)
	m["audit_records_per_op"] = float64(st.records) / ops
	m["reduction_merge_ratio"] = float64(st.records) / float64(st.sealed)
	m["segment_wal_frames_per_op"] = float64(st.frames) / ops
	if fsyncs > 0 {
		m["segment_fsync_us"] = float64(fsyncNS.Microseconds()) / float64(fsyncs)
	}
	m["segment_flushes"] = float64(flushes)
	m["segment_write_amp"] = float64(st.walBytes+flushBytes) / float64(wireBytes)
	m["segment_files_on_disk"] = float64(files)
	m["disk_bytes_per_event"] = float64(onDisk) / float64(want.events)
	m["ingest_records_per_s"] = float64(in.chunkEnd[n-1]) / untraced.Elapsed.Seconds()
	if rounds > 0 {
		m["tactical_round_us"] = float64(roundNS.Microseconds()) / float64(rounds)
	}
	m["tactical_alerts_per_event"] = float64(tstats.AlertsTagged) / float64(want.events)
	m["tactical_incidents_open"] = float64(tstats.Incidents)
	m["stream_firings"] = float64(ws.firings)
	m["stream_dropped"] = float64(dropped)
	out.note("%d chunks (%d raw records, %d events) through the System untraced, then through the staged copy traced", n, in.chunkEnd[n-1], want.events)
	out.note("durability: fsync %s (%d fsyncs), segment every %d batches (%d flushes, %.1f MB), %d files / %.1f MB on disk",
		ingestFsync, fsyncs, ingestSegmentEvery, flushes, float64(flushBytes)/1e6, files, float64(onDisk)/1e6)
	out.note("ingest time by layer (self time of the staged copy):")
	for _, name := range []string{"audit", "reduction", "segment", "engine", "tactical", "ingest"} {
		s := self[name]
		out.note("  %-9s %7d spans  %9.1f ms busy  %5.1f%% of ingest time", name, s.Count, float64(s.SelfNS)/1e6, 100*float64(s.SelfNS)/total)
	}
	out.note("tracing overhead: traced p50 %.4f ms vs untraced p50 %.4f ms per chunk", traced.Lat.quantile(0.5), untraced.Lat.quantile(0.5))
	if err := rec.write(tracePath(cfg)); err != nil {
		return nil, err
	}
	runtime.KeepAlive(in)
	return out, nil
}
