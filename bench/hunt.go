package main

// hunt-history: read-only hunts over a store larger than any cache. The
// engine, relational and graph layers do nearly all the work; ingest, NLP
// and storage do none.

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"threatraptor"
	"threatraptor/internal/engine"
	"threatraptor/internal/tbql"
)

const (
	// huntClones × ≈11 k records ≈ 350 k raw records ≈ 170 k reduced events.
	huntClones      = 32
	huntClonesShort = 8
	huntClients     = 2
	// setupReps is the least number of times a workload sets the system
	// up; setup_s is the median (see setupUntil).
	setupReps = 3
	// uniquePct of hunts are rewritten by uniqueVariant so the analyzed
	// and plan caches miss.
	uniquePct = 20
)

// heapMiB is the live heap after a full collection (two cycles, so that
// sync.Pool victims and finalized objects are gone too).
func heapMiB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// setupUntil repeats a set-up at least setupReps times and until half a
// second of set-up has been timed, so that a millisecond-scale set-up is
// still reported as the median of many samples. The previous repetition's
// system is collected before each timed one.
func setupUntil(once func() error) ([]float64, error) {
	var took []float64
	var total float64
	for len(took) < setupReps || (total < 0.5 && len(took) < 40) {
		runtime.GC()
		t0 := time.Now()
		if err := once(); err != nil {
			return nil, err
		}
		s := time.Since(t0).Seconds()
		took = append(took, s)
		total += s
	}
	return took, nil
}

// huntBench is a loaded hunt-history system with its pool and oracle.
type huntBench struct {
	sys    *threatraptor.System
	pool   []poolQuery
	ref    []uint64 // reference hash per pool query
	setupS []float64
	memMiB float64
}

func huntCloneCount(cfg *config) (int, float64) {
	if cfg.short {
		return huntClonesShort, shortScale
	}
	return huntClones, cloneScale
}

// setupHunt generates the store's records, loads them (repeatedly and
// timed up to the first answered hunt when timed is set), and computes the
// pool's reference answers.
func setupHunt(cfg *config, timed bool) (*huntBench, *outcome, error) {
	out := &outcome{metrics: map[string]float64{}}
	n, scale := huntCloneCount(cfg)
	st := genStream(cfg.seed, scale, 0, n, 1, streamStartUS)
	log := wire(st.Records)
	pool, err := genQueryPool(st.Records[0].Time, st.Records[len(st.Records)-1].Time)
	if err != nil {
		return nil, nil, err
	}
	hb := &huntBench{pool: pool}

	base := heapMiB()
	once := func() error {
		hb.sys = nil
		sys := threatraptor.New(threatraptor.DefaultOptions())
		if err := sys.LoadAuditLog(bytes.NewReader(log)); err != nil {
			return err
		}
		if _, _, err := sys.Hunt(context.Background(), pool[0].Src); err != nil {
			return err
		}
		hb.sys = sys
		return nil
	}
	if timed {
		if hb.setupS, err = setupUntil(once); err != nil {
			return nil, nil, err
		}
	} else if err := once(); err != nil {
		return nil, nil, err
	}
	hb.memMiB = heapMiB() - base
	snap := hb.sys.Store().Snapshot()
	out.note("store: %d clones, %d raw records (%.1f MB wire), %d events, %d entities; pool %d queries",
		n, len(st.Records), float64(len(log))/1e6, snap.NextEventID-1, len(snap.Entities), len(pool))

	or := newOracle(hb.sys.Store(), cfg.breakOracle)
	for _, q := range pool {
		h, err := or.hash(q.Src, false)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", q.Name, err)
		}
		hb.ref = append(hb.ref, h)
	}
	if err := hb.checkGroundTruth(cfg, st, out); err != nil {
		return nil, nil, err
	}
	runtime.KeepAlive(log)
	return hb, out, nil
}

// checkGroundTruth holds every planted case's hit query to the attacks
// planted: over the full store it must match exactly (instances planted) ×
// (events it matches on a store holding one instance alone).
func (hb *huntBench) checkGroundTruth(cfg *config, st *recStream, out *outcome) error {
	_, scale := huntCloneCount(cfg)
	planted := st.attacks()
	for i, q := range hb.pool {
		if q.Planted == "" {
			continue
		}
		idx := 0
		for k, id := range plantedCases {
			if id == q.Planted {
				idx = k
			}
		}
		one := genStream(cfg.seed, scale, idx, 1, 1, streamStartUS)
		sys := threatraptor.New(threatraptor.DefaultOptions())
		if err := sys.LoadAuditLog(bytes.NewReader(wire(one.Records))); err != nil {
			return err
		}
		single, _, err := sys.Hunt(context.Background(), q.Src)
		if err != nil {
			return err
		}
		full, _, err := hb.sys.Hunt(context.Background(), q.Src)
		if err != nil {
			return err
		}
		out.attempted++
		want := planted[q.Planted] * len(single.MatchedEvents)
		if len(single.MatchedEvents) == 0 || len(full.MatchedEvents) != want || resultHash(full) != hb.ref[i] {
			out.fail(1, fmt.Errorf("ground truth: %s matched %d events over %d planted instances, want %d (%d per instance)",
				q.Name, len(full.MatchedEvents), planted[q.Planted], want, len(single.MatchedEvents)))
		}
	}
	return nil
}

// huntDeck is a client's deck over a hunt pool.
func huntDeck(pool []poolQuery) *deck {
	weights := make([]int, len(pool))
	for i, q := range pool {
		weights[i] = q.Weight
	}
	return newDeck(weights)
}

// drawHunt deals the next hunt; uniquePct of them are rewritten to a
// never-seen text.
func drawHunt(pool []poolQuery, d *deck, rng *rand.Rand) (idx int, src string) {
	idx = d.deal(rng)
	src = pool[idx].Src
	if rng.Intn(100) < uniquePct {
		src = uniqueVariant(src, rng.Int63())
	}
	return idx, src
}

func runHuntHistory(cfg *config) (*outcome, error) {
	hb, out, err := setupHunt(cfg, true)
	if err != nil {
		return nil, err
	}
	out.metrics["setup_s"] = median(hb.setupS)
	out.metrics["mem_mb"] = hb.memMiB
	out.note("setup_s samples %v", hb.setupS)
	ctx := context.Background()
	decks := make([]*deck, huntClients)
	for i := range decks {
		decks[i] = huntDeck(hb.pool)
	}
	res := closedLoop(cfg.seed, huntClients, cfg.warm(), cfg.window(), func(c int, rng *rand.Rand) error {
		idx, src := drawHunt(hb.pool, decks[c], rng)
		r, _, err := hb.sys.Hunt(ctx, src)
		if err != nil {
			return fmt.Errorf("%s: %w", hb.pool[idx].Name, err)
		}
		if resultHash(r) != hb.ref[idx] {
			return fmt.Errorf("%s: rows differ from the oracle", hb.pool[idx].Name)
		}
		return nil
	})
	out.addLoop(res, 0.95)
	return out, nil
}

// huntPipeline is the benchmark's own copy of the hunt path — source text
// → tbql.Parse/Analyze (cached by text, flushed at 256 like the engine's
// cache) → engine.Execute — with a span around each layer call.
type huntPipeline struct {
	en     *engine.Engine
	cache  map[string]*tbql.Analyzed
	rec    *recorder
	counts layerCounts
}

// layerCounts are the work counts the traced run sums per layer.
type layerCounts struct {
	ops                               int
	patterns                          int
	dataQueries, patRows, joinBinds   int
	rowsOut                           int
	relScanned, relLookups, relBuilds int
	nodesVisited, edgesTraversed      int
	entities, relations               int
}

func newHuntPipeline(store *engine.Store, rec *recorder) *huntPipeline {
	return &huntPipeline{en: &engine.Engine{Store: store}, cache: map[string]*tbql.Analyzed{}, rec: rec}
}

// hunt runs one query under parent span root.
func (p *huntPipeline) hunt(ctx context.Context, src string, root, req int) (*engine.Result, error) {
	a, ok := p.cache[src]
	if !ok {
		sp := p.rec.begin("tbql", root, req)
		q, err := tbql.Parse(src)
		if err == nil {
			a, err = tbql.Analyze(q)
		}
		p.rec.end(sp)
		if err != nil {
			return nil, err
		}
		if len(p.cache) >= 256 {
			p.cache = map[string]*tbql.Analyzed{}
		}
		p.cache[src] = a
	}
	sp := p.rec.begin("engine", root, req)
	res, st, err := p.en.Execute(ctx, a)
	p.rec.end(sp)
	if err != nil {
		return nil, err
	}
	c := &p.counts
	c.ops++
	c.patterns += len(a.Query.Patterns)
	c.dataQueries += st.DataQueries
	c.patRows += st.PatternRows
	c.joinBinds += st.JoinBindings
	c.rowsOut += res.Set.Len()
	c.relScanned += st.Rel.RowsScanned
	c.relLookups += st.Rel.IndexLookups
	c.relBuilds += st.Rel.HashJoinBuilds
	c.nodesVisited += st.Graph.NodesVisited
	c.edgesTraversed += st.Graph.EdgesTraversed
	return res, nil
}

// readLayerMetrics turns a traced read-path pass into per-layer metrics.
func readLayerMetrics(out *outcome, rec *recorder, c *layerCounts, traced, untraced loopResult) {
	self := selfTimes(rec.spans)
	total := float64(rootNS(rec.spans))
	ops := float64(c.ops)
	perOp := func(name string) float64 { return float64(self[name].SelfNS) / 1e3 / ops }
	m := out.metrics
	m["traced_op_p50_ms"] = traced.Lat.quantile(0.5)
	m["trace_overhead_pct"] = 100 * (traced.Lat.quantile(0.5) - untraced.Lat.quantile(0.5)) / untraced.Lat.quantile(0.5)
	m["extract_us_per_op"] = perOp("extract")
	m["synth_us_per_op"] = perOp("synth")
	m["tbql_us_per_op"] = perOp("tbql")
	m["engine_us_per_op"] = perOp("engine")
	m["stream_us_per_op"] = perOp("request")
	nlp := float64(self["extract"].SelfNS + self["synth"].SelfNS + self["tbql"].SelfNS)
	m["nlp_path_share_pct"] = 100 * nlp / total
	m["engine_share_pct"] = 100 * float64(self["engine"].SelfNS) / total
	m["extract_entities_per_op"] = float64(c.entities) / ops
	m["extract_relations_per_op"] = float64(c.relations) / ops
	m["tbql_patterns_per_op"] = float64(c.patterns) / ops
	m["engine_data_queries_per_op"] = float64(c.dataQueries) / ops
	m["engine_pattern_rows_per_op"] = float64(c.patRows) / ops
	m["engine_join_bindings_per_op"] = float64(c.joinBinds) / ops
	rows := float64(c.rowsOut)
	if rows == 0 {
		rows = 1
	}
	m["engine_examined_per_row"] = float64(c.relScanned+c.edgesTraversed) / rows
	m["rel_rows_scanned_per_op"] = float64(c.relScanned) / ops
	m["rel_index_lookups_per_op"] = float64(c.relLookups) / ops
	m["rel_hashjoin_builds_per_op"] = float64(c.relBuilds) / ops
	m["graph_nodes_visited_per_op"] = float64(c.nodesVisited) / ops
	m["graph_edges_traversed_per_op"] = float64(c.edgesTraversed) / ops
	out.note("traced %d requests, %d spans; request time by layer (self time):", c.ops, len(rec.spans))
	for _, name := range []string{"extract", "synth", "tbql", "engine", "request"} {
		if s, ok := self[name]; ok {
			out.note("  %-8s %7d spans  %9.1f ms busy  %5.1f%% of request time", name, s.Count, float64(s.SelfNS)/1e6, 100*float64(s.SelfNS)/total)
		}
	}
	out.note("tracing overhead: traced p50 %.4f ms vs untraced p50 %.4f ms (one client each)",
		traced.Lat.quantile(0.5), untraced.Lat.quantile(0.5))
}

// traceWindows splits the run's seconds between the untraced reference
// pass and the traced pass.
func traceWindows(cfg *config) (untraced, traced time.Duration) {
	return cfg.window() / 3, cfg.window() - cfg.window()/3
}

func traceHuntHistory(cfg *config) (*outcome, error) {
	hb, out, err := setupHunt(cfg, false)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	uw, tw := traceWindows(cfg)
	d := huntDeck(hb.pool)
	untraced := closedLoop(cfg.seed, 1, cfg.warm(), uw, func(_ int, rng *rand.Rand) error {
		_, src := drawHunt(hb.pool, d, rng)
		_, _, err := hb.sys.Hunt(ctx, src)
		return err
	})
	rec := newRecorder()
	pipe := newHuntPipeline(hb.sys.Store(), rec)
	req := 0
	traced := closedLoop(cfg.seed, 1, 0, tw, func(_ int, rng *rand.Rand) error {
		idx, src := drawHunt(hb.pool, d, rng)
		req++
		root := rec.begin("request", -1, req)
		r, err := pipe.hunt(ctx, src, root, req)
		rec.end(root)
		if err != nil {
			return err
		}
		if resultHash(r) != hb.ref[idx] {
			return fmt.Errorf("%s: traced rows differ from the oracle", hb.pool[idx].Name)
		}
		return nil
	})
	out.count(untraced)
	out.count(traced)
	readLayerMetrics(out, rec, &pipe.counts, traced, untraced)
	if err := rec.write(tracePath(cfg)); err != nil {
		return nil, err
	}
	return out, nil
}
