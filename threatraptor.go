// Package threatraptor is a from-scratch Go implementation of
// ThreatRaptor (Gao et al., "Enabling Efficient Cyber Threat Hunting With
// Cyber Threat Intelligence", ICDE 2021): a system that facilitates threat
// hunting in computer systems using open-source Cyber Threat Intelligence
// (OSCTI).
//
// The System type is the façade over the full pipeline:
//
//	sys := threatraptor.New()
//	sys.LoadAuditLog(logFile)              // system audit logging data
//	res := sys.ExtractBehaviorGraph(text)  // OSCTI text -> threat behavior graph
//	query, _ := sys.SynthesizeQuery(res.Graph)
//	hits, _, _ := sys.Hunt(ctx, query)     // TBQL execution
//
// Every stage is also usable on its own through the internal packages:
// audit (system auditing), reduction (data reduction), nlp (the NLP
// substrate), ioc (IOC recognition and protection), extract (threat
// behavior extraction), tbql (the query language), synth (query
// synthesis), engine (storage and scheduled execution), and fuzzy (the
// Poirot-style fuzzy search mode over the store's provenance graph).
package threatraptor

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"threatraptor/internal/audit"
	"threatraptor/internal/engine"
	"threatraptor/internal/extract"
	"threatraptor/internal/fuzzy"
	"threatraptor/internal/reduction"
	"threatraptor/internal/rules"
	"threatraptor/internal/segment"
	"threatraptor/internal/shard"
	"threatraptor/internal/stream"
	"threatraptor/internal/synth"
	"threatraptor/internal/tactical"
	"threatraptor/internal/tbql"
)

// Options configures a System.
type Options struct {
	// IOCProtection toggles the extraction pipeline's IOC protection
	// (default on; disabling reproduces the paper's ablation).
	IOCProtection bool
	// ReductionThresholdUS is the data reduction merge threshold in µs
	// (default 1 second, the paper's choice).
	ReductionThresholdUS int64
	// StreamLatenessUS bounds how late an event may arrive on the live
	// ingest path and still merge (watermark lag). Values below the
	// reduction threshold are raised to it; zero means "threshold".
	StreamLatenessUS int64
	// SynthesisMode selects the synthesized pattern syntax.
	SynthesisMode synth.Mode
	// MaxConcurrentHunts caps how many hunts (Hunt, FuzzyHunt, HuntOSCTI)
	// run at once; later arrivals queue up to HuntQueueTimeout and are
	// then shed with an error wrapping engine.ErrOverloaded. Zero or
	// negative: unlimited (the default).
	MaxConcurrentHunts int
	// HuntQueueTimeout is how long a hunt waits for a slot when
	// MaxConcurrentHunts is reached (zero: reject immediately when full).
	HuntQueueTimeout time.Duration
	// Shards partitions the store into N start-time-slice partitions with
	// scatter-gather hunt execution (see internal/shard): pattern data
	// queries route only to the partitions their window and operations
	// can touch and run concurrently against per-shard snapshots, while
	// the global store stays authoritative for variable-length paths,
	// fuzzy search, and the tactical layer.
	// 0 or 1 keeps the classic single store.
	Shards int
	// PartitionBy is the width of the start-time slices events route by:
	// "time:<dur>" (e.g. "time:5m"), or "time" or "" for 1 h slices.
	// Slice k goes to partition k mod Shards. A data dir records the
	// width it was persisted under and reopens only with the same one.
	// It is parsed whatever the shard count, so an invalid spec fails
	// an unsharded run too; it routes only when Shards > 1.
	PartitionBy string
	// Rules is the compiled detection rule set for the tactical layer.
	// When set, the live session tags rule-matching events per sealed
	// batch and maintains ranked incidents (Incidents, WatchIncidents).
	// Nil disables the tactical layer.
	Rules *rules.Set
	// OnTacticalRound, when set, observes every tactical round (duration
	// and round stats). It is called from the ingestion path — keep it
	// cheap (metrics recording).
	OnTacticalRound func(time.Duration, tactical.RoundStats)
	// DataDir enables the durable crash-safe store: the live session
	// write-ahead-logs every sealed batch into this directory and
	// periodically flushes checksummed columnar segment files, and Live()
	// recovers whatever a previous session persisted there (segments +
	// WAL replay). Empty keeps the classic in-memory store.
	DataDir string
	// FsyncPolicy is the WAL fsync policy: "always" (default), "batch"
	// (only at segment-flush boundaries), or "off".
	FsyncPolicy string
	// SegmentEvery flushes a segment generation every N sealed batches
	// (default 64). Clean Close always flushes.
	SegmentEvery int
	// RecoverCorrupt opts into degraded recovery: mid-file WAL corruption
	// truncates to the last consistent prefix instead of refusing startup.
	RecoverCorrupt bool
	// OnWALFsync, when set, observes every WAL fsync duration.
	OnWALFsync func(time.Duration)
	// OnSegmentFlush, when set, observes every segment flush attempt.
	OnSegmentFlush func(stream.FlushStats)
}

// DefaultOptions returns the paper's configuration.
func DefaultOptions() Options {
	return Options{
		IOCProtection:        true,
		ReductionThresholdUS: 1_000_000,
		SynthesisMode:        synth.ModeEventPatterns,
	}
}

// System bundles the threat behavior extraction pipeline and the query
// subsystem over one audit log store.
type System struct {
	opts      Options
	extractor *extract.Extractor
	store     *engine.Store
	engine    *engine.Engine
	// shards is the sharded store coordinator (nil unless Options.Shards
	// > 1); when set, store is its global store and engine its global
	// engine, so snapshot readers (fuzzy, tactical, explain) are unchanged
	// and hunts and explains share one compiled-query cache.
	shards *shard.Store
	// live is the streaming ingestion session, created lazily by the
	// first Ingest or Watch call. No read path locks against it: hunts,
	// fuzzy search, explain, and incident listing all pin the engine's
	// published store snapshot (or the analyzer's own state).
	live *stream.Session
	// adm is the concurrent-hunt admission semaphore (nil: unlimited).
	adm *engine.Admission
	// recovery holds what the durable open found (zero value without
	// Options.DataDir or before Live).
	recovery stream.RecoveryStats
}

// New creates a System with the given options.
func New(opts Options) *System {
	return &System{
		opts: opts,
		extractor: extract.New(extract.Options{
			IOCProtection: opts.IOCProtection,
		}),
		adm: engine.NewAdmission(opts.MaxConcurrentHunts, opts.HuntQueueTimeout),
	}
}

// LoadAuditLog parses newline-delimited raw audit records from r, applies
// data reduction, and loads the result into the relational and graph
// storage backends.
func (s *System) LoadAuditLog(r io.Reader) error {
	log, err := audit.ParseStream(r)
	if err != nil {
		return err
	}
	return s.LoadLog(log)
}

// LoadLog applies data reduction to an already-parsed log and loads it
// into the storage backends. It cannot replace the store while a live
// ingestion session is active (close or flush the stream first).
func (s *System) LoadLog(log *audit.Log) error {
	if s.live != nil {
		return fmt.Errorf("threatraptor: live ingestion active; the stream owns the store")
	}
	reduction.Reduce(log, reduction.Config{ThresholdUS: s.opts.ReductionThresholdUS})
	return s.buildStore(log)
}

// buildStore constructs the storage layer over an already-reduced log:
// the classic single store, or (Options.Shards > 1) the sharded
// coordinator whose global store the façade's snapshot readers alias.
func (s *System) buildStore(log *audit.Log) error {
	sliceUS, err := shard.ParsePartitioner(s.opts.PartitionBy)
	if err != nil {
		return err
	}
	if s.opts.Shards > 1 {
		sh, err := shard.New(log, s.opts.Shards, sliceUS)
		if err != nil {
			return err
		}
		s.shards = sh
		s.store = sh.Global()
		s.engine = sh.GlobalEngine()
		return nil
	}
	store, err := engine.NewStore(log)
	if err != nil {
		return err
	}
	s.store = store
	s.engine = &engine.Engine{Store: store}
	return nil
}

// ShardStore exposes the sharded store coordinator (nil unless
// Options.Shards > 1): per-shard metrics, fan-out histogram.
func (s *System) ShardStore() *shard.Store { return s.shards }

// Live returns the streaming ingestion session, creating it on first use.
// If an audit log was already loaded, the stream appends to that store;
// otherwise it starts from an empty one. Advanced callers use the session
// directly (Unwatch, Close, IngestRecords); Ingest/Watch/FlushStream
// below cover the common path.
func (s *System) Live() (*stream.Session, error) {
	if s.live != nil {
		return s.live, nil
	}
	cfg := stream.Config{
		ReductionThresholdUS: s.opts.ReductionThresholdUS,
		LatenessUS:           s.opts.StreamLatenessUS,
		Tactical:             tactical.Config{Rules: s.opts.Rules},
		OnTacticalRound:      s.opts.OnTacticalRound,
	}
	if s.opts.DataDir != "" {
		return s.openDurable(cfg)
	}
	if s.store == nil {
		if err := s.buildStore(audit.NewLog()); err != nil {
			return nil, err
		}
	}
	if s.shards != nil {
		s.live = stream.NewWithBackend(s.shards, cfg)
	} else {
		s.live = stream.New(s.store, s.engine, cfg)
	}
	return s.live, nil
}

// openDurable opens the crash-safe live session over Options.DataDir:
// persisted state is recovered (segment restore + WAL replay) when the
// directory holds a committed manifest, otherwise the session starts
// over the current (possibly preloaded) store and persists from here on.
func (s *System) openDurable(cfg stream.Config) (*stream.Session, error) {
	cfg.Durability = stream.Durability{
		Dir:            s.opts.DataDir,
		Fsync:          s.opts.FsyncPolicy,
		SegmentEvery:   s.opts.SegmentEvery,
		RecoverCorrupt: s.opts.RecoverCorrupt,
		OnWALFsync:     s.opts.OnWALFsync,
		OnSegmentFlush: s.opts.OnSegmentFlush,
	}
	if s.store != nil && segment.Exists(s.opts.DataDir) {
		return nil, fmt.Errorf("threatraptor: data dir %s holds persisted state but a log is already loaded; skip preloading to recover it, or point DataDir at a fresh directory", s.opts.DataDir)
	}
	fresh := func() (stream.DurableBackend, error) {
		if s.store == nil {
			if err := s.buildStore(audit.NewLog()); err != nil {
				return nil, err
			}
		}
		if s.shards != nil {
			return s.shards, nil
		}
		return stream.NewBackend(s.store, s.engine), nil
	}
	fromImages := func(imgs []segment.RoleImage, topo segment.Topology) (stream.DurableBackend, error) {
		sliceUS, err := shard.ParsePartitioner(s.opts.PartitionBy)
		if err != nil {
			return nil, err
		}
		wantShards, wantPart := 0, ""
		if s.opts.Shards > 1 {
			wantShards, wantPart = s.opts.Shards, shard.SliceName(sliceUS)
		}
		if topo.Shards != wantShards || topo.PartitionBy != wantPart {
			return nil, fmt.Errorf(
				"threatraptor: data dir %s was persisted with %d shards (partitioner %q) but the configuration wants %d (%q); reshard by rebuilding from the source log, or match the persisted topology",
				s.opts.DataDir, topo.Shards, topo.PartitionBy, wantShards, wantPart)
		}
		if topo.Shards > 0 {
			sh, err := shard.OpenImages(imgs, topo.Shards, sliceUS)
			if err != nil {
				return nil, err
			}
			s.shards = sh
			s.store = sh.Global()
			s.engine = sh.GlobalEngine()
			return sh, nil
		}
		var gimg *segment.Image
		for _, ri := range imgs {
			if ri.Role == segment.RoleGlobal {
				gimg = ri.Image
			}
		}
		if gimg == nil {
			return nil, fmt.Errorf("threatraptor: data dir %s has no %q segment", s.opts.DataDir, segment.RoleGlobal)
		}
		st, err := engine.OpenStore(gimg, gimg.EntityCols, gimg.Entities, audit.RestoreTable(gimg.Entities))
		if err != nil {
			return nil, err
		}
		s.store = st
		s.engine = &engine.Engine{Store: st}
		return stream.NewBackend(st, s.engine), nil
	}
	live, rs, err := stream.OpenDurable(cfg, fresh, fromImages)
	if err != nil {
		return nil, err
	}
	s.live = live
	s.recovery = rs
	return live, nil
}

// RecoveryStats reports what the durable open recovered: zero value
// without Options.DataDir or before the live session exists.
func (s *System) RecoveryStats() stream.RecoveryStats { return s.recovery }

// Close shuts down the live session if one exists: buffered input is
// flushed, standing subscriptions terminate, and a durable session
// writes its final segment generation and closes the WAL. The store
// remains queryable. A System without a live session closes as a no-op.
func (s *System) Close() error {
	if s.live == nil {
		return nil
	}
	return s.live.Close()
}

// Ingest reads every currently available raw audit record from r into the
// live stream: complete lines are parsed (a trailing partial line is
// buffered for the next call), the watermark advances, newly sealed
// batches are appended to the store in place, and standing queries fire.
// Typical use tails a growing log file by calling Ingest on the same
// *os.File whenever it grows.
func (s *System) Ingest(r io.Reader) (stream.IngestStats, error) {
	live, err := s.Live()
	if err != nil {
		return stream.IngestStats{}, err
	}
	return live.Ingest(r)
}

// Watch registers a standing TBQL query against the live stream and runs
// nothing over history: every sealed batch is evaluated incrementally, and
// each projected row is delivered on the returned subscription's channel
// the first time a binding that uses an event sealed after Watch derives
// it. Use Hunt for history.
func (s *System) Watch(tbqlSrc string) (*stream.Subscription, error) {
	live, err := s.Live()
	if err != nil {
		return nil, err
	}
	return live.Watch(tbqlSrc)
}

// FlushStream force-seals everything buffered on the live stream (partial
// line, arrival buffer, pending merges) so the store reflects every byte
// ingested — the end-of-stream barrier after which a Hunt sees exactly
// what a batch load would have seen.
func (s *System) FlushStream() (stream.IngestStats, error) {
	if s.live == nil {
		return stream.IngestStats{}, nil
	}
	return s.live.Flush()
}

// Store exposes the loaded storage backends (nil before LoadLog).
func (s *System) Store() *engine.Store { return s.store }

// HuntsInFlight reports how many admitted hunts are currently running
// (always 0 when Options.MaxConcurrentHunts is unlimited — without a cap
// there is no admission semaphore to count against).
func (s *System) HuntsInFlight() int { return s.adm.InFlight() }

// ExtractBehaviorGraph runs the threat behavior extraction pipeline over
// OSCTI text, returning the recognized IOCs, the extracted relation
// triplets, and the constructed threat behavior graph.
func (s *System) ExtractBehaviorGraph(osctiText string) *extract.Result {
	return s.extractor.Extract(osctiText)
}

// SynthesizeQuery synthesizes a TBQL query (as text, ready for analyst
// revision) from a threat behavior graph.
func (s *System) SynthesizeQuery(g *extract.Graph) (string, error) {
	q, err := s.synthesize(g)
	if err != nil {
		return "", err
	}
	return tbql.Format(q), nil
}

func (s *System) synthesize(g *extract.Graph) (*tbql.Query, error) {
	q, _, err := synth.Synthesize(g, synth.Options{Mode: s.opts.SynthesisMode})
	return q, err
}

// Hunt parses and executes a TBQL query against the loaded store using
// the scheduled (exact search) execution plan. The hunt pins the store's
// latest published snapshot and takes no lock, so it runs concurrently
// with live ingestion and with other hunts. The context cancels the hunt
// cooperatively (nil: no cancellation); when Options caps concurrent
// hunts, the call may shed load with an error wrapping
// engine.ErrOverloaded.
func (s *System) Hunt(ctx context.Context, tbqlSrc string) (*engine.Result, engine.Stats, error) {
	if s.engine == nil {
		return nil, engine.Stats{}, errNoLog
	}
	a, err := s.engine.Compile(tbqlSrc)
	if err != nil {
		return nil, engine.Stats{}, err
	}
	return s.execute(ctx, a)
}

// errNoLog is what a hunt, explain or analysis returns before any audit
// log is loaded.
var errNoLog = errors.New("threatraptor: no audit log loaded")

// execute runs a query s.engine compiled, once admitted:
// scatter-gather on a sharded store, on s.engine otherwise. Every hunt
// takes this route, from text (Hunt) or from a report (HuntOSCTI).
func (s *System) execute(ctx context.Context, a *tbql.Analyzed) (*engine.Result, engine.Stats, error) {
	release, err := s.adm.Acquire(ctx)
	if err != nil {
		return nil, engine.Stats{}, err
	}
	defer release()
	if s.shards != nil {
		return s.shards.Execute(ctx, a)
	}
	return s.engine.Execute(ctx, a)
}

// Explain compiles a TBQL query without executing it and prints the plan
// a hunt of the same text runs: per-pattern logical-plan IR, each
// pattern's compiled SQL statement or Cypher traversal, the scheduled
// order, and the monolithic SQL/Cypher baselines. The query compiles
// through the engine's compiled-query cache, the one hunts use (sharded
// or not), so repeated explains reuse the hunt's cache entry instead of
// filling the cache.
func (s *System) Explain(tbqlSrc string) (string, error) {
	if s.engine == nil {
		return "", errNoLog
	}
	return s.engine.Explain(tbqlSrc)
}

// HuntOSCTI runs the whole pipeline end to end: extract the threat
// behavior graph from the report, synthesize a TBQL query, and execute it.
// The synthesized query reaches the engine as an AST, never re-parsed;
// its text, which a Hunt of the same text would run identically, is
// returned alongside the results.
func (s *System) HuntOSCTI(ctx context.Context, osctiText string) (string, *engine.Result, error) {
	q, err := s.synthesize(s.ExtractBehaviorGraph(osctiText).Graph)
	if err != nil {
		return "", nil, err
	}
	if s.engine == nil {
		return tbql.Format(q), nil, errNoLog
	}
	a, query, err := s.engine.CompileQuery(q)
	if err != nil {
		return query, nil, err
	}
	hits, _, err := s.execute(ctx, a)
	return query, hits, err
}

// FuzzyAlignment is one accepted fuzzy-search alignment, reported with
// entity names.
type FuzzyAlignment struct {
	Score    float64
	Entities map[string]string // query entity ID -> aligned attribute value
	Events   []int64           // covered audit event IDs
}

// FuzzyHunt executes a TBQL query in the fuzzy search mode (inexact graph
// pattern matching, extending Poirot): node-level alignment tolerates IOC
// typos and changes, and flow paths substitute for missing direct events.
// The search walks the graph of the store's latest published snapshot, so
// it takes no lock and runs concurrently with live ingestion. The hunt
// counts against Options.MaxConcurrentHunts; the context bounds the
// admission wait and cancels the search cooperatively, returning
// ctx.Err() and no alignments.
func (s *System) FuzzyHunt(ctx context.Context, tbqlSrc string, exhaustive bool) ([]FuzzyAlignment, error) {
	release, err := s.adm.Acquire(ctx)
	if err != nil {
		return nil, err
	}
	defer release()
	return s.fuzzyHunt(ctx, tbqlSrc, exhaustive)
}

func (s *System) fuzzyHunt(ctx context.Context, tbqlSrc string, exhaustive bool) ([]FuzzyAlignment, error) {
	if s.store == nil {
		return nil, errNoLog
	}
	q, err := tbql.Parse(tbqlSrc)
	if err != nil {
		return nil, err
	}
	a, err := tbql.Analyze(q)
	if err != nil {
		return nil, err
	}
	qg, err := fuzzy.FromTBQL(a)
	if err != nil {
		return nil, err
	}
	mode := fuzzy.ModeFirstAcceptable
	if exhaustive {
		mode = fuzzy.ModeExhaustive
	}
	searcher := fuzzy.NewSearcher(s.store.Snapshot(), qg, mode)
	als, err := searcher.Search(ctx)
	if err != nil {
		return nil, err
	}
	var out []FuzzyAlignment
	for _, al := range als {
		fa := FuzzyAlignment{
			Score:    al.Score,
			Entities: make(map[string]string, len(qg.Nodes)),
			Events:   al.Events,
		}
		for i, qn := range qg.Nodes {
			if al.NodeMap[i] != 0 {
				fa.Entities[qn.ID] = searcher.Name(al.NodeMap[i])
			}
		}
		out = append(out, fa)
	}
	return out, nil
}

// Incidents returns the tactical layer's ranked incident list (empty
// without Options.Rules or before any live ingestion). It takes no lock
// against ingestion.
func (s *System) Incidents() ([]tactical.Incident, error) {
	if s.opts.Rules == nil {
		return nil, stream.ErrTacticalDisabled
	}
	live, err := s.Live()
	if err != nil {
		return nil, err
	}
	return live.Incidents(), nil
}

// WatchIncidents subscribes to per-round incident updates from the live
// tactical layer. buf is the channel capacity (<=0: session default).
func (s *System) WatchIncidents(buf int) (*stream.IncidentSub, error) {
	if s.opts.Rules == nil {
		return nil, stream.ErrTacticalDisabled
	}
	live, err := s.Live()
	if err != nil {
		return nil, err
	}
	return live.WatchIncidents(buf)
}

// TacticalStats reports the tactical layer's lifetime totals (zeros when
// the layer is disabled or the live session was never created).
func (s *System) TacticalStats() tactical.Stats {
	if s.live == nil {
		return tactical.Stats{}
	}
	return s.live.TacticalStats()
}

// Analyze runs the tactical pipeline one-shot over the loaded store:
// every stored event is tagged against the rule set and the resulting
// incidents are ranked. It is the batch counterpart of the live layer
// (same analyzer, one round over the whole snapshot).
func (s *System) Analyze(set *rules.Set) ([]tactical.Incident, error) {
	if s.store == nil {
		return nil, errNoLog
	}
	return tactical.Analyze(s.store.Snapshot(), tactical.Config{Rules: set}), nil
}
