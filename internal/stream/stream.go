// Package stream is ThreatRaptor's streaming ingestion and continuous
// hunting subsystem: an append-only audit stream is parsed incrementally,
// reduced over a sliding watermark window, appended batch-by-batch into
// the live storage backends, and evaluated against registered standing
// TBQL queries so hunts fire as behaviors appear — no store rebuild, no
// batch re-run.
//
// A Session wires four stages together:
//
//	raw bytes -> audit.Parser (chunked, partial-line safe)
//	          -> reduction.Streamer (watermarked merge; sealed = immutable)
//	          -> engine.Store.AppendBatch (incremental indexes/adjacency)
//	          -> standing queries (delta-constrained scheduled execution)
//
// Writers (Ingest, Flush) take the session's write lock, which serializes
// appends, standing-query evaluation, and the tactical round. Reads take
// no session lock at all: every read path — hunts, fuzzy search, explain,
// incident listing — pins the store's latest published snapshot (see
// engine.Snapshot) and reads only that frozen generation, so reads run
// concurrently with each other and with an in-flight append without ever
// seeing a torn batch.
//
// When a rule set is configured (Config.Tactical), each sealed batch also
// runs one tactical round (internal/tactical) against the published
// snapshot: the delta's events are tagged into alerts, attributed to
// incidents by backward reachability, and the ranked incident list plus
// per-round updates are exposed through Incidents and WatchIncidents.
package stream

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"threatraptor/internal/audit"
	"threatraptor/internal/engine"
	"threatraptor/internal/faultinject"
	"threatraptor/internal/reduction"
	"threatraptor/internal/tactical"
)

// Fault-injection point names (see internal/faultinject).
const (
	// FaultParse fires inside Ingest after the input bytes are fed to the
	// parser, before the pipeline advances.
	FaultParse = "stream/parse"
	// FaultDeliver fires per standing-query evaluation in fireLocked,
	// after the engine's delta execution — the quarantine counter's probe.
	FaultDeliver = "stream/deliver"
)

// ErrSessionClosed is returned by Ingest, IngestRecords, Flush, and Watch
// once the session is closed.
var ErrSessionClosed = errors.New("stream: session closed")

// ErrTacticalDisabled is returned by WatchIncidents when the session has
// no configured rule set (Config.Tactical.Rules).
var ErrTacticalDisabled = errors.New("stream: tactical layer disabled (no rule set configured)")

// Config tunes a Session.
type Config struct {
	// ReductionThresholdUS is the data-reduction merge threshold in µs
	// (default 1 s, the paper's choice).
	ReductionThresholdUS int64
	// LatenessUS is how long the watermark trails the newest observed
	// event time, bounding how late an event may arrive and still merge.
	// Values below the threshold are raised to it. Default: threshold.
	LatenessUS int64
	// MatchBuffer is each subscription's channel capacity; when a
	// consumer lags further than this, matches are counted as dropped
	// rather than blocking ingestion. Default 256.
	MatchBuffer int
	// DedupHighWater caps each subscription's firing-dedup set so a
	// long-running watch cannot grow memory without bound. When the set
	// reaches the cap it is flushed wholesale (the idiom every engine
	// cache uses) and Subscription.DedupResets increments; after a flush
	// a binding first delivered before it may be delivered again if a
	// later batch re-derives it — delivery is exactly-once below the cap
	// and at-least-once beyond it, never lossy. The set holds only answers
	// fired since Watch, whatever the query's shape. Default 65536
	// distinct firings; negative disables the cap.
	DedupHighWater int
	// QuarantineAfter is how many consecutive failed evaluations a
	// standing query survives before it is quarantined: its views are
	// dropped, Subscription.Err latches the last error, a terminal Match
	// (Terminal set) is delivered best-effort, and the channel closes. A
	// query that recovers before the threshold resets its failure count.
	// Default 3; negative disables quarantine (errors latch but the
	// subscription stays registered).
	QuarantineAfter int
	// Tactical configures the detection layer: when Tactical.Rules is
	// non-nil, every sealed batch runs one tactical round against the
	// published snapshot (tagging, incident attribution, kill-chain
	// scoring — see internal/tactical). Nil rules disable the layer at
	// zero cost to the ingest path.
	Tactical tactical.Config
	// OnTacticalRound, when set, observes every tactical round's duration
	// and stats (the daemon feeds its metrics with it). Called under the
	// session write lock; keep it cheap.
	OnTacticalRound func(time.Duration, tactical.RoundStats)
	// Durability configures the crash-safe storage layer (WAL + segment
	// files, see OpenDurable). Ignored by New/NewWithBackend — only
	// OpenDurable activates it.
	Durability Durability
}

// DefaultConfig mirrors the batch pipeline's defaults.
func DefaultConfig() Config {
	return Config{ReductionThresholdUS: 1_000_000}
}

func (c Config) withDefaults() Config {
	if c.ReductionThresholdUS <= 0 {
		c.ReductionThresholdUS = 1_000_000
	}
	if c.LatenessUS < c.ReductionThresholdUS {
		c.LatenessUS = c.ReductionThresholdUS
	}
	if c.MatchBuffer <= 0 {
		c.MatchBuffer = 256
	}
	if c.DedupHighWater == 0 {
		c.DedupHighWater = 65536
	}
	if c.QuarantineAfter == 0 {
		c.QuarantineAfter = 3
	}
	return c
}

// IngestStats summarizes one Ingest (or Flush) call.
type IngestStats struct {
	// EventsParsed counts raw events parsed from the input this call.
	EventsParsed int
	// EventsSealed counts reduced events made immutable and appended to
	// the store this call.
	EventsSealed int
	// EntitiesAdded counts entities first seen this call.
	EntitiesAdded int
	// Pending counts events buffered behind the watermark (arrived,
	// unsealed).
	Pending int
	// PartialBuffered is the byte length of an incomplete trailing line
	// held for the next read — nonzero means the producer was caught
	// mid-write, which pollers should not mistake for idleness.
	PartialBuffered int
	// Watermark is the current watermark (µs since epoch).
	Watermark int64
	// Firings counts standing-query matches delivered this call.
	Firings int
	// AlertsTagged counts tactical alerts tagged this call (always 0
	// without a configured rule set).
	AlertsTagged int
	// IncidentsOpen is the number of open incidents after this call.
	IncidentsOpen int
	// Batch is the sealed-batch sequence number after this call.
	Batch int64
}

// Session is a live ingestion session over one engine store. Create it
// with New, feed it with Ingest, register standing queries with Watch.
type Session struct {
	mu  sync.RWMutex
	cfg Config

	backend Backend
	parser  *audit.Parser
	// parserLog shares the store's entity table but drains its events
	// into the reducer; its event IDs are provisional.
	parserLog *audit.Log
	reducer   *reduction.Streamer

	lastEntityID int64
	batch        int64
	closed       bool

	// replay holds a sealed batch whose store append failed: the reducer
	// has already drained it, so it would otherwise be lost. The next
	// advance retries it ahead of newly sealed events (AppendBatch rolls
	// back atomically, so the retry converges on the same store).
	replay []audit.Event

	subs    map[int64]*Subscription
	nextSub int64

	// dur is the durability state (nil for non-durable sessions): the
	// open WAL, the commit sequence, and the segment-flush cadence. Only
	// OpenDurable sets it. Guarded by the write lock like everything else
	// on the ingest path.
	dur *durable

	// tact is the tactical analyzer (nil without configured rules); its
	// rounds run under the write lock, its accessors lock internally.
	tact       *tactical.Analyzer
	incSubs    map[int64]*IncidentSub
	nextIncSub int64

	readBuf []byte
}

// New opens a live session over the given store and engine. The store may
// be freshly empty or already loaded from a batch log; either way the
// session appends to it in place.
func New(store *engine.Store, en *engine.Engine, cfg Config) *Session {
	return NewWithBackend(engineBackend{store: store, en: en}, cfg)
}

// NewWithBackend opens a live session over an arbitrary storage backend
// (a sharded store coordinator, or the classic store+engine pair New
// wraps). The session appends to the backend in place.
func NewWithBackend(b Backend, cfg Config) *Session {
	cfg = cfg.withDefaults()
	entities := b.GlobalStore().Log.Entities
	parserLog := &audit.Log{Entities: entities}
	s := &Session{
		cfg:          cfg,
		backend:      b,
		parser:       audit.NewParserWith(parserLog),
		parserLog:    parserLog,
		reducer:      reduction.NewStreamer(reduction.Config{ThresholdUS: cfg.ReductionThresholdUS}, cfg.LatenessUS),
		lastEntityID: entities.MaxID(),
		subs:         make(map[int64]*Subscription),
		incSubs:      make(map[int64]*IncidentSub),
		readBuf:      make([]byte, 64*1024),
	}
	if cfg.Tactical.Rules != nil {
		s.tact = tactical.NewAnalyzer(cfg.Tactical)
		// Adopt preloaded history: a store built before the session (batch
		// log, -demo) holds events no round has seen. One catch-up round
		// over the published state tags them, so Incidents reflects the
		// whole store rather than only live-ingested batches.
		if src := tacticalSource(b); src.Frontier() > 1 {
			t0 := time.Now()
			rs := s.tact.RoundOn(src, 1)
			if cfg.OnTacticalRound != nil {
				cfg.OnTacticalRound(time.Since(t0), rs)
			}
		}
	}
	return s
}

// Store returns the live backend's authoritative store (reads require no
// ingest in flight). For a sharded backend this is the global store.
func (s *Session) Store() *engine.Store { return s.backend.GlobalStore() }

// Backend returns the session's storage backend.
func (s *Session) Backend() Backend { return s.backend }

// ParseError reports malformed wire records encountered during an Ingest
// that otherwise succeeded: the remaining lines were still parsed, the
// watermark advanced, and sealed batches were appended. A long-lived tail
// should log it and keep going; only non-ParseError errors are fatal to
// the stream.
type ParseError struct {
	// First is the first malformed-record error of the call.
	First error
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("stream: malformed record skipped: %v", e.First)
}

// Unwrap exposes the underlying parse error.
func (e *ParseError) Unwrap() error { return e.First }

// Ingest reads every byte currently available from r (typically a file
// being tailed: the reader keeps its offset, EOF just means "caught up"),
// parses complete lines, advances the watermark, appends newly sealed
// batches to the store, and evaluates standing queries against the delta.
// A trailing partial line stays buffered for the next call.
//
// A malformed record does not abort the call: valid lines around it are
// still ingested, and the first such error is reported as a *ParseError
// alongside otherwise-complete stats.
func (s *Session) Ingest(r io.Reader) (IngestStats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return IngestStats{}, ErrSessionClosed
	}
	var parseErr error
	for {
		n, err := r.Read(s.readBuf)
		if n > 0 {
			if ferr := s.parser.FeedChunk(s.readBuf[:n]); ferr != nil && parseErr == nil {
				parseErr = ferr
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return IngestStats{}, err
		}
	}
	if err := faultinject.Hit(FaultParse); err != nil {
		// Parsed records stay buffered in the parser log; the next call
		// picks them up — injected parse faults lose no input.
		return IngestStats{}, err
	}
	st, err := s.advanceLocked(false)
	if err != nil {
		return st, err
	}
	if parseErr != nil {
		return st, &ParseError{First: parseErr}
	}
	return st, nil
}

// IngestRecords feeds already-parsed records (for in-process producers
// such as simulators), then advances exactly like Ingest.
func (s *Session) IngestRecords(records []audit.Record) (IngestStats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return IngestStats{}, ErrSessionClosed
	}
	for i := range records {
		if err := s.parser.Feed(&records[i]); err != nil {
			return IngestStats{}, err
		}
	}
	return s.advanceLocked(false)
}

// Flush force-seals everything buffered — the trailing partial line, the
// arrival buffer, and every pending merge — and appends it to the store.
// After Flush the store equals a batch build over everything ingested.
func (s *Session) Flush() (IngestStats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return IngestStats{}, ErrSessionClosed
	}
	return s.advanceLocked(true)
}

// Close flushes, terminates every subscription (channels are closed), and
// marks the session unusable for further ingestion. The store remains
// queryable.
func (s *Session) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	_, err := s.advanceLocked(true)
	if s.dur != nil {
		// Clean shutdown: one final segment generation captures everything
		// applied, so the next open restores without replaying any WAL. A
		// failed flush keeps the WAL — recovery replays it instead.
		if s.dur.sinceFlush > 0 || s.dur.wal.Size() > 0 {
			if ferr := s.flushSegmentsLocked(); ferr != nil && err == nil {
				err = ferr
			}
		}
		if cerr := s.dur.wal.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	for id, sub := range s.subs {
		s.backend.DropViews(sub.analyzed)
		close(sub.c)
		delete(s.subs, id)
	}
	for id, sub := range s.incSubs {
		close(sub.c)
		delete(s.incSubs, id)
	}
	s.closed = true
	return err
}

// Hunt executes a TBQL query against the store's latest published
// snapshot. It takes no session lock: the engine pins the snapshot at
// entry and reads only that generation, so hunts run concurrently with
// each other and with an in-flight append — an appending batch becomes
// visible to hunts atomically when its snapshot publishes, never as a
// torn prefix. The context cancels the hunt cooperatively; nil means no
// cancellation.
func (s *Session) Hunt(ctx context.Context, src string) (*engine.Result, engine.Stats, error) {
	return s.backend.Hunt(ctx, src)
}

// advanceLocked moves parsed events through the reducer, appends whatever
// sealed, and fires standing queries. Callers hold the write lock.
func (s *Session) advanceLocked(flush bool) (IngestStats, error) {
	var st IngestStats
	if flush {
		if err := s.parser.FlushChunk(); err != nil {
			return st, err
		}
	}
	parsed := s.parserLog.TakeEvents()
	st.EventsParsed = len(parsed)
	s.reducer.Observe(parsed)

	var sealed []audit.Event
	if flush {
		sealed = s.reducer.Flush()
	} else {
		sealed = s.reducer.Seal()
	}
	st.EventsSealed = len(sealed)
	if len(s.replay) > 0 {
		// A previous append failed after the reducer drained these events;
		// retry them ahead of the newly sealed batch.
		sealed = append(s.replay, sealed...)
		s.replay = nil
	}
	newEntities := s.Store().Log.Entities.Since(s.lastEntityID)
	st.EntitiesAdded = len(newEntities)

	if len(sealed) > 0 || len(newEntities) > 0 {
		deltaFloor := s.Store().NextEventID()
		if s.dur != nil {
			// Write-ahead: the batch must be durable (per the fsync policy)
			// before the in-memory apply. A WAL failure is handled exactly
			// like a failed append — the retry rewrites the frame under the
			// same commit sequence, and replay keeps the last of an
			// equal-seq run.
			if err := s.dur.logBatch(newEntities, sealed); err != nil {
				s.replay = sealed
				return st, err
			}
		}
		if err := s.backend.AppendBatch(newEntities, sealed); err != nil {
			// AppendBatch rolled back; stash the sealed events (the reducer
			// no longer holds them) and leave lastEntityID where it was so
			// the retry re-collects the same entity delta.
			s.replay = sealed
			return st, err
		}
		if s.dur != nil {
			// The apply committed; the WAL frame's sequence is now the
			// session's durable frontier.
			s.dur.seq++
		}
		s.lastEntityID = s.Store().Log.Entities.MaxID()
		if len(sealed) > 0 {
			s.batch++
			st.Firings = s.fireLocked(deltaFloor)
			if s.tact != nil {
				// The tactical round runs strictly after the successful
				// append, against the batch's published state — never
				// inside AppendBatch, and never for a rolled-back batch
				// (a failed append returns above and replays later, so
				// the retried events are tagged exactly once).
				t0 := time.Now()
				rs := s.tact.RoundOn(tacticalSource(s.backend), deltaFloor)
				st.AlertsTagged = rs.Alerts
				st.IncidentsOpen = rs.Incidents
				if rs.Alerts > 0 {
					s.notifyIncidentSubsLocked(rs)
				}
				if s.cfg.OnTacticalRound != nil {
					s.cfg.OnTacticalRound(time.Since(t0), rs)
				}
			}
			if s.dur != nil {
				if s.dur.sinceFlush++; s.dur.sinceFlush >= s.dur.cfg.SegmentEvery {
					// A failed flush must not fail ingestion: the error is
					// reported through OnSegmentFlush and the WAL keeps
					// growing until a flush succeeds.
					_ = s.flushSegmentsLocked()
				}
			}
		}
	}
	if s.tact != nil && st.AlertsTagged == 0 {
		st.IncidentsOpen = s.tact.Stats().Incidents
	}
	st.Pending = s.reducer.Pending()
	st.PartialBuffered = s.parser.PartialLen()
	st.Watermark = s.reducer.Watermark()
	st.Batch = s.batch
	return st, nil
}
