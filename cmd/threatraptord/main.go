// Command threatraptord serves the threat hunting engine over HTTP: it
// loads (or live-ingests) audit logs into one store and exposes TBQL
// hunts, EXPLAIN, standing-query subscriptions with firings streamed
// over the response, raw-record ingestion, health/readiness probes, and
// Prometheus-style metrics.
//
// Usage:
//
//	threatraptord -addr :7834 -log audit.log     # serve a loaded log
//	threatraptord -addr :7834 -demo data_leak    # serve a built-in case
//	threatraptord -addr :7834                    # start empty; POST /v1/ingest
//	threatraptord -addr :7834 -rules rules.json  # + tactical detection layer
//	threatraptord -addr :7834 -data-dir /var/lib/threatraptor  # durable store:
//	                           WAL + segments, crash recovery on restart
//
// Endpoints:
//
//	POST /v1/hunt      TBQL in the body; JSON results. 429 + Retry-After
//	                   when admission control sheds the hunt.
//	POST /v1/explain   TBQL in the body; the plan a hunt of it runs, as text.
//	POST /v1/watch     TBQL in the body; firings stream back as
//	                   Server-Sent Events (Accept: text/event-stream) or
//	                   newline-delimited JSON until the client disconnects.
//	POST /v1/ingest    raw audit records in the body; ingest stats as JSON.
//	POST /v1/flush     force-seal everything buffered on the live stream
//	                   (the end-of-stream barrier); stats as JSON.
//	GET  /v1/incidents        ranked tactical incidents as JSON (-rules).
//	GET  /v1/incidents/watch  per-round incident updates streamed as SSE
//	                          or newline-delimited JSON (-rules).
//	GET  /healthz      liveness (process up).
//	GET  /readyz       readiness (store loaded and serving; 503 "recovering"
//	                   while a durable data dir is still replaying its WAL).
//	GET  /metrics      Prometheus text exposition.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"threatraptor"
	"threatraptor/internal/cases"
	"threatraptor/internal/engine"
	"threatraptor/internal/metrics"
	"threatraptor/internal/rules"
	"threatraptor/internal/segment"
	"threatraptor/internal/shard"
	"threatraptor/internal/stream"
	"threatraptor/internal/tactical"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7834", "HTTP listen address")
	logPath := flag.String("log", "", "audit log file to batch-load at startup")
	demo := flag.String("demo", "", "load a built-in benchmark case (e.g. data_leak) instead of -log")
	scale := flag.Float64("scale", 1.0, "benign noise scale for -demo")
	maxHunts := flag.Int("max-hunts", 0, "max concurrent hunts before load shedding (0 = unlimited)")
	huntQueueTimeout := flag.Duration("hunt-queue-timeout", 0, "how long a hunt queues for a slot when -max-hunts is reached")
	huntTimeout := flag.Duration("hunt-timeout", 30*time.Second, "per-request hunt deadline (0 = no limit)")
	shutdownTimeout := flag.Duration("shutdown-timeout", 5*time.Second, "grace period for in-flight requests on SIGINT/SIGTERM")
	rulesPath := flag.String("rules", "", "detection rule file (JSON) enabling the tactical layer and /v1/incidents")
	shards := flag.Int("shards", 0, "partition the store into N shards with scatter-gather hunts (0/1 = single store)")
	partitionBy := flag.String("partition-by", "host", "shard key: host, time, or hash (with -shards)")
	dataDir := flag.String("data-dir", "", "durable data directory (WAL + segments); recovered on startup, survives crashes")
	fsync := flag.String("fsync", "always", "WAL fsync policy with -data-dir: always, batch, or off")
	segmentEvery := flag.Int("segment-every", 64, "flush a segment generation every N sealed batches with -data-dir")
	recoverCorrupt := flag.Bool("recover-corrupt", false, "with -data-dir: truncate mid-file WAL corruption to the last consistent prefix instead of refusing startup")
	flag.Parse()

	opts := threatraptor.DefaultOptions()
	opts.MaxConcurrentHunts = *maxHunts
	opts.HuntQueueTimeout = *huntQueueTimeout
	opts.Shards = *shards
	opts.PartitionBy = *partitionBy
	opts.DataDir = *dataDir
	opts.FsyncPolicy = *fsync
	opts.SegmentEvery = *segmentEvery
	opts.RecoverCorrupt = *recoverCorrupt
	if *rulesPath != "" {
		set, err := rules.LoadFile(*rulesPath)
		if err != nil {
			log.Fatal(err)
		}
		opts.Rules = set
		log.Printf("loaded %d detection rules from %s", set.Len(), *rulesPath)
	}
	// The tactical and durability observers feed server metrics; the
	// server is built after the system, so bind them late (they only fire
	// once ingestion starts, well after newServer below).
	var srv *server
	opts.OnTacticalRound = func(d time.Duration, rs tactical.RoundStats) {
		if srv != nil {
			srv.observeTacticalRound(d, rs)
		}
	}
	opts.OnWALFsync = func(d time.Duration) {
		if srv != nil {
			srv.observeWALFsync(d)
		}
	}
	opts.OnSegmentFlush = func(fs stream.FlushStats) {
		if srv != nil {
			srv.observeSegmentFlush(fs)
		}
	}
	sys := threatraptor.New(opts)

	// A data dir that already holds persisted state wins over -demo/-log:
	// recover it rather than clobbering or refusing (the preload flags are
	// for seeding a fresh directory).
	if *dataDir != "" && segment.Exists(*dataDir) && (*demo != "" || *logPath != "") {
		log.Printf("data dir %s holds persisted state; ignoring -demo/-log and recovering it", *dataDir)
		*demo, *logPath = "", ""
	}

	// Serve liveness (and an honest 503 readiness) while the store loads:
	// replaying a large WAL can take a while, and orchestrators need
	// /healthz green and /readyz red during it. The handler swaps to the
	// full mux once the store is up.
	var handler atomic.Value
	handler.Store(recoveringHandler())
	hs := &http.Server{Addr: *addr, Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		handler.Load().(http.Handler).ServeHTTP(w, r)
	})}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	log.Printf("listening on %s", *addr)

	switch {
	case *demo != "":
		c := cases.ByID(*demo)
		if c == nil {
			var ids []string
			for _, cc := range cases.All() {
				ids = append(ids, cc.ID)
			}
			log.Fatalf("unknown case %q; available: %v", *demo, ids)
		}
		gen, err := c.Generate(*scale)
		if err != nil {
			log.Fatal(err)
		}
		if err := sys.LoadLog(gen.Log); err != nil {
			log.Fatal(err)
		}
		log.Printf("loaded case %s: %d entities, %d events",
			c.ID, gen.Log.Stats().Entities, gen.Log.Stats().Events)
	case *logPath != "":
		f, err := os.Open(*logPath)
		if err != nil {
			log.Fatal(err)
		}
		if err := sys.LoadAuditLog(f); err != nil {
			f.Close()
			log.Fatal(err)
		}
		f.Close()
		log.Printf("loaded %s", *logPath)
	default:
		// Start with an empty live store; /v1/ingest fills it. With a
		// durable data dir this is also the recovery path: Live replays
		// the WAL over the recovered segments before returning.
		if _, err := sys.Live(); err != nil {
			log.Fatal(err)
		}
		log.Print("started empty; POST /v1/ingest to add events")
	}
	if *dataDir != "" {
		// Open the durable session now even when a log was preloaded, so
		// the WAL captures every batch from the first ingest onward.
		if _, err := sys.Live(); err != nil {
			log.Fatal(err)
		}
		rs := sys.RecoveryStats()
		if rs.Recovered || rs.ReplayedRecords > 0 || rs.TornTailTruncated || rs.DroppedFrames > 0 {
			log.Printf("recovered %s: generation %d (%d segments), replayed %d WAL records (%d events, %d entities), torn tail truncated: %v, dropped frames: %d",
				*dataDir, rs.ManifestSeq, rs.Segments, rs.ReplayedRecords, rs.ReplayedEvents, rs.ReplayedEntities, rs.TornTailTruncated, rs.DroppedFrames)
		}
	}

	srv = newServer(sys, *huntTimeout)
	if sh := sys.ShardStore(); sh != nil {
		srv.registerShardMetrics(sh)
		log.Printf("store sharded %d ways by %s", *shards, *partitionBy)
	}
	srv.observeRecovery(sys.RecoveryStats())
	handler.Store(srv.routes())

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		log.Fatal(err)
	case sig := <-sigc:
		log.Printf("%s: shutting down", sig)
		ctx, cancel := context.WithTimeout(context.Background(), *shutdownTimeout)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			log.Printf("shutdown: %v", err)
		}
		// Flush and close the store after in-flight requests drain: a
		// durable session writes its final segment generation here, so a
		// clean restart replays nothing.
		if err := sys.Close(); err != nil {
			log.Printf("close: %v", err)
		}
	}
}

// recoveringHandler serves while the store is still loading or a durable
// data dir is replaying its WAL: liveness is green, readiness — and every
// other endpoint — answers 503 "recovering".
func recoveringHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "recovering", http.StatusServiceUnavailable)
	})
	return mux
}

// system is the facade surface the daemon drives — satisfied by
// *threatraptor.System; tests substitute wrappers to force edge cases
// (overload, failures) that are timing-dependent against the real thing.
type system interface {
	Hunt(ctx context.Context, src string) (*engine.Result, engine.Stats, error)
	Explain(src string) (string, error)
	Ingest(r io.Reader) (stream.IngestStats, error)
	FlushStream() (stream.IngestStats, error)
	Live() (*stream.Session, error)
	Store() *engine.Store
	HuntsInFlight() int
	Incidents() ([]tactical.Incident, error)
	WatchIncidents(buf int) (*stream.IncidentSub, error)
	TacticalStats() tactical.Stats
}

// server wires the System facade to HTTP handlers and the metrics
// registry.
type server struct {
	sys         system
	huntTimeout time.Duration

	reg           *metrics.Registry
	huntSeconds   *metrics.Histogram
	huntErrors    *metrics.Counter
	huntSheds     *metrics.Counter
	ingests       *metrics.Counter
	eventsSealed  *metrics.Counter
	entitiesAdded *metrics.Counter
	firings       *metrics.Counter
	quarantines   *metrics.Counter
	watchesActive *metrics.Gauge

	alertsTagged   *metrics.Counter
	incidentsOpen  *metrics.Gauge
	tacticalRounds *metrics.Histogram

	walFsyncSeconds   *metrics.Histogram
	segmentsTotal     *metrics.Counter
	segmentBytes      *metrics.Counter
	segmentFilesLive  *metrics.Gauge
	segmentFlushFails *metrics.Counter
	recoveryTruncated *metrics.Counter
	lastFlushNano     atomic.Int64

	// maxIngestBytes caps one /v1/ingest body; tests lower it.
	maxIngestBytes int64
}

func newServer(sys system, huntTimeout time.Duration) *server {
	reg := metrics.NewRegistry()
	s := &server{
		sys:         sys,
		huntTimeout: huntTimeout,
		reg:         reg,
		huntSeconds: reg.NewHistogram("threatraptor_hunt_duration_seconds",
			"Hunt latency (admission wait + execution); _count is total hunts.", nil),
		huntErrors: reg.NewCounter("threatraptor_hunt_errors_total",
			"Hunts that failed (parse, execution, timeout); excludes load sheds."),
		huntSheds: reg.NewCounter("threatraptor_hunt_rejections_total",
			"Hunts shed by admission control (HTTP 429)."),
		ingests: reg.NewCounter("threatraptor_ingests_total",
			"Successful /v1/ingest calls."),
		eventsSealed: reg.NewCounter("threatraptor_events_sealed_total",
			"Reduced events sealed and appended to the store."),
		entitiesAdded: reg.NewCounter("threatraptor_entities_added_total",
			"Entities first seen on the ingest path."),
		firings: reg.NewCounter("threatraptor_firings_total",
			"Standing-query matches delivered to watch streams."),
		quarantines: reg.NewCounter("threatraptor_quarantines_total",
			"Standing queries quarantined after consecutive failures."),
		watchesActive: reg.NewGauge("threatraptor_watches_active",
			"Standing-query streams currently connected."),
		alertsTagged: reg.NewCounter("threatraptor_alerts_tagged_total",
			"Events tagged by detection rules on the tactical path."),
		incidentsOpen: reg.NewGauge("threatraptor_incidents_open",
			"Tactical incidents currently open (after the latest round)."),
		tacticalRounds: reg.NewHistogram("threatraptor_tactical_round_seconds",
			"Per-sealed-batch tactical round latency (tagging + attribution + scoring).", nil),
		walFsyncSeconds: reg.NewHistogram("threatraptor_wal_fsync_seconds",
			"WAL fsync latency per appended frame (durable mode only).",
			[]float64{.00005, .0001, .00025, .0005, .001, .0025, .005, .01, .025, .05, .1}),
		segmentsTotal: reg.NewCounter("threatraptor_segments_total",
			"Segment files written by committed flushes (deltas and merges)."),
		segmentBytes: reg.NewCounter("threatraptor_segment_bytes_written_total",
			"Bytes of segment files written by committed flushes."),
		segmentFilesLive: reg.NewGauge("threatraptor_segment_files_live",
			"Segment files the committed manifest names (the live set, every role)."),
		segmentFlushFails: reg.NewCounter("threatraptor_segment_flush_failures_total",
			"Segment flushes that failed (the previous generation stayed live)."),
		recoveryTruncated: reg.NewCounter("threatraptor_recovery_truncated_frames_total",
			"WAL frames discarded during recovery: a torn tail counts one, mid-file corruption drops (with -recover-corrupt) count each."),
		maxIngestBytes: defaultMaxIngestBytes,
	}
	reg.NewGaugeFunc("threatraptor_last_segment_flush_seconds",
		"Seconds since the last committed segment flush (0 before the first).",
		func() float64 {
			last := s.lastFlushNano.Load()
			if last == 0 {
				return 0
			}
			return time.Since(time.Unix(0, last)).Seconds()
		})
	reg.NewGaugeFunc("threatraptor_hunts_in_flight",
		"Admitted hunts currently running (0 when unlimited).",
		func() float64 { return float64(sys.HuntsInFlight()) })
	reg.NewGaugeFunc("threatraptor_snapshot_age_seconds",
		"Seconds since the store last published a snapshot.",
		func() float64 {
			st := sys.Store()
			if st == nil {
				return 0
			}
			return time.Since(st.Snapshot().PublishedAt).Seconds()
		})
	reg.NewGaugeFunc("threatraptor_store_events",
		"Events in the published store snapshot.",
		func() float64 {
			st := sys.Store()
			if st == nil {
				return 0
			}
			return float64(st.Snapshot().NextEventID - 1)
		})
	return s
}

// registerShardMetrics adds the sharded-store families (only when the
// store is partitioned): per-partition size and snapshot age, the hunt
// scatter fan-out distribution, and the coordinator's global-routing and
// rollback counters.
func (s *server) registerShardMetrics(sh *shard.Store) {
	s.reg.NewLabeledGaugeFunc("threatraptor_shard_events",
		"Events held per store partition.",
		func() []metrics.LabeledValue {
			ms := sh.Metrics()
			out := make([]metrics.LabeledValue, len(ms))
			for i, m := range ms {
				out[i] = metrics.LabeledValue{
					Labels: fmt.Sprintf(`shard="%d"`, m.Shard),
					Value:  float64(m.Events),
				}
			}
			return out
		})
	s.reg.NewLabeledGaugeFunc("threatraptor_shard_snapshot_age_seconds",
		"Seconds since each partition last published a snapshot.",
		func() []metrics.LabeledValue {
			ms := sh.Metrics()
			out := make([]metrics.LabeledValue, len(ms))
			for i, m := range ms {
				out[i] = metrics.LabeledValue{
					Labels: fmt.Sprintf(`shard="%d"`, m.Shard),
					Value:  m.SnapshotAge.Seconds(),
				}
			}
			return out
		})
	s.reg.NewLabeledGaugeFunc("threatraptor_hunt_fanout_total",
		"Scattered pattern data queries by how many partitions they touched (after routing prunes).",
		func() []metrics.LabeledValue {
			fan := sh.FanoutHistogram()
			out := make([]metrics.LabeledValue, 0, len(fan))
			for k, n := range fan {
				out = append(out, metrics.LabeledValue{
					Labels: fmt.Sprintf(`shards="%d"`, k),
					Value:  float64(n),
				})
			}
			return out
		})
	s.reg.NewGaugeFunc("threatraptor_shard_global_routed_total",
		"Pattern queries served by the global store instead of the partitions (var-len paths).",
		func() float64 { return float64(sh.GlobalRouted()) })
	s.reg.NewGaugeFunc("threatraptor_shard_rollbacks_total",
		"Fleet-wide append unwinds after a partition append failure.",
		func() float64 { return float64(sh.Rollbacks()) })
}

func (s *server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/hunt", s.handleHunt)
	mux.HandleFunc("/v1/explain", s.handleExplain)
	mux.HandleFunc("/v1/watch", s.handleWatch)
	mux.HandleFunc("/v1/ingest", s.handleIngest)
	mux.HandleFunc("/v1/flush", s.handleFlush)
	mux.HandleFunc("/v1/incidents", s.handleIncidents)
	mux.HandleFunc("/v1/incidents/watch", s.handleIncidentsWatch)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", s.handleReady)
	mux.Handle("/metrics", s.reg.Handler())
	return mux
}

// maxQueryBytes bounds a posted TBQL query; defaultMaxIngestBytes bounds
// one /v1/ingest body (large audit streams split across multiple posts —
// the parser carries a partial trailing line between calls, so splitting
// anywhere is safe).
const (
	maxQueryBytes         = 1 << 20
	defaultMaxIngestBytes = 32 << 20
)

func readQuery(w http.ResponseWriter, r *http.Request) (string, bool) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST a TBQL query as the request body", http.StatusMethodNotAllowed)
		return "", false
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxQueryBytes+1))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return "", false
	}
	if len(body) > maxQueryBytes {
		http.Error(w, "query too large", http.StatusRequestEntityTooLarge)
		return "", false
	}
	q := strings.TrimSpace(string(body))
	if q == "" {
		http.Error(w, "empty query", http.StatusBadRequest)
		return "", false
	}
	return q, true
}

// huntResponse is the JSON shape of a completed hunt.
type huntResponse struct {
	Columns       []string   `json:"columns"`
	Rows          [][]string `json:"rows"`
	MatchedEvents int        `json:"matched_events"`
	DataQueries   int        `json:"data_queries"`
	EmptyPattern  string     `json:"empty_pattern,omitempty"`
	DurationMS    float64    `json:"duration_ms"`
}

func (s *server) handleHunt(w http.ResponseWriter, r *http.Request) {
	q, ok := readQuery(w, r)
	if !ok {
		return
	}
	ctx := r.Context()
	if s.huntTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.huntTimeout)
		defer cancel()
	}
	start := time.Now()
	res, stats, err := s.sys.Hunt(ctx, q)
	elapsed := time.Since(start)
	s.huntSeconds.Observe(elapsed.Seconds())
	if err != nil {
		switch {
		case errors.Is(err, engine.ErrOverloaded):
			s.huntSheds.Inc()
			w.Header().Set("Retry-After", "1")
			http.Error(w, err.Error(), http.StatusTooManyRequests)
		case errors.Is(err, context.DeadlineExceeded):
			s.huntErrors.Inc()
			http.Error(w, err.Error(), http.StatusGatewayTimeout)
		default:
			s.huntErrors.Inc()
			http.Error(w, err.Error(), http.StatusBadRequest)
		}
		return
	}
	resp := huntResponse{
		Columns:       res.Set.Columns,
		Rows:          res.Set.Strings(),
		MatchedEvents: len(res.MatchedEvents),
		DataQueries:   stats.DataQueries,
		EmptyPattern:  stats.EmptyPatternID,
		DurationMS:    float64(elapsed.Microseconds()) / 1000,
	}
	if resp.Rows == nil {
		resp.Rows = [][]string{}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *server) handleExplain(w http.ResponseWriter, r *http.Request) {
	q, ok := readQuery(w, r)
	if !ok {
		return
	}
	out, err := s.sys.Explain(q)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, out)
}

// watchEvent is one streamed standing-query delivery.
type watchEvent struct {
	Batch    int64    `json:"batch"`
	Columns  []string `json:"columns,omitempty"`
	Row      []string `json:"row,omitempty"`
	Terminal bool     `json:"terminal,omitempty"`
	Error    string   `json:"error,omitempty"`
}

// frameWriter writes one streamed response as SSE (the request accepts
// text/event-stream) or NDJSON (anything else), flushing every frame.
type frameWriter struct {
	w   http.ResponseWriter
	f   http.Flusher
	sse bool
}

// newFrameWriter negotiates the stream encoding from the request's Accept
// header. It answers 500 and returns false when w cannot stream.
func newFrameWriter(w http.ResponseWriter, r *http.Request) (*frameWriter, bool) {
	f, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return nil, false
	}
	return &frameWriter{w: w, f: f, sse: strings.Contains(r.Header.Get("Accept"), "text/event-stream")}, true
}

// start writes the 200 status and the encoding's headers.
func (fw *frameWriter) start() {
	if fw.sse {
		fw.w.Header().Set("Content-Type", "text/event-stream")
		fw.w.Header().Set("Cache-Control", "no-cache")
	} else {
		fw.w.Header().Set("Content-Type", "application/x-ndjson")
	}
	fw.w.WriteHeader(http.StatusOK)
	fw.f.Flush()
}

// send writes v as one JSON frame — an SSE event of the given name, or
// one NDJSON line — and reports whether the client took it.
func (fw *frameWriter) send(event string, v any) bool {
	data, err := json.Marshal(v)
	if err != nil {
		return false
	}
	if fw.sse {
		_, err = fmt.Fprintf(fw.w, "event: %s\ndata: %s\n\n", event, data)
	} else {
		_, err = fmt.Fprintf(fw.w, "%s\n", data)
	}
	if err != nil {
		return false
	}
	fw.f.Flush()
	return true
}

func (s *server) handleWatch(w http.ResponseWriter, r *http.Request) {
	q, ok := readQuery(w, r)
	if !ok {
		return
	}
	fw, ok := newFrameWriter(w, r)
	if !ok {
		return
	}
	live, err := s.sys.Live()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	sub, err := live.Watch(q)
	if err != nil {
		code := http.StatusBadRequest
		if errors.Is(err, stream.ErrSessionClosed) {
			code = http.StatusServiceUnavailable
		}
		http.Error(w, err.Error(), code)
		return
	}
	s.watchesActive.Inc()
	defer s.watchesActive.Dec()

	fw.start()
	s.watchFrames(r.Context(), live, sub, func(ev watchEvent) bool { return fw.send(eventName(ev), ev) })
}

// watchFrames streams sub's deliveries as frames through send until the
// client goes away (ctx), a send fails, or the subscription ends. A
// quarantined subscription ends with a terminal frame carrying its error
// and counts one quarantine, even when the session could not buffer the
// terminal match and only closed the channel.
func (s *server) watchFrames(ctx context.Context, live *stream.Session, sub *stream.Subscription, send func(watchEvent) bool) {
	terminal := func(batch int64) {
		s.quarantines.Inc()
		ev := watchEvent{Batch: batch, Terminal: true}
		if err := sub.Err(); err != nil {
			ev.Error = err.Error()
		}
		send(ev)
	}
	for {
		select {
		case <-ctx.Done():
			// Client gone: deregister so the session stops evaluating the
			// query and its views are released.
			live.Unwatch(sub)
			// Unwatch closed sub.C; drain so fireLocked's best-effort sends
			// cannot have raced a buffered match we would strand.
			for range sub.C {
			}
			return
		case m, chanOpen := <-sub.C:
			if !chanOpen {
				// Session closed, or quarantined with the terminal match
				// dropped on a full buffer (its batch is then unknown: 0).
				if sub.Quarantined() {
					terminal(0)
				}
				return
			}
			if m.Terminal {
				terminal(m.Batch)
				return
			}
			ev := watchEvent{Batch: m.Batch, Columns: m.Columns, Row: make([]string, len(m.Row))}
			for i := range m.Row {
				ev.Row[i] = m.Row[i].String()
			}
			if !send(ev) {
				live.Unwatch(sub)
				for range sub.C {
				}
				return
			}
			s.firings.Inc()
		}
	}
}

func eventName(ev watchEvent) string {
	if ev.Terminal {
		return "terminal"
	}
	return "match"
}

func (s *server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST raw audit records as the request body", http.StatusMethodNotAllowed)
		return
	}
	// Cap the body: an unbounded read here would let one oversized (or
	// malicious) post balloon parser memory. Lines read before the cap
	// hit stay buffered in the parser and seal on the next call; the 413
	// tells the client to split the stream and resend from where it was
	// cut (a partial trailing line is safe — the parser buffers it).
	r.Body = http.MaxBytesReader(w, r.Body, s.maxIngestBytes)
	st, err := s.sys.Ingest(r.Body)
	s.eventsSealed.Add(uint64(st.EventsSealed))
	s.entitiesAdded.Add(uint64(st.EntitiesAdded))
	if err != nil {
		var pe *stream.ParseError
		var mbe *http.MaxBytesError
		switch {
		case errors.As(err, &pe):
			// The valid lines around the corrupt record were ingested;
			// report both the stats and the rejection.
			writeJSON(w, http.StatusBadRequest, map[string]any{
				"error": pe.Error(), "stats": st,
			})
		case errors.As(err, &mbe):
			writeJSON(w, http.StatusRequestEntityTooLarge, map[string]any{
				"error": fmt.Sprintf("ingest body exceeds %d bytes; split the stream into smaller posts", s.maxIngestBytes),
				"stats": st,
			})
		default:
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
		return
	}
	s.ingests.Inc()
	writeJSON(w, http.StatusOK, map[string]any{"stats": st})
}

func (s *server) handleFlush(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST to flush", http.StatusMethodNotAllowed)
		return
	}
	st, err := s.sys.FlushStream()
	s.eventsSealed.Add(uint64(st.EventsSealed))
	s.entitiesAdded.Add(uint64(st.EntitiesAdded))
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"stats": st})
}

// observeTacticalRound records one tactical round in the metrics; it is
// wired into Options.OnTacticalRound and runs on the ingestion path.
func (s *server) observeTacticalRound(d time.Duration, rs tactical.RoundStats) {
	s.tacticalRounds.Observe(d.Seconds())
	s.alertsTagged.Add(uint64(rs.Alerts))
	s.incidentsOpen.Set(int64(rs.Incidents))
}

// observeWALFsync records one WAL fsync in the latency histogram; wired
// into Options.OnWALFsync, it runs on the ingestion path in durable mode.
func (s *server) observeWALFsync(d time.Duration) {
	s.walFsyncSeconds.Observe(d.Seconds())
}

// observeSegmentFlush records one segment-flush attempt; wired into
// Options.OnSegmentFlush.
func (s *server) observeSegmentFlush(fs stream.FlushStats) {
	if fs.Err != nil {
		s.segmentFlushFails.Inc()
		return
	}
	s.segmentsTotal.Add(uint64(fs.Written))
	s.segmentBytes.Add(uint64(fs.Bytes))
	s.segmentFilesLive.Set(int64(fs.Segments))
	s.lastFlushNano.Store(time.Now().UnixNano())
}

// observeRecovery folds what the durable open recovered into the metrics
// (no-op for the zero stats of a non-durable start).
func (s *server) observeRecovery(rs stream.RecoveryStats) {
	s.segmentFilesLive.Set(int64(rs.Segments))
	if rs.TornTailTruncated {
		s.recoveryTruncated.Inc()
	}
	s.recoveryTruncated.Add(uint64(rs.DroppedFrames))
}

// incidentsResponse is the JSON shape of /v1/incidents.
type incidentsResponse struct {
	Incidents []tactical.Incident `json:"incidents"`
	Stats     tactical.Stats      `json:"stats"`
}

func (s *server) handleIncidents(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET the ranked incident list", http.StatusMethodNotAllowed)
		return
	}
	incs, err := s.sys.Incidents()
	if err != nil {
		code := http.StatusInternalServerError
		if errors.Is(err, stream.ErrTacticalDisabled) {
			code = http.StatusNotFound
		}
		http.Error(w, err.Error(), code)
		return
	}
	if incs == nil {
		incs = []tactical.Incident{}
	}
	writeJSON(w, http.StatusOK, incidentsResponse{Incidents: incs, Stats: s.sys.TacticalStats()})
}

// handleIncidentsWatch streams one JSON IncidentUpdate per alert-producing
// tactical round, as SSE (Accept: text/event-stream) or NDJSON, until the
// client disconnects.
func (s *server) handleIncidentsWatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET to stream incident updates", http.StatusMethodNotAllowed)
		return
	}
	fw, ok := newFrameWriter(w, r)
	if !ok {
		return
	}
	live, err := s.sys.Live()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	sub, err := s.sys.WatchIncidents(0)
	if err != nil {
		code := http.StatusInternalServerError
		switch {
		case errors.Is(err, stream.ErrTacticalDisabled):
			code = http.StatusNotFound
		case errors.Is(err, stream.ErrSessionClosed):
			code = http.StatusServiceUnavailable
		}
		http.Error(w, err.Error(), code)
		return
	}
	s.watchesActive.Inc()
	defer s.watchesActive.Dec()

	fw.start()
	for {
		select {
		case <-r.Context().Done():
			live.UnwatchIncidents(sub)
			for range sub.C {
			}
			return
		case u, chanOpen := <-sub.C:
			if !chanOpen {
				// Session closed: end the stream.
				return
			}
			if !fw.send("incidents", u) {
				live.UnwatchIncidents(sub)
				for range sub.C {
				}
				return
			}
		}
	}
}

func (s *server) handleReady(w http.ResponseWriter, _ *http.Request) {
	if s.sys.Store() == nil {
		http.Error(w, "no store loaded", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ready")
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}
