// Command threatraptor runs the end-to-end OSCTI-driven threat hunting
// pipeline: it loads system audit logs, extracts a threat behavior graph
// from an OSCTI report, synthesizes a TBQL query, and executes it. In
// watch mode it instead tails a growing audit log and fires registered
// standing queries as matching behaviors appear.
//
// Usage:
//
//	threatraptor -log audit.log -report attack.txt          # full pipeline
//	threatraptor -log audit.log -report attack.txt -fuzzy   # fuzzy mode
//	threatraptor -report attack.txt -synthesize-only        # no execution
//	threatraptor -demo data_leak                            # built-in case
//	threatraptor -watch -log audit.log -query hunt.tbql     # live hunting
//	threatraptor -watch -log audit.log -report attack.txt   # live, synthesized
//	threatraptor -log audit.log -rules rules.json -incidents  # tactical ranking
//	threatraptor -watch -log audit.log -query hunt.tbql -rules rules.json -incidents
//	threatraptor -data-dir dir -report attack.txt           # hunt a recovered store
//	threatraptor -watch -log new.log -query h.tbql -data-dir dir  # durable live hunt
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"
	"os/signal"
	"syscall"
	"time"

	"threatraptor"
	"threatraptor/internal/cases"
	"threatraptor/internal/rules"
	"threatraptor/internal/segment"
	"threatraptor/internal/stream"
	"threatraptor/internal/tactical"
)

func main() {
	logPath := flag.String("log", "", "audit log file (newline-delimited raw records)")
	reportPath := flag.String("report", "", "OSCTI report text file")
	synthOnly := flag.Bool("synthesize-only", false, "stop after query synthesis")
	graphJSON := flag.Bool("graph-json", false, "print the threat behavior graph as JSON")
	useFuzzy := flag.Bool("fuzzy", false, "execute in fuzzy search mode")
	demo := flag.String("demo", "", "run a built-in benchmark case (e.g. data_leak)")
	scale := flag.Float64("scale", 1.0, "benign noise scale for -demo")
	explain := flag.Bool("explain", false, "print the plan the hunt runs (IR, compiled SQL/Cypher, physical plans, order) before executing")
	watch := flag.Bool("watch", false, "tail -log continuously, firing the query as behaviors appear")
	queryPath := flag.String("query", "", "TBQL query file (watch mode; skips report synthesis)")
	poll := flag.Duration("poll", 500*time.Millisecond, "watch mode poll interval")
	watchIdle := flag.Int("watch-idle", 0, "exit watch mode after N consecutive polls without new data (0 = run until interrupted)")
	huntTimeout := flag.Duration("hunt-timeout", 0, "cancel the hunt after this long (0 = no limit)")
	maxHunts := flag.Int("max-hunts", 0, "max concurrent hunts before load shedding (0 = unlimited)")
	huntQueueTimeout := flag.Duration("hunt-queue-timeout", 0, "how long a hunt queues for a slot when -max-hunts is reached")
	rulesPath := flag.String("rules", "", "detection rule file (JSON) enabling the tactical layer")
	showIncidents := flag.Bool("incidents", false, "print ranked tactical incidents (requires -rules)")
	shards := flag.Int("shards", 0, "partition the store into N shards with scatter-gather hunts (0/1 = single store)")
	partitionBy := flag.String("partition-by", "time", "start-time slice width events route by (with -shards): time (1h slices) or time:<duration>, e.g. time:5m")
	dataDir := flag.String("data-dir", "", "durable data directory: recover persisted state on start (warm-start hunts need no -log) and persist live ingest")
	flag.Parse()

	var ruleSet *rules.Set
	if *rulesPath != "" {
		set, err := rules.LoadFile(*rulesPath)
		if err != nil {
			log.Fatal(err)
		}
		ruleSet = set
	}
	if *showIncidents && ruleSet == nil {
		log.Fatal("-incidents requires -rules")
	}

	opts := threatraptor.DefaultOptions()
	opts.MaxConcurrentHunts = *maxHunts
	opts.HuntQueueTimeout = *huntQueueTimeout
	opts.Rules = ruleSet
	opts.Shards = *shards
	opts.PartitionBy = *partitionBy
	opts.DataDir = *dataDir

	// A data dir with persisted state is the store: recover it instead of
	// preloading over it (warm start). Watch mode keeps -log — that is the
	// file to tail, not a preload.
	warm := *dataDir != "" && segment.Exists(*dataDir)
	if warm && !*watch && (*demo != "" || *logPath != "") {
		log.Printf("data dir %s holds persisted state; ignoring -demo/-log and recovering it", *dataDir)
		*demo, *logPath = "", ""
	}
	sys := threatraptor.New(opts)

	ctx := context.Background()
	if *huntTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *huntTimeout)
		defer cancel()
	}

	if *watch {
		if *logPath == "" {
			log.Fatal("-watch requires -log (the file to tail)")
		}
		query, err := watchQuery(sys, *queryPath, *reportPath)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("--- standing query ---")
		fmt.Println(query)
		if err := runWatch(sys, *logPath, query, *poll, *watchIdle, ruleSet != nil, *showIncidents); err != nil {
			log.Fatal(err)
		}
		// A durable session writes its final segment generation here; the
		// next -data-dir run warm-starts from it.
		if err := sys.Close(); err != nil {
			log.Fatal(err)
		}
		return
	}

	var report string

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
		report = c.Report
		fmt.Printf("case %s: %d entities, %d events (%d attack)\n",
			c.ID, gen.Log.Stats().Entities, gen.Log.Stats().Events, len(gen.AttackEventIDs))
	default:
		if *reportPath == "" && !(*showIncidents && (*logPath != "" || warm)) {
			flag.Usage()
			os.Exit(2)
		}
		if *reportPath != "" {
			data, err := os.ReadFile(*reportPath)
			if err != nil {
				log.Fatal(err)
			}
			report = string(data)
		}
		switch {
		case *logPath != "":
			f, err := os.Open(*logPath)
			if err != nil {
				log.Fatal(err)
			}
			defer f.Close()
			if err := sys.LoadAuditLog(f); err != nil {
				log.Fatal(err)
			}
		case warm:
			// Warm start: the hunt runs over the recovered store.
			if _, err := sys.Live(); err != nil {
				log.Fatal(err)
			}
			rs := sys.RecoveryStats()
			fmt.Printf("recovered %s: generation %d (%d segments), %d WAL records replayed\n",
				*dataDir, rs.ManifestSeq, rs.Segments, rs.ReplayedRecords)
		default:
			if !*synthOnly {
				log.Fatal("-log is required unless -synthesize-only is set or -data-dir holds persisted state")
			}
		}
	}

	if *dataDir != "" && !warm && !*synthOnly {
		// Fresh data dir under a loaded store: open the durable session so
		// the Close at exit persists it, seeding future warm starts.
		if _, err := sys.Live(); err != nil {
			log.Fatal(err)
		}
	}

	if *showIncidents {
		incs, err := sys.Analyze(ruleSet)
		if err != nil {
			log.Fatal(err)
		}
		data, err := tactical.MarshalIncidents(incs)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("--- ranked incidents ---")
		fmt.Println(string(data))
		if report == "" {
			return
		}
	}

	res := sys.ExtractBehaviorGraph(report)
	if *graphJSON {
		data, err := json.MarshalIndent(res.Graph, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(string(data))
		if *synthOnly {
			return
		}
	} else {
		fmt.Println("--- threat behavior graph ---")
		fmt.Print(res.Graph)
	}

	query, err := sys.SynthesizeQuery(res.Graph)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("--- synthesized TBQL query ---")
	fmt.Println(query)
	if *synthOnly {
		return
	}

	if *explain {
		report, err := sys.Explain(query)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(report)
	}

	if *useFuzzy {
		als, err := sys.FuzzyHunt(ctx, query, true)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("--- fuzzy alignments ---")
		for _, al := range als {
			fmt.Printf("score %.2f: %v (%d events)\n", al.Score, al.Entities, len(al.Events))
		}
		if err := sys.Close(); err != nil {
			log.Fatal(err)
		}
		return
	}

	hits, stats, err := sys.Hunt(ctx, query)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("--- results ---")
	fmt.Println(hits.Set.Columns)
	for _, row := range hits.Set.Strings() {
		fmt.Println(row)
	}
	fmt.Printf("(%d matched events, %d data queries)\n", len(hits.MatchedEvents), stats.DataQueries)
	if stats.EmptyPatternID != "" {
		fmt.Printf("note: pattern %s matched no events and emptied the conjunction;\n", stats.EmptyPatternID)
		fmt.Println("      revise the query (remove/relax the pattern) or try -fuzzy")
	}
	if err := sys.Close(); err != nil {
		log.Fatal(err)
	}
}

// watchQuery resolves the standing query: an explicit TBQL file wins,
// otherwise the report is extracted and a query synthesized (no store is
// needed for synthesis).
func watchQuery(sys *threatraptor.System, queryPath, reportPath string) (string, error) {
	if queryPath != "" {
		data, err := os.ReadFile(queryPath)
		if err != nil {
			return "", err
		}
		return string(data), nil
	}
	if reportPath == "" {
		return "", fmt.Errorf("watch mode needs -query or -report")
	}
	data, err := os.ReadFile(reportPath)
	if err != nil {
		return "", err
	}
	res := sys.ExtractBehaviorGraph(string(data))
	return sys.SynthesizeQuery(res.Graph)
}

// runWatch tails the log file: each poll ingests whatever bytes were
// appended since the last one (the open file keeps its offset, and a
// half-written final line stays buffered inside the parser), then prints
// any standing-query firings. The tailer survives log rotation (the path
// points at a new inode: the old file is drained once more, then the new
// one is opened from the start) and truncation (the inode shrank below
// the read offset: rewind to 0), retries transient read errors with
// jittered exponential backoff, and on SIGINT/SIGTERM drains a final
// ingest+flush before exiting so buffered events still fire. A
// quarantined standing query (or an unexpectedly closed subscription) is
// fatal: the watch can never fire again, so runWatch returns the cause
// and the process exits nonzero.
func runWatch(sys *threatraptor.System, logPath, query string, poll time.Duration, idleLimit int, withTactical, showIncidents bool) error {
	f, err := os.Open(logPath)
	if err != nil {
		return err
	}
	defer func() {
		if f != nil {
			f.Close()
		}
	}()

	sub, err := sys.Watch(query)
	if err != nil {
		return err
	}
	var isub *stream.IncidentSub
	if withTactical {
		isub, err = sys.WatchIncidents(0)
		if err != nil {
			return err
		}
	}
	printMatches := func() (int, error) {
		n := 0
		for {
			select {
			case m, ok := <-sub.C:
				if !ok || m.Terminal {
					// The terminal marker is delivered best-effort before
					// the close; either way the query is gone for good.
					if cause := sub.Err(); cause != nil {
						return n, fmt.Errorf("standing query quarantined: %w", cause)
					}
					return n, fmt.Errorf("standing query subscription closed")
				}
				fmt.Printf("MATCH batch=%d", m.Batch)
				for i, col := range m.Columns {
					fmt.Printf(" %s=%s", col, m.Row[i].String())
				}
				fmt.Println()
				n++
			default:
				return n, nil
			}
		}
	}
	printIncidents := func() {
		if isub == nil {
			return
		}
		for {
			select {
			case u, ok := <-isub.C:
				if !ok {
					isub = nil
					return
				}
				fmt.Printf("INCIDENTS batch=%d alerts=%d new=%d open=%d\n",
					u.Batch, u.Alerts, u.NewIncidents, len(u.Incidents))
				if len(u.Incidents) > 0 {
					top := u.Incidents[0]
					fmt.Printf("  top: #%d root=%s chain=%d score=%d alerts=%d\n",
						top.ID, top.RootEntity, top.ChainLen, top.ChainScore, top.AlertCount)
				}
			default:
				return
			}
		}
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)

	// finish drains whatever is still readable plus everything buffered
	// (partial line, arrival buffer, pending merges) so a shutdown loses
	// nothing that was already on disk.
	finish := func(reason string) error {
		if f != nil {
			if _, err := sys.Ingest(f); err != nil {
				var pe *stream.ParseError
				if !errors.As(err, &pe) {
					fmt.Fprintf(os.Stderr, "watch: final ingest: %v\n", err)
				}
			}
		}
		if _, err := sys.FlushStream(); err != nil {
			return err
		}
		_, merr := printMatches()
		printIncidents()
		if showIncidents {
			incs, err := sys.Incidents()
			if err != nil {
				return err
			}
			data, err := tactical.MarshalIncidents(incs)
			if err != nil {
				return err
			}
			fmt.Println("--- ranked incidents ---")
			fmt.Println(string(data))
		}
		if merr != nil {
			return merr
		}
		fmt.Printf("watch: %s; flushed and exiting\n", reason)
		return nil
	}

	// sleep waits d or returns false on SIGINT/SIGTERM.
	sleep := func(d time.Duration) bool {
		select {
		case <-sigc:
			return false
		case <-time.After(d):
			return true
		}
	}

	const maxBackoff = 10 * time.Second
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	backoff := time.Duration(0)
	// fail sleeps one jittered exponential-backoff step; transient errors
	// (a rotated-away file mid-reopen, an NFS hiccup) must not kill a
	// long-lived watch, but hot-looping on them would burn the CPU.
	fail := func(op string, err error) bool {
		if backoff == 0 {
			backoff = poll
		} else if backoff < maxBackoff {
			backoff *= 2
			if backoff > maxBackoff {
				backoff = maxBackoff
			}
		}
		d := backoff + time.Duration(rng.Int63n(int64(backoff/2)+1))
		fmt.Fprintf(os.Stderr, "watch: %s: %v (retrying in %s)\n", op, err, d.Round(time.Millisecond))
		return sleep(d)
	}

	fmt.Printf("watching %s (poll %s)\n", logPath, poll)
	idle := 0
	lastPartial := 0
	for {
		if f == nil {
			nf, err := os.Open(logPath)
			if err != nil {
				if !fail("reopen", err) {
					return finish("interrupted")
				}
				continue
			}
			f = nf
		}
		// Rotation: the path now names a different file. Drain the old
		// inode below one last time, then reopen next iteration.
		rotated := false
		if cur, err := f.Stat(); err == nil {
			if onDisk, err := os.Stat(logPath); err == nil {
				rotated = !os.SameFile(cur, onDisk)
			}
			// Truncation in place: the inode shrank below our offset;
			// start over from the top of the file.
			if off, err := f.Seek(0, io.SeekCurrent); err == nil && cur.Size() < off {
				fmt.Fprintf(os.Stderr, "watch: %s truncated (%d < %d); rewinding\n", logPath, cur.Size(), off)
				if _, err := f.Seek(0, io.SeekStart); err != nil {
					f.Close()
					f = nil
					if !fail("rewind", err) {
						return finish("interrupted")
					}
					continue
				}
			}
		}
		st, err := sys.Ingest(f)
		var pe *stream.ParseError
		if errors.As(err, &pe) {
			// One corrupt record must not kill a live watch: the valid
			// lines around it were ingested; warn and keep tailing.
			fmt.Fprintf(os.Stderr, "watch: %v\n", pe)
		} else if err != nil {
			if errors.Is(err, stream.ErrSessionClosed) {
				return err
			}
			if !fail("ingest", err) {
				return finish("interrupted")
			}
			continue
		}
		backoff = 0
		if rotated {
			fmt.Fprintf(os.Stderr, "watch: %s rotated; reopening\n", logPath)
			f.Close()
			f = nil
			continue
		}
		fired, merr := printMatches()
		if merr != nil {
			return merr
		}
		printIncidents()
		// A grown partial line is progress too: the producer is
		// mid-write, not idle.
		if st.EventsParsed > 0 || st.EventsSealed > 0 || fired > 0 || st.PartialBuffered != lastPartial {
			idle = 0
		} else {
			idle++
			if idleLimit > 0 && idle >= idleLimit {
				if st.PartialBuffered > 0 {
					fmt.Printf("watch: warning: flushing a %d-byte unterminated trailing line\n", st.PartialBuffered)
				}
				return finish("idle limit reached")
			}
		}
		lastPartial = st.PartialBuffered
		if !sleep(poll) {
			return finish("interrupted")
		}
	}
}
