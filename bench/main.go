// Command bench is the repository's benchmark: four workloads that drive
// ThreatRaptor through its public surfaces (the threatraptor.System façade
// and, for serve-mixed, a threatraptord child process over loopback HTTP),
// check every output against an oracle, and print named end-to-end metrics
// (-trace 0) or per-layer metrics from a traced run (-trace 1). See
// README.md in this directory for the catalogue.
//
//	go run . -workload hunt-history -seed 1 -seconds 10 -trace 0
//	go run . -workload all -seed 1
//	go run . -workload cti-burst -repeat 10 -out a.json
//	go run . -agree a.json b.json
//
// The last line of standard output is one JSON object per workload with
// exactly the keys correct, attempted, failed and metrics; everything else
// (diagnostics, the layer table) goes to standard error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// metricDef names one metric of the catalogue.
type metricDef struct {
	Name, Unit, Better string
}

// endToEnd are the metrics a user of the system feels; every workload
// reports all of them (what "op" means per workload is in the README).
// Their regression bounds live in BENCHMARK.json.
var endToEnd = []metricDef{
	{"op_p50_ms", "ms", "lower"},
	{"op_tail_ms", "ms", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"setup_s", "s", "lower"},
	{"mem_mb", "MiB", "lower"},
}

// perLayer are the traced run's metrics; a layer a workload does not
// exercise reports 0.
var perLayer = []metricDef{
	{"traced_op_p50_ms", "ms", "lower"},
	{"trace_overhead_pct", "%", "lower"},
	{"extract_us_per_op", "us", "lower"},
	{"synth_us_per_op", "us", "lower"},
	{"tbql_us_per_op", "us", "lower"},
	{"engine_us_per_op", "us", "lower"},
	{"audit_us_per_op", "us", "lower"},
	{"reduction_us_per_op", "us", "lower"},
	{"segment_us_per_op", "us", "lower"},
	{"tactical_us_per_op", "us", "lower"},
	{"stream_us_per_op", "us", "lower"},
	{"daemon_us_per_op", "us", "lower"},
	{"transport_us_per_op", "us", "lower"},
	{"nlp_path_share_pct", "%", "lower"},
	{"engine_share_pct", "%", "lower"},
	{"ingest_path_share_pct", "%", "lower"},
	{"extract_entities_per_op", "count", "higher"},
	{"extract_relations_per_op", "count", "higher"},
	{"tbql_patterns_per_op", "count", "lower"},
	{"engine_data_queries_per_op", "count", "lower"},
	{"engine_pattern_rows_per_op", "count", "lower"},
	{"engine_join_bindings_per_op", "count", "lower"},
	{"engine_examined_per_row", "count", "lower"},
	{"rel_rows_scanned_per_op", "count", "lower"},
	{"rel_index_lookups_per_op", "count", "lower"},
	{"rel_hashjoin_builds_per_op", "count", "lower"},
	{"graph_nodes_visited_per_op", "count", "lower"},
	{"graph_edges_traversed_per_op", "count", "lower"},
	{"engine_view_rows", "count", "lower"},
	{"engine_view_catchup_skips", "count", "higher"},
	{"audit_records_per_op", "count", "higher"},
	{"reduction_merge_ratio", "count", "higher"},
	{"segment_wal_frames_per_op", "count", "lower"},
	{"segment_fsync_us", "us", "lower"},
	{"segment_flushes", "count", "lower"},
	{"segment_write_amp", "count", "lower"},
	{"segment_files_on_disk", "count", "lower"},
	{"disk_bytes_per_event", "count", "lower"},
	{"ingest_records_per_s", "1/s", "higher"},
	{"tactical_round_us", "us", "lower"},
	{"tactical_alerts_per_event", "count", "lower"},
	{"tactical_incidents_open", "count", "lower"},
	{"stream_firings", "count", "higher"},
	{"stream_dropped", "count", "lower"},
	{"shard_fanout_mean", "count", "lower"},
	{"shard_global_routed", "count", "lower"},
	{"shard_rollbacks", "count", "lower"},
	{"daemon_rejections", "count", "lower"},
	{"ingest_due_p50_ms", "ms", "lower"},
	{"ingest_due_p95_ms", "ms", "lower"},
	{"gen_late_p95_ms", "ms", "lower"},
}

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// short shrinks every fixed size to a smoke-test scale (go test).
	short bool
	// daemon is the threatraptord binary serve-mixed starts.
	daemon string
	// outDir holds trace files and the run's scratch directory.
	outDir string
	// breakOracle corrupts the reference answers; the negative test sets
	// it to prove a wrong output fails the run.
	breakOracle bool
}

func (c *config) window() time.Duration {
	return time.Duration(c.seconds * float64(time.Second))
}

// warm is the discarded warm-up before each measured window: plan caches,
// views and lazy set-up fill here.
func (c *config) warm() time.Duration {
	w := c.window() / 5
	if w > 2*time.Second {
		w = 2 * time.Second
	}
	return w
}

// scratch creates a per-run scratch directory under outDir.
func (c *config) scratch() (string, error) {
	if err := os.MkdirAll(c.outDir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(c.outDir, "run-")
}

// outcome is what a workload run produced.
type outcome struct {
	attempted int
	failed    int
	firstErr  error
	metrics   map[string]float64
	diag      []string // human-readable lines for standard error
}

func (o *outcome) note(format string, a ...any) {
	o.diag = append(o.diag, fmt.Sprintf(format, a...))
}

// fail records failed oracle checks or operations.
func (o *outcome) fail(n int, err error) {
	o.failed += n
	if o.firstErr == nil {
		o.firstErr = err
	}
}

// count adds a loop's operations and failures to the outcome's totals.
func (o *outcome) count(r loopResult) {
	o.attempted += r.Attempted
	if r.Failed > 0 {
		o.fail(r.Failed, r.FirstErr)
	}
}

// addLoop folds the measured operations into the outcome's end-to-end
// metrics. tail is the workload's tail quantile: 0.95, unless p95 falls on
// a sparse stretch of the workload's latency distribution and does not
// repeat (see README, "End-to-end metrics").
func (o *outcome) addLoop(r loopResult, tail float64) {
	o.count(r)
	o.metrics["op_p50_ms"] = r.Lat.quantile(0.50)
	o.metrics["op_tail_ms"] = r.Lat.quantile(tail)
	o.metrics["ops_per_s"] = r.opsPerSec()
	o.note("samples %d  p50 %.4f ms  tail (p%.0f) %.4f ms  %.1f ops/s; diagnostics: p90 %.4f  p95 %.4f  p99 %.4f  max %.3f ms",
		len(r.Lat), r.Lat.quantile(0.5), 100*tail, r.Lat.quantile(tail), r.opsPerSec(),
		r.Lat.quantile(0.9), r.Lat.quantile(0.95), r.Lat.quantile(0.99), r.Lat.quantile(1))
}

type workloadFns struct {
	run, trace func(*config) (*outcome, error)
}

var workloadOrder = []string{"hunt-history", "cti-burst", "ingest-durable", "serve-mixed"}

var workloads = map[string]workloadFns{
	"hunt-history":   {runHuntHistory, traceHuntHistory},
	"cti-burst":      {runCTIBurst, traceCTIBurst},
	"ingest-durable": {runIngestDurable, traceIngestDurable},
	"serve-mixed":    {runServeMixed, traceServeMixed},
}

// metricJSON / resultJSON are the result line's shape.
type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// runOne runs one workload and renders its result line.
func runOne(cfg *config) (*resultJSON, *outcome, error) {
	fns, ok := workloads[cfg.workload]
	if !ok {
		return nil, nil, fmt.Errorf("unknown workload %q (want one of %s, or all)", cfg.workload, strings.Join(workloadOrder, ", "))
	}
	fn, defs := fns.run, endToEnd
	if cfg.trace {
		fn, defs = fns.trace, perLayer
	}
	out, err := fn(cfg)
	if err != nil {
		return nil, nil, err
	}
	res := &resultJSON{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metricJSON, len(defs)),
	}
	for _, d := range defs {
		res.Metrics[d.Name] = metricJSON{Value: out.metrics[d.Name], Unit: d.Unit}
	}
	return res, out, nil
}

func main() {
	var cfg config
	var traceFlag, repeat int
	var outFile, specPath string
	var agree bool
	flag.StringVar(&cfg.workload, "workload", "all", "workload: "+strings.Join(workloadOrder, ", ")+", or all")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed: the same seed gives the same inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the measured window in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1: traced single-client run printing the per-layer metrics; 0: untraced run printing the end-to-end metrics")
	flag.BoolVar(&cfg.short, "short", false, "shrink every fixed size to smoke-test scale")
	flag.StringVar(&cfg.daemon, "daemon", "", "threatraptord binary for serve-mixed (default: built into out/ on first use)")
	flag.StringVar(&cfg.outDir, "out-dir", "out", "directory for trace files and scratch data")
	flag.IntVar(&repeat, "repeat", 0, "run the workload N times in child processes on seeds seed..seed+N-1 and print each metric's median, quartiles and spread")
	flag.StringVar(&outFile, "out", "", "with -repeat: also write the result set to this JSON file (input of -agree)")
	flag.BoolVar(&agree, "agree", false, "compare two -repeat result sets (the two arguments) against the bounds in BENCHMARK.json; exit 1 outside them")
	flag.StringVar(&specPath, "spec", "../BENCHMARK.json", "with -agree: the BENCHMARK.json holding the bounds")
	flag.Parse()
	cfg.trace = traceFlag != 0

	switch {
	case agree:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-agree wants two result-set files"))
		}
		ok, err := agreeFiles(specPath, flag.Arg(0), flag.Arg(1), os.Stdout)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	case repeat > 0:
		if err := repeatRuns(&cfg, repeat, outFile); err != nil {
			fatal(err)
		}
	default:
		names := []string{cfg.workload}
		if cfg.workload == "all" {
			names = workloadOrder
		}
		exit := 0
		for _, name := range names {
			c := cfg
			c.workload = name
			res, out, err := runOne(&c)
			if err != nil {
				fatal(fmt.Errorf("%s: %w", name, err))
			}
			report(os.Stderr, &c, res, out)
			line, _ := json.Marshal(res)
			fmt.Println(string(line))
			if !res.Correct {
				exit = 1
			}
		}
		os.Exit(exit)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// report prints the human-readable account of one run.
func report(w *os.File, cfg *config, res *resultJSON, out *outcome) {
	mode := "untraced"
	if cfg.trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s  seed %d  window %.1fs  %s\n", cfg.workload, cfg.seed, cfg.seconds, mode)
	for _, l := range out.diag {
		fmt.Fprintln(w, "  ", l)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "   %-30s %14.4f %s\n", n, m.Value, m.Unit)
	}
	frac := 0.0
	if res.Attempted > 0 {
		frac = float64(res.Failed) / float64(res.Attempted)
	}
	fmt.Fprintf(w, "   failed_frac %.6f (%d of %d)\n", frac, res.Failed, res.Attempted)
	if out.firstErr != nil {
		fmt.Fprintf(w, "   FIRST FAILURE: %v\n", out.firstErr)
	}
}

// tracePath is where a workload's spans are written.
func tracePath(cfg *config) string {
	return filepath.Join(cfg.outDir, "trace-"+cfg.workload+".json")
}
