// Command benchjson runs the engine and stream benchmarks and writes
// their ns/op, B/op, and allocs/op to a JSON file, establishing the
// performance trajectory that future changes are measured against.
//
// Usage:
//
//	go run ./cmd/benchjson [-o BENCH_engine.json] [-benchtime 2s]
//	go run ./cmd/benchjson -gate [-gate-threshold 0.25] [-gate-bench BenchmarkExecuteScheduled]
//
// It shells out to `go test -bench` so the numbers are exactly what the
// standard tooling reports, then parses the benchmark lines into JSON.
//
// With -gate it becomes the CI regression guard: instead of overwriting
// the baseline file it re-runs the gated benchmarks, compares them against
// the committed file, and exits non-zero when allocs/op or B/op regresses
// by more than the threshold, or when a store-size sweep's large leg
// allocates more than sweepSlack times its small one. ns/op is printed as
// advisory only: it moves with the machine, and the committed numbers
// come from one run on one box.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"time"
)

// Result is one benchmark's parsed measurements.
type Result struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// File is the emitted document.
type File struct {
	GoVersion string            `json:"go_version"`
	Package   string            `json:"package"`
	Date      string            `json:"date"`
	Results   []Result          `json:"results"`
	Baseline  map[string]Result `json:"baseline,omitempty"`
}

// benchLine parses one `go test -bench` result line. Custom metrics from
// b.ReportMetric (e.g. BenchmarkTacticalRound's alerts/op) print between
// ns/op and B/op; the optional middle group skips them.
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+(\d+)\s+([\d.]+) ns/op(?:\s+[\d.]+ [^\s]+)*?\s+(\d+) B/op\s+(\d+) allocs/op`)

// gomaxprocsSuffix is the "-N" go test appends to benchmark names when
// GOMAXPROCS > 1; it is stripped so names are stable across machines.
var gomaxprocsSuffix = regexp.MustCompile(`-\d+$`)

func main() {
	out := flag.String("o", "BENCH_engine.json", "output file (in -gate mode: the committed baseline to compare against)")
	benchtime := flag.String("benchtime", "2s", "go test -benchtime value")
	pattern := flag.String("bench", "BenchmarkExecuteScheduled|BenchmarkExecuteUnscheduled|BenchmarkStoreLoadEngine|BenchmarkStoreOpenSegment|BenchmarkStreamIngest|BenchmarkStandingQuery|BenchmarkStandingQueryScale|BenchmarkStandingQueryVarLen|BenchmarkConcurrentHunts|BenchmarkTacticalRound|BenchmarkCompile|BenchmarkShardedHunt|BenchmarkSegmentFlush|BenchmarkJoinFanout|BenchmarkPathAnchor", "benchmark regexp")
	gate := flag.Bool("gate", false, "compare against the committed baseline instead of rewriting it; exit 1 on regression")
	gateThreshold := flag.Float64("gate-threshold", 0.25, "fractional regression tolerated by -gate (0.25 = 25%)")
	gateBench := flag.String("gate-bench", "BenchmarkExecuteScheduled,BenchmarkStreamIngest,BenchmarkStandingQuery,BenchmarkStandingQueryScale/8x,BenchmarkStandingQueryScale/8x-shards2,BenchmarkStandingQueryScale/8x-shards4,BenchmarkStandingQueryVarLen/8x,BenchmarkConcurrentHunts,BenchmarkTacticalRound,BenchmarkCompile/cold,BenchmarkCompile/hit,BenchmarkShardedHunt/shards4,BenchmarkStoreLoadEngine,BenchmarkStoreOpenSegment,BenchmarkSegmentFlush/1x,BenchmarkSegmentFlush/8x,BenchmarkJoinFanout,BenchmarkPathAnchor", "comma-separated benchmarks checked by -gate")
	flag.Parse()

	if *gate {
		*pattern = strings.Join(strings.Split(*gateBench, ","), "|")
	}
	cmd := exec.Command("go", "test", "./internal/engine", "./internal/stream", "./internal/shard",
		"-run", "NONE", "-bench", *pattern, "-benchmem", "-benchtime", *benchtime)
	cmd.Stderr = os.Stderr
	raw, err := cmd.Output()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: go test -bench failed: %v\n", err)
		os.Exit(1)
	}

	doc := File{
		Package: "threatraptor/internal/engine threatraptor/internal/stream threatraptor/internal/shard",
		Date:    time.Now().UTC().Format("2006-01-02"),
	}
	if v, err := exec.Command("go", "version").Output(); err == nil {
		doc.GoVersion = string(v[:len(v)-1])
	}
	for _, line := range regexp.MustCompile(`\r?\n`).Split(string(raw), -1) {
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		iters, _ := strconv.ParseInt(m[2], 10, 64)
		ns, _ := strconv.ParseFloat(m[3], 64)
		bytes, _ := strconv.ParseInt(m[4], 10, 64)
		allocs, _ := strconv.ParseInt(m[5], 10, 64)
		doc.Results = append(doc.Results, Result{
			Name:       gomaxprocsSuffix.ReplaceAllString(m[1], ""),
			Iterations: iters, NsPerOp: ns,
			BytesPerOp: bytes, AllocsPerOp: allocs,
		})
	}
	if len(doc.Results) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines parsed")
		os.Exit(1)
	}

	if *gate {
		os.Exit(runGate(*out, doc.Results, *gateBench, *gateThreshold))
	}

	// Preserve a previously recorded baseline block so before/after
	// numbers travel together.
	if prev, err := os.ReadFile(*out); err == nil {
		var old File
		if json.Unmarshal(prev, &old) == nil && old.Baseline != nil {
			doc.Baseline = old.Baseline
		}
	}

	enc, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s (%d benchmarks)\n", *out, len(doc.Results))
}

// sweeps pairs the small and large legs of store-size sweeps whose O(delta)
// claim the gate holds: the large leg's B/op must stay within sweepSlack
// of the small one's in the same run.
var sweeps = [][2]string{{"BenchmarkSegmentFlush/1x", "BenchmarkSegmentFlush/8x"}}

const sweepSlack = 1.5

// runGate compares fresh measurements against the committed baseline file
// and returns the process exit code: 0 when every gated benchmark's
// allocs/op and B/op are within (1+threshold) of the committed numbers and
// every gated sweep stays flat. ns/op is reported, never failed on.
func runGate(baselinePath string, fresh []Result, gateBench string, threshold float64) int {
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: cannot read baseline %s: %v\n", baselinePath, err)
		return 1
	}
	var committed File
	if err := json.Unmarshal(raw, &committed); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: cannot parse baseline %s: %v\n", baselinePath, err)
		return 1
	}
	byName := make(map[string]Result, len(committed.Results))
	for _, r := range committed.Results {
		byName[r.Name] = r
	}
	freshByName := make(map[string]Result, len(fresh))
	for _, r := range fresh {
		freshByName[r.Name] = r
	}

	code := 0
	check := func(name, metric string, old, new, limit float64, gated bool) {
		status := "ok"
		switch {
		case !gated:
			status = "advisory"
		case new > limit:
			status = "REGRESSION"
			code = 1
		}
		fmt.Printf("%-28s %-10s %14.0f -> %10.0f (limit %.0f) %s\n",
			name, metric, old, new, limit, status)
	}
	gatedNames := map[string]bool{}
	for _, name := range strings.Split(gateBench, ",") {
		name = strings.TrimSpace(name)
		gatedNames[name] = true
		base, ok := byName[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "benchjson: baseline %s has no entry for %s\n", baselinePath, name)
			return 1
		}
		cur, ok := freshByName[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "benchjson: fresh run produced no result for %s\n", name)
			return 1
		}
		limit := 1 + threshold
		check(name, "ns/op", base.NsPerOp, cur.NsPerOp, base.NsPerOp*limit, false)
		check(name, "allocs/op", float64(base.AllocsPerOp), float64(cur.AllocsPerOp), float64(base.AllocsPerOp)*limit, true)
		check(name, "B/op", float64(base.BytesPerOp), float64(cur.BytesPerOp), float64(base.BytesPerOp)*limit, true)
	}
	for _, sw := range sweeps {
		if gatedNames[sw[0]] && gatedNames[sw[1]] {
			small, large := freshByName[sw[0]], freshByName[sw[1]]
			check(sw[1], "B/op vs "+sw[0][strings.LastIndex(sw[0], "/")+1:], float64(small.BytesPerOp), float64(large.BytesPerOp),
				float64(small.BytesPerOp)*sweepSlack, true)
		}
	}
	if code != 0 {
		fmt.Fprintf(os.Stderr, "benchjson: allocation regression beyond %.0f%% (or a sweep beyond %.1fx) — if intended, refresh %s with `go run ./cmd/benchjson`\n",
			threshold*100, sweepSlack, baselinePath)
	}
	return code
}
