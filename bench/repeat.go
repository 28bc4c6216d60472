package main

// Repeatability tooling: -repeat runs a workload several times in child
// processes and summarises each metric; -agree holds two such result sets
// to the bounds in BENCHMARK.json.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// resultSet is what -repeat writes and -agree reads: every run's value of
// every metric, per workload.
type resultSet struct {
	Seed      int64                           `json:"seed"`
	Seconds   float64                         `json:"seconds"`
	Trace     bool                            `json:"trace"`
	Workloads map[string]map[string][]float64 `json:"workloads"`
}

// quartiles returns the three cut points Python's
// statistics.quantiles(values, n=4) returns (the exclusive method).
func quartiles(values []float64) [3]float64 {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	var q [3]float64
	if len(d) < 2 {
		for i := range q {
			q[i] = d[0]
		}
		return q
	}
	m := len(d) + 1
	for i := 1; i < 4; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(d)-1 {
			j = len(d) - 1
		}
		delta := float64(i*m - j*4)
		q[i-1] = (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q
}

// spread is the distance between the quartiles as a share of the median.
func spread(values []float64) float64 {
	q := quartiles(values)
	return (q[2] - q[0]) / q[1]
}

// repeatRuns runs the workload (or all) n times, each in a fresh child
// process on the next seed, and prints each metric's median, quartiles and
// spread.
func repeatRuns(cfg *config, n int, outFile string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	names := []string{cfg.workload}
	if cfg.workload == "all" {
		names = workloadOrder
	}
	set := resultSet{Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace, Workloads: map[string]map[string][]float64{}}
	for _, name := range names {
		vals := map[string][]float64{}
		for i := 0; i < n; i++ {
			args := []string{
				"-workload", name, "-seed", strconv.FormatInt(cfg.seed+int64(i), 10),
				"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-out-dir", cfg.outDir,
			}
			if cfg.trace {
				args = append(args, "-trace", "1")
			}
			if cfg.short {
				args = append(args, "-short")
			}
			if cfg.daemon != "" {
				args = append(args, "-daemon", cfg.daemon)
			}
			var stdout, stderr bytes.Buffer
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s run %d: %v\n%s", name, i, err, stderr.String())
			}
			lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
			var res resultJSON
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
				return fmt.Errorf("%s run %d: bad result line: %w", name, i, err)
			}
			for m, v := range res.Metrics {
				vals[m] = append(vals[m], v.Value)
			}
			fmt.Fprintf(os.Stderr, "%s run %d/%d (seed %d) done\n", name, i+1, n, cfg.seed+int64(i))
		}
		set.Workloads[name] = vals
		fmt.Printf("== %s: %d runs, seeds %d..%d, %.0f s window\n", name, n, cfg.seed, cfg.seed+int64(n)-1, cfg.seconds)
		fmt.Printf("   %-30s %14s %14s %14s %8s\n", "metric", "median", "q1", "q3", "spread")
		metrics := make([]string, 0, len(vals))
		for m := range vals {
			metrics = append(metrics, m)
		}
		sort.Strings(metrics)
		for _, m := range metrics {
			q := quartiles(vals[m])
			fmt.Printf("   %-30s %14.4f %14.4f %14.4f %7.1f%%\n", m, q[1], q[0], q[2], 100*spread(vals[m]))
		}
	}
	if outFile == "" {
		return nil
	}
	b, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(outFile, b, 0o644)
}

// benchSpec is the part of BENCHMARK.json -agree needs.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}

// agreeFiles compares result sets a and b the way the driver compares two
// sets of runs: for every workload and bounded metric, b's median may not
// be worse than a's by more than the bound, and (setup_s excepted) neither
// set's spread may exceed the bound.
func agreeFiles(specPath, aPath, bPath string, w io.Writer) (bool, error) {
	var spec benchSpec
	var a, b resultSet
	for path, v := range map[string]any{specPath: &spec, aPath: &a, bPath: &b} {
		if err := readJSON(path, v); err != nil {
			return false, fmt.Errorf("%s: %w", path, err)
		}
	}
	ok := true
	for _, name := range workloadOrder {
		va, vb := a.Workloads[name], b.Workloads[name]
		if va == nil || vb == nil {
			continue
		}
		fmt.Fprintf(w, "== %s\n   %-12s %12s %12s %8s %8s %8s %7s\n", name, "metric", "median a", "median b", "worse", "spread a", "spread b", "bound")
		for _, m := range spec.EndToEnd {
			ma, mb := quartiles(va[m.Name])[1], quartiles(vb[m.Name])[1]
			worse := (mb - ma) / ma
			if m.Better == "higher" {
				worse = (ma - mb) / ma
			}
			sa, sb := spread(va[m.Name]), spread(vb[m.Name])
			verdict := ""
			if worse > m.Bound {
				verdict = "  MEDIANS DISAGREE"
			}
			if m.Name != "setup_s" && (sa > m.Bound || sb > m.Bound) {
				verdict += "  SPREAD OVER BOUND"
			}
			if verdict != "" {
				ok = false
			}
			fmt.Fprintf(w, "   %-12s %12.4f %12.4f %7.1f%% %7.1f%% %7.1f%% %6.0f%%%s\n", m.Name, ma, mb, 100*worse, 100*sa, 100*sb, 100*m.Bound, verdict)
		}
	}
	return ok, nil
}
