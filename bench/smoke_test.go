package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// smokeConfig is a workload at smoke-test size: tiny stores, a window of
// well under a second. One output directory (and so one daemon build) is
// shared by the whole test binary.
var smokeDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "bench-smoke-")
	if err != nil {
		panic(err)
	}
	smokeDir = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func smokeConfig(workload string, trace bool) *config {
	return &config{workload: workload, seed: 7, seconds: 0.4, trace: trace, short: true, outDir: smokeDir, daemon: smokeDaemon}
}

// smokeDaemon caches the daemon binary across tests once one has built it.
var smokeDaemon string

func runSmoke(t *testing.T, cfg *config) *resultJSON {
	t.Helper()
	res, out, err := runOne(cfg)
	if err != nil {
		t.Fatalf("%s: %v", cfg.workload, err)
	}
	if cfg.daemon != "" {
		smokeDaemon = cfg.daemon
	}
	if !cfg.breakOracle && (!res.Correct || res.Failed != 0) {
		t.Fatalf("%s: %d of %d operations failed: %v", cfg.workload, res.Failed, res.Attempted, out.firstErr)
	}
	if res.Attempted < 1 {
		t.Fatalf("%s: nothing attempted", cfg.workload)
	}
	// The result line must round-trip with exactly the contract's keys.
	line, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(line, &keys); err != nil || len(keys) != 4 {
		t.Fatalf("result line has keys %v", keys)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("result line lacks %q", k)
		}
	}
	return res
}

// TestSmokeEndToEnd runs every workload untraced at smoke size: every
// end-to-end metric is present with its unit and is not zero, and no
// operation fails.
func TestSmokeEndToEnd(t *testing.T) {
	for _, name := range workloadOrder {
		res := runSmoke(t, smokeConfig(name, false))
		if len(res.Metrics) != len(endToEnd) {
			t.Errorf("%s: %d metrics, want %d", name, len(res.Metrics), len(endToEnd))
		}
		for _, d := range endToEnd {
			m, ok := res.Metrics[d.Name]
			if !ok || m.Unit != d.Unit || !(m.Value > 0) {
				t.Errorf("%s: metric %s = %+v (present %v), want a positive value in %s", name, d.Name, m, ok, d.Unit)
			}
		}
	}
}

// TestSmokeTraced runs every workload traced: every per-layer metric is
// present with its unit, the layers a workload exercises report work and
// the layers it bypasses report none, and the trace file is written.
func TestSmokeTraced(t *testing.T) {
	uses := map[string][]string{
		"hunt-history":   {"tbql_us_per_op", "engine_us_per_op", "engine_data_queries_per_op", "rel_rows_scanned_per_op", "graph_nodes_visited_per_op"},
		"cti-burst":      {"extract_us_per_op", "synth_us_per_op", "tbql_us_per_op", "engine_us_per_op", "extract_entities_per_op", "nlp_path_share_pct"},
		"ingest-durable": {"audit_us_per_op", "reduction_us_per_op", "segment_us_per_op", "engine_us_per_op", "tactical_us_per_op", "segment_wal_frames_per_op", "disk_bytes_per_event", "ingest_records_per_s", "reduction_merge_ratio", "ingest_path_share_pct"},
		"serve-mixed":    {"daemon_us_per_op", "transport_us_per_op", "shard_fanout_mean", "ingest_due_p95_ms", "ingest_records_per_s"},
	}
	// Layers that must be absent outside the one workload that has them.
	only := map[string]string{
		"daemon_us_per_op": "serve-mixed", "transport_us_per_op": "serve-mixed", "shard_fanout_mean": "serve-mixed",
		"extract_us_per_op": "cti-burst", "synth_us_per_op": "cti-burst",
		"segment_us_per_op": "ingest-durable", "audit_us_per_op": "ingest-durable",
	}
	for _, name := range workloadOrder {
		res := runSmoke(t, smokeConfig(name, true))
		if len(res.Metrics) != len(perLayer) {
			t.Errorf("%s: %d metrics, want %d", name, len(res.Metrics), len(perLayer))
		}
		for _, d := range perLayer {
			if m, ok := res.Metrics[d.Name]; !ok || m.Unit != d.Unit {
				t.Errorf("%s: metric %s = %+v (present %v), want unit %s", name, d.Name, m, ok, d.Unit)
			}
		}
		for _, m := range uses[name] {
			if !(res.Metrics[m].Value > 0) {
				t.Errorf("%s: layer metric %s = %v, want work recorded", name, m, res.Metrics[m].Value)
			}
		}
		for m, w := range only {
			if w != name && res.Metrics[m].Value != 0 {
				t.Errorf("%s: layer metric %s = %v, want 0 (only %s exercises it)", name, m, res.Metrics[m].Value, w)
			}
		}
		b, err := os.ReadFile(filepath.Join(smokeDir, "trace-"+name+".json"))
		var spans []span
		if err != nil || json.Unmarshal(b, &spans) != nil || len(spans) == 0 {
			t.Errorf("%s: trace file: %d spans, %v", name, len(spans), err)
		}
	}
}

// TestBrokenOracleFailsTheRun is the negative test: with the reference
// answers deliberately corrupted, every workload must report failures and
// correct=false (which main turns into a non-zero exit).
func TestBrokenOracleFailsTheRun(t *testing.T) {
	for _, name := range workloadOrder {
		cfg := smokeConfig(name, false)
		cfg.breakOracle = true
		if res := runSmoke(t, cfg); res.Correct || res.Failed == 0 {
			t.Errorf("%s: a corrupted oracle went unnoticed (%d failed of %d)", name, res.Failed, res.Attempted)
		}
	}
}

// TestSpecMatchesCatalogue holds BENCHMARK.json to the metric catalogue
// and workload list compiled into the benchmark.
func TestSpecMatchesCatalogue(t *testing.T) {
	var spec struct {
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name, Why string
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := readJSON("../BENCHMARK.json", &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadOrder) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the benchmark", len(spec.Workloads), len(workloadOrder))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadOrder[i] || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d: %q (why: %d chars)", i, w.Name, len(w.Why))
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) || len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, the benchmark %d+%d", len(spec.EndToEnd), len(spec.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range spec.EndToEnd {
		if d := endToEnd[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end %d: %+v vs catalogue %+v", i, m, d)
		}
	}
	for i, m := range spec.PerLayer {
		if d := perLayer[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer %d: %+v vs catalogue %+v", i, m, d)
		}
	}
}
