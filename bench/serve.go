package main

// serve-mixed: reads beside writes through the product binary. A
// threatraptord child process with a preloaded, time-sharded store serves
// one closed-loop hunt connection while one open-loop connection posts an
// ingest chunk every 50 ms. The only workload that exercises the shard
// scatter-gather, HTTP/JSON/admission, and reader–writer interference.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"threatraptor"
	"threatraptor/internal/audit"
)

const (
	// servePreloadClones × ≈11 k records ≈ 175 k raw records ≈ 87 k events.
	servePreloadClones      = 16
	servePreloadClonesShort = 8
	serveShards             = 4
	// servePartition slices event time so the preload spreads over all
	// shards and a trailing-window hunt touches one or two of them.
	servePartition = "time:5m"
	// serveIngestPeriod: one 512-record chunk every 50 ms = 10 240 raw
	// records/s offered, whatever the daemon's speed.
	serveIngestPeriod = 50 * time.Millisecond
	// serveDeadline fails a request not answered this long after it was
	// due (ingest) or sent (hunt).
	serveDeadline = 2 * time.Second
)

// daemon is a running threatraptord child.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	logs   *bytes.Buffer
	hc     *http.Client
	exited chan struct{} // closed once the child has been waited for
}

// freeAddr asks the kernel for an unused loopback port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startDaemon execs the daemon and waits until it answers a hunt; the
// returned duration runs from exec to that first answer.
func startDaemon(bin string, firstHunt string, args ...string) (*daemon, time.Duration, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	d := &daemon{base: "http://" + addr, logs: &bytes.Buffer{}, hc: &http.Client{Timeout: 30 * time.Second}}
	d.cmd = exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	d.cmd.Stdout, d.cmd.Stderr = d.logs, d.logs
	t0 := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, 0, err
	}
	d.exited = make(chan struct{})
	go func() { d.cmd.Wait(); close(d.exited) }()
	for {
		select {
		case <-d.exited:
			return nil, 0, fmt.Errorf("threatraptord exited during start-up:\n%s", d.logs)
		default:
		}
		if time.Since(t0) > 60*time.Second {
			d.stop()
			return nil, 0, fmt.Errorf("threatraptord not ready after 60 s:\n%s", d.logs)
		}
		resp, err := d.hc.Get(d.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	if _, err := d.hunt(firstHunt); err != nil {
		d.stop()
		return nil, 0, err
	}
	return d, time.Since(t0), nil
}

// stop terminates the child (SIGTERM, then SIGKILL after 5 s) and waits
// until it has exited.
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(5 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
	}
	d.hc.CloseIdleConnections()
}

// huntReply is the daemon's /v1/hunt answer.
type huntReply struct {
	Columns       []string   `json:"columns"`
	Rows          [][]string `json:"rows"`
	MatchedEvents int        `json:"matched_events"`
}

func (d *daemon) post(path string, body []byte) ([]byte, error) {
	resp, err := d.hc.Post(d.base+path, "text/plain", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: HTTP %d: %s", path, resp.StatusCode, strings.TrimSpace(string(b)))
	}
	return b, nil
}

func (d *daemon) hunt(src string) (*huntReply, error) {
	b, err := d.post("/v1/hunt", []byte(src))
	if err != nil {
		return nil, err
	}
	var r huntReply
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("/v1/hunt: %w", err)
	}
	return &r, nil
}

// vmHWMMiB reads the child's peak resident set from /proc.
func (d *daemon) vmHWMMiB() float64 {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// scrape reads /metrics into name{labels} → value.
func (d *daemon) scrape() (map[string]float64, error) {
	resp, err := d.hc.Get(d.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	m := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			m[line[:i]] = v
		}
	}
	return m, sc.Err()
}

// ensureDaemon returns the daemon binary, building it into outDir when no
// -daemon was given.
func ensureDaemon(cfg *config) (string, error) {
	if cfg.daemon != "" {
		return cfg.daemon, nil
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return "", err
	}
	bin, err := filepath.Abs(filepath.Join(cfg.outDir, "threatraptord"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "threatraptor/cmd/threatraptord")
	if b, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building threatraptord: %v\n%s", err, b)
	}
	cfg.daemon = bin
	return bin, nil
}

// serveBench is a started serve-mixed daemon with its inputs and oracle.
type serveBench struct {
	d      *daemon
	pool   []poolQuery
	ref    []uint64       // reference row hash per pool query over the preload
	log    []byte         // the preload, wire format
	live   []audit.Record // the live stream; chunks is its wire form,
	chunks [][]byte       // next the first chunk not yet sent
	next   int
	setupS []float64
	hwmMiB float64
	tmp    string
}

// servePool is the hunt mix: half trailing-window hunts the time
// partitioner prunes to the newest shards, half full-history hunts (the
// planted cases' queries plus two variable-length hunts the coordinator
// routes to the global store).
func servePool(minUS, maxUS int64) ([]poolQuery, error) {
	all, err := genQueryPool(minUS, maxUS)
	if err != nil {
		return nil, err
	}
	var pool []poolQuery
	for _, q := range all {
		switch {
		case q.Trailing:
			q.Weight = 5
		case q.Planted != "" || q.Name == "varlen-0" || q.Name == "varlen-1":
			q.Weight = 4
		default:
			continue
		}
		pool = append(pool, q)
	}
	return pool, nil
}

func setupServe(cfg *config, timed bool) (sb *serveBench, out *outcome, err error) {
	out = &outcome{metrics: map[string]float64{}}
	bin, err := ensureDaemon(cfg)
	if err != nil {
		return nil, nil, err
	}
	n, scale := servePreloadClones, cloneScale
	if cfg.short {
		n, scale = servePreloadClonesShort, shortScale
	}
	sb = &serveBench{}
	defer func() {
		if err != nil {
			sb.close()
		}
	}()
	preload := genStream(cfg.seed, scale, 0, n, 1, streamStartUS)
	sb.log = wire(preload.Records)
	// Enough live chunks for two warm-ups plus the window at the offered
	// rate (the traced run splits the window into two passes).
	need := int((2*cfg.warm()+cfg.window())/serveIngestPeriod) + 4
	for first, at := n, preload.endUS(); len(sb.live) < need*chunkRecords; first += 4 {
		g := genStream(cfg.seed, scale, first, 4, ingestAttackEvery, at)
		sb.live = append(sb.live, g.Records...)
		at = g.endUS()
	}
	sb.chunks = wireChunks(sb.live)
	if sb.pool, err = servePool(preload.Records[0].Time, preload.Records[len(preload.Records)-1].Time); err != nil {
		return nil, nil, err
	}

	if sb.tmp, err = cfg.scratch(); err != nil {
		return nil, nil, err
	}
	logPath := filepath.Join(sb.tmp, "preload.log")
	rulesPath := filepath.Join(sb.tmp, "rules.json")
	if err = os.WriteFile(logPath, sb.log, 0o644); err != nil {
		return nil, nil, err
	}
	if err = os.WriteFile(rulesPath, rulesJSON(genRules(cfg.seed, ingestRuleCount)), 0o644); err != nil {
		return nil, nil, err
	}
	once := func() error {
		if sb.d != nil {
			sb.d.stop()
			sb.d = nil
		}
		d, took, err := startDaemon(bin, sb.pool[0].Src,
			"-log", logPath, "-shards", strconv.Itoa(serveShards), "-partition-by", servePartition, "-rules", rulesPath)
		if err != nil {
			return err
		}
		sb.d = d
		sb.setupS = append(sb.setupS, took.Seconds())
		return nil
	}
	reps := 1
	if timed {
		reps = setupReps
	}
	for r := 0; r < reps; r++ {
		if err = once(); err != nil {
			return nil, nil, err
		}
	}
	sb.hwmMiB = sb.d.vmHWMMiB()
	out.note("daemon: -shards %d -partition-by %s, %d rules, preload %d clones = %d raw records (%.1f MB); offered ingest %d records every %v; hunt pool %d queries",
		serveShards, servePartition, ingestRuleCount, n, len(preload.Records), float64(len(sb.log))/1e6, chunkRecords, serveIngestPeriod, len(sb.pool))

	// Reference rows over the preload, from an unsharded in-process store.
	ref := threatraptor.New(threatraptor.DefaultOptions())
	if err = ref.LoadAuditLog(bytes.NewReader(sb.log)); err != nil {
		return nil, nil, err
	}
	or := newOracle(ref.Store(), cfg.breakOracle)
	for _, q := range sb.pool {
		var h uint64
		if h, err = or.hash(q.Src, true); err != nil {
			return nil, nil, err
		}
		sb.ref = append(sb.ref, h)
	}
	return sb, out, nil
}

func (sb *serveBench) close() {
	if sb.d != nil {
		sb.d.stop()
	}
	if sb.tmp != "" {
		os.RemoveAll(sb.tmp)
	}
}

// checkHunt compares a sharded HTTP answer with the reference rows.
func (sb *serveBench) checkHunt(idx int, r *huntReply) error {
	if rowsHash(r.Columns, r.Rows, -1) != sb.ref[idx] {
		return fmt.Errorf("hunt %s: rows differ from the oracle", sb.pool[idx].Name)
	}
	return nil
}

// serveLoad is one mixed window's outcome.
type serveLoad struct {
	hunts  loopResult
	ingest loopResult
	late   samples
}

// load runs the hunt connection and the ingest connection side by side for
// warm-up plus window. Full-history hunts are checked against the preload
// reference while ingest runs (attack instances arriving live project to
// rows the preload already answers); trailing-window hunts are checked
// after the flush. hunt wraps the HTTP call so the traced run can record
// spans around it.
func (sb *serveBench) load(cfg *config, hunt func(idx int, src string) (*huntReply, error)) serveLoad {
	var ld serveLoad
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ld.ingest, ld.late = openLoop(serveIngestPeriod, cfg.warm(), cfg.window(), func(int) error {
			t0 := time.Now()
			_, err := sb.d.post("/v1/ingest", sb.chunks[sb.next])
			sb.next++
			if err == nil && time.Since(t0) > serveDeadline {
				err = fmt.Errorf("ingest chunk %d answered after %v", sb.next-1, time.Since(t0))
			}
			return err
		})
	}()
	dk := huntDeck(sb.pool)
	ld.hunts = closedLoop(cfg.seed, 1, cfg.warm(), cfg.window(), func(_ int, rng *rand.Rand) error {
		idx, src := drawHunt(sb.pool, dk, rng)
		t0 := time.Now()
		r, err := hunt(idx, src)
		if err != nil {
			return err
		}
		if time.Since(t0) > serveDeadline {
			return fmt.Errorf("hunt %s answered after %v", sb.pool[idx].Name, time.Since(t0))
		}
		if sb.pool[idx].Trailing {
			return nil
		}
		return sb.checkHunt(idx, r)
	})
	wg.Wait()
	return ld
}

// verifyFlushed flushes the daemon and holds every pool query's sharded
// HTTP answer to an unsharded in-process reference loaded with the same
// records (preload plus every chunk sent).
func (sb *serveBench) verifyFlushed(cfg *config, out *outcome) error {
	if _, err := sb.d.post("/v1/flush", nil); err != nil {
		return err
	}
	sent := sb.next * chunkRecords
	if sent > len(sb.live) {
		sent = len(sb.live)
	}
	all := append(sb.log[:len(sb.log):len(sb.log)], wire(sb.live[:sent])...)
	ref := threatraptor.New(threatraptor.DefaultOptions())
	if err := ref.LoadAuditLog(bytes.NewReader(all)); err != nil {
		return err
	}
	or := newOracle(ref.Store(), cfg.breakOracle)
	for _, q := range sb.pool {
		want, err := or.hash(q.Src, true)
		if err != nil {
			return err
		}
		r, err := sb.d.hunt(q.Src)
		out.attempted++
		if err != nil {
			out.fail(1, err)
		} else if rowsHash(r.Columns, r.Rows, -1) != want {
			out.fail(1, fmt.Errorf("after flush: hunt %s over HTTP differs from the in-process reference", q.Name))
		}
	}
	return nil
}

func (ld *serveLoad) notes(out *outcome) {
	out.note("ingest beside the hunts: %d chunks, from due time p50 %.3f ms p95 %.3f ms max %.3f ms; generator late p95 %.3f ms",
		len(ld.ingest.Lat), ld.ingest.Lat.quantile(0.5), ld.ingest.Lat.quantile(0.95), ld.ingest.Lat.quantile(1), ld.late.quantile(0.95))
}

func runServeMixed(cfg *config) (*outcome, error) {
	sb, out, err := setupServe(cfg, true)
	if err != nil {
		return nil, err
	}
	defer sb.close()
	out.metrics["setup_s"] = median(sb.setupS)
	out.metrics["mem_mb"] = sb.hwmMiB
	out.note("setup_s samples %v (exec to first answered hunt); mem_mb is the daemon's VmHWM after set-up", sb.setupS)
	ld := sb.load(cfg, func(_ int, src string) (*huntReply, error) { return sb.d.hunt(src) })
	out.addLoop(ld.hunts, 0.95)
	out.count(ld.ingest)
	ld.notes(out)
	if err := sb.verifyFlushed(cfg, out); err != nil {
		return nil, err
	}
	return out, nil
}

func traceServeMixed(cfg *config) (*outcome, error) {
	sb, out, err := setupServe(cfg, false)
	if err != nil {
		return nil, err
	}
	defer sb.close()
	uw, tw := traceWindows(cfg)

	// Untraced reference pass (hunts only count; ingest runs beside them).
	ucfg := *cfg
	ucfg.seconds = uw.Seconds()
	untraced := sb.load(&ucfg, func(_ int, src string) (*huntReply, error) { return sb.d.hunt(src) })

	before, err := sb.d.scrape()
	if err != nil {
		return nil, err
	}
	rec := newRecorder()
	tcfg := *cfg
	tcfg.seconds = tw.Seconds()
	req := 0
	traced := sb.load(&tcfg, func(_ int, src string) (*huntReply, error) {
		req++
		root := rec.begin("request", -1, req)
		defer rec.end(root)
		sp := rec.begin("http", root, req)
		b, err := sb.d.post("/v1/hunt", []byte(src))
		rec.end(sp)
		if err != nil {
			return nil, err
		}
		sp = rec.begin("decode", root, req)
		var r huntReply
		err = json.Unmarshal(b, &r)
		rec.end(sp)
		return &r, err
	})
	after, err := sb.d.scrape()
	if err != nil {
		return nil, err
	}
	for _, ld := range []serveLoad{untraced, traced} {
		out.count(ld.hunts)
		out.count(ld.ingest)
	}
	traced.notes(out)
	if err := sb.verifyFlushed(cfg, out); err != nil {
		return nil, err
	}

	delta := func(name string) float64 { return after[name] - before[name] }
	m := out.metrics
	m["traced_op_p50_ms"] = traced.hunts.Lat.quantile(0.5)
	m["trace_overhead_pct"] = 100 * (traced.hunts.Lat.quantile(0.5) - untraced.hunts.Lat.quantile(0.5)) / untraced.hunts.Lat.quantile(0.5)
	huntCount := delta("threatraptor_hunt_duration_seconds_count")
	if huntCount > 0 {
		m["daemon_us_per_op"] = 1e6 * delta("threatraptor_hunt_duration_seconds_sum") / huntCount
	}
	m["transport_us_per_op"] = 1e3*traced.hunts.Lat.mean() - m["daemon_us_per_op"]
	self := selfTimes(rec.spans)
	m["stream_us_per_op"] = float64(self["request"].SelfNS+self["decode"].SelfNS) / 1e3 / float64(self["request"].Count)
	if n := delta("threatraptor_tactical_round_seconds_count"); n > 0 {
		m["tactical_round_us"] = 1e6 * delta("threatraptor_tactical_round_seconds_sum") / n
		m["tactical_us_per_op"] = 1e6 * delta("threatraptor_tactical_round_seconds_sum") / float64(len(traced.ingest.Lat))
	}
	if ev := delta("threatraptor_events_sealed_total"); ev > 0 {
		m["tactical_alerts_per_event"] = delta("threatraptor_alerts_tagged_total") / ev
		m["reduction_merge_ratio"] = float64(len(traced.ingest.Lat)*chunkRecords) / ev
	}
	m["tactical_incidents_open"] = after["threatraptor_incidents_open"]
	var fanN, fanSum float64
	for k := 0; k <= serveShards; k++ {
		name := fmt.Sprintf(`threatraptor_hunt_fanout_total{shards="%d"}`, k)
		fanN += delta(name)
		fanSum += float64(k) * delta(name)
	}
	if fanN > 0 {
		m["shard_fanout_mean"] = fanSum / fanN
	}
	m["shard_global_routed"] = delta("threatraptor_shard_global_routed_total")
	m["shard_rollbacks"] = delta("threatraptor_shard_rollbacks_total")
	m["daemon_rejections"] = delta("threatraptor_hunt_rejections_total")
	m["audit_records_per_op"] = chunkRecords
	m["ingest_records_per_s"] = float64(len(traced.ingest.Lat)*chunkRecords) / traced.ingest.Elapsed.Seconds()
	m["ingest_due_p50_ms"] = traced.ingest.Lat.quantile(0.5)
	m["ingest_due_p95_ms"] = traced.ingest.Lat.quantile(0.95)
	m["gen_late_p95_ms"] = traced.late.quantile(0.95)
	m["stream_firings"] = delta("threatraptor_firings_total")
	out.note("traced %d hunts: client mean %.1f µs = daemon hunt histogram mean %.1f µs + transport/JSON/admission %.1f µs; client decode+glue %.1f µs",
		self["request"].Count, 1e3*traced.hunts.Lat.mean(), m["daemon_us_per_op"], m["transport_us_per_op"], m["stream_us_per_op"])
	out.note("shard: %.0f scattered data queries, mean fan-out %.2f of %d partitions, %.0f routed to the global store, %.0f rollbacks",
		fanN, m["shard_fanout_mean"], serveShards, m["shard_global_routed"], m["shard_rollbacks"])
	out.note("tracing overhead: traced p50 %.4f ms vs untraced p50 %.4f ms", traced.hunts.Lat.quantile(0.5), untraced.hunts.Lat.quantile(0.5))
	if err := rec.write(tracePath(cfg)); err != nil {
		return nil, err
	}
	return out, nil
}
