package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"threatraptor"
	"threatraptor/internal/audit"
	"threatraptor/internal/engine"
	"threatraptor/internal/faultinject"
	"threatraptor/internal/rules"
	"threatraptor/internal/stream"
	"threatraptor/internal/tactical"
)

// testServer starts the daemon's handler on an httptest server over an
// empty live store.
func testServer(t *testing.T, opts threatraptor.Options) (*httptest.Server, *threatraptor.System) {
	t.Helper()
	sys := threatraptor.New(opts)
	if _, err := sys.Live(); err != nil {
		t.Fatal(err)
	}
	srv := newServer(sys, 0)
	ts := httptest.NewServer(srv.routes())
	t.Cleanup(ts.Close)
	return ts, sys
}

func readLine(ts int64, pid int, exe, path string) string {
	r := audit.Record{Time: ts, Call: audit.SysRead, PID: pid, Exe: exe,
		User: "root", FD: audit.FDFile, Path: path, Bytes: 10}
	return r.Format() + "\n"
}

func post(t *testing.T, url, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(data)
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(data)
}

// TestHTTPSmoke drives the daemon end to end over real HTTP: health and
// readiness, raw-record ingest + flush, a hunt whose JSON rows reflect
// the ingested events, EXPLAIN, and the metrics exposition.
func TestHTTPSmoke(t *testing.T) {
	ts, _ := testServer(t, threatraptor.DefaultOptions())

	if code, body := get(t, ts.URL+"/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Fatalf("healthz = %d %q", code, body)
	}
	if code, _ := get(t, ts.URL+"/readyz"); code != 200 {
		t.Fatalf("readyz = %d, want 200", code)
	}

	lines := readLine(1_000_000, 100, "/bin/cat", "/etc/secret") +
		readLine(2_000_000, 101, "/usr/bin/scp", "/etc/secret")
	if code, body := post(t, ts.URL+"/v1/ingest", lines); code != 200 {
		t.Fatalf("ingest = %d %q", code, body)
	}
	if code, body := post(t, ts.URL+"/v1/flush", ""); code != 200 {
		t.Fatalf("flush = %d %q", code, body)
	}

	code, body := post(t, ts.URL+"/v1/hunt", `proc p read file f return p, f`)
	if code != 200 {
		t.Fatalf("hunt = %d %q", code, body)
	}
	var hr huntResponse
	if err := json.Unmarshal([]byte(body), &hr); err != nil {
		t.Fatalf("hunt response not JSON: %v\n%s", err, body)
	}
	if len(hr.Rows) != 2 {
		t.Fatalf("hunt rows = %v, want 2 rows", hr.Rows)
	}
	joined := fmt.Sprint(hr.Rows)
	for _, want := range []string{"/bin/cat", "/usr/bin/scp", "/etc/secret"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("hunt rows %v missing %q", hr.Rows, want)
		}
	}

	// A malformed query is a client error, not a 500.
	if code, _ := post(t, ts.URL+"/v1/hunt", `this is not tbql`); code != 400 {
		t.Fatalf("bad hunt = %d, want 400", code)
	}

	code, body = post(t, ts.URL+"/v1/explain", `proc p read file f return p, f`)
	if code != 200 || !strings.Contains(body, "pattern") {
		t.Fatalf("explain = %d %q", code, body)
	}

	code, body = get(t, ts.URL+"/metrics")
	if code != 200 {
		t.Fatalf("metrics = %d", code)
	}
	for _, want := range []string{
		"# TYPE threatraptor_hunt_duration_seconds histogram",
		"threatraptor_hunt_duration_seconds_count 2",
		"threatraptor_events_sealed_total 2",
		"threatraptor_hunt_errors_total 1",
		"threatraptor_snapshot_age_seconds",
		"threatraptor_store_events 2",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
}

// TestWatchStreamsSSE subscribes a standing query over HTTP with
// Accept: text/event-stream, ingests a matching event, and reads the
// firing back as a server-sent event; closing the response body must
// deregister the subscription.
func TestWatchStreamsSSE(t *testing.T) {
	ts, sys := testServer(t, threatraptor.DefaultOptions())
	live, err := sys.Live()
	if err != nil {
		t.Fatal(err)
	}

	req, err := http.NewRequest("POST", ts.URL+"/v1/watch",
		strings.NewReader(`proc p read file f return p, f`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("watch = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("watch Content-Type = %q", ct)
	}
	waitFor(t, "subscription registered", func() bool { return live.Subscriptions() == 1 })

	if code, body := post(t, ts.URL+"/v1/ingest", readLine(1_000_000, 100, "/bin/cat", "/etc/secret")); code != 200 {
		t.Fatalf("ingest = %d %q", code, body)
	}
	if code, body := post(t, ts.URL+"/v1/flush", ""); code != 200 {
		t.Fatalf("flush = %d %q", code, body)
	}

	sc := bufio.NewScanner(resp.Body)
	var event, data string
	deadline := time.Now().Add(10 * time.Second)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "event: ") {
			event = strings.TrimPrefix(line, "event: ")
		}
		if strings.HasPrefix(line, "data: ") {
			data = strings.TrimPrefix(line, "data: ")
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no SSE event before deadline")
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if event != "match" {
		t.Fatalf("event = %q, want match", event)
	}
	var ev watchEvent
	if err := json.Unmarshal([]byte(data), &ev); err != nil {
		t.Fatalf("SSE data not JSON: %v\n%s", err, data)
	}
	if len(ev.Row) != 2 || ev.Row[0] != "/bin/cat" || ev.Row[1] != "/etc/secret" {
		t.Fatalf("firing row = %v", ev.Row)
	}

	// Disconnecting must unwatch: the handler sees the context cancel and
	// deregisters the subscription.
	resp.Body.Close()
	waitFor(t, "subscription removed on disconnect", func() bool { return live.Subscriptions() == 0 })
}

// TestWatchStreamsNDJSON covers the non-SSE content type: without the
// event-stream Accept header firings arrive as newline-delimited JSON.
func TestWatchStreamsNDJSON(t *testing.T) {
	ts, sys := testServer(t, threatraptor.DefaultOptions())
	live, err := sys.Live()
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/v1/watch", "text/plain",
		strings.NewReader(`proc p read file f return p, f`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("watch Content-Type = %q", ct)
	}
	waitFor(t, "subscription registered", func() bool { return live.Subscriptions() == 1 })
	post(t, ts.URL+"/v1/ingest", readLine(1_000_000, 100, "/bin/cat", "/etc/secret"))
	post(t, ts.URL+"/v1/flush", "")

	var ev watchEvent
	if err := json.NewDecoder(resp.Body).Decode(&ev); err != nil {
		t.Fatal(err)
	}
	if len(ev.Row) != 2 || ev.Row[0] != "/bin/cat" {
		t.Fatalf("firing row = %v", ev.Row)
	}
}

// TestWatchQuarantineEndsWithTerminalFrame pins the end of a quarantined
// watch whose terminal match found the buffer full: the session only
// closes the channel, and the frame loop must still send the terminal
// frame with the cause and count the quarantine.
func TestWatchQuarantineEndsWithTerminalFrame(t *testing.T) {
	store, err := engine.NewStore(audit.NewLog())
	if err != nil {
		t.Fatal(err)
	}
	live := stream.New(store, &engine.Engine{Store: store}, stream.Config{MatchBuffer: 1, QuarantineAfter: 1})
	sub, err := live.Watch(`proc p read file f return p, f`)
	if err != nil {
		t.Fatal(err)
	}
	ingest := func(line string) {
		t.Helper()
		if _, err := live.Ingest(strings.NewReader(line)); err != nil {
			t.Fatal(err)
		}
		if _, err := live.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	ingest(readLine(1_000_000, 100, "/bin/cat", "/etc/a")) // one match fills the buffer
	faultinject.Arm(faultinject.Plan{stream.FaultDeliver: {Hits: []int{1}, Mode: faultinject.ModeError}})
	t.Cleanup(faultinject.Disarm)
	ingest(readLine(2_000_000, 100, "/bin/cat", "/etc/b"))
	if !sub.Quarantined() {
		t.Fatal("subscription not quarantined")
	}

	srv := newServer(threatraptor.New(threatraptor.DefaultOptions()), 0)
	var frames []watchEvent
	srv.watchFrames(context.Background(), live, sub, func(ev watchEvent) bool {
		frames = append(frames, ev)
		return true
	})
	if len(frames) != 2 || frames[0].Terminal {
		t.Fatalf("frames = %+v, want the buffered match then a terminal frame", frames)
	}
	if last := frames[1]; !last.Terminal || !strings.Contains(last.Error, "injected fault") {
		t.Fatalf("last frame = %+v, want a terminal frame with the injected cause", last)
	}
	if n := srv.quarantines.Value(); n != 1 {
		t.Fatalf("quarantines = %d, want 1", n)
	}
}

// overloadedSystem wraps the real facade but sheds every hunt, the way
// a saturated admission semaphore would (overlap is timing-dependent on
// the real thing; the mapping must not be).
type overloadedSystem struct {
	system
}

func (o overloadedSystem) Hunt(ctx context.Context, src string) (*engine.Result, engine.Stats, error) {
	return nil, engine.Stats{}, fmt.Errorf("hunt: %w", &engine.OverloadedError{Limit: 1})
}

// TestHuntOverloadMaps429 checks the admission-control surface of the
// API: a shed hunt maps to 429 with a Retry-After header and counts as
// a rejection, not an error, in the metrics.
func TestHuntOverloadMaps429(t *testing.T) {
	sys := threatraptor.New(threatraptor.DefaultOptions())
	if _, err := sys.Live(); err != nil {
		t.Fatal(err)
	}
	srv := newServer(overloadedSystem{sys}, 0)
	ts := httptest.NewServer(srv.routes())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/hunt", "text/plain",
		strings.NewReader(`proc p read file f return p, f`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("shed hunt = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if code, body := get(t, ts.URL+"/metrics"); code != 200 ||
		!strings.Contains(body, "threatraptor_hunt_rejections_total 1") ||
		!strings.Contains(body, "threatraptor_hunt_errors_total 0") {
		t.Fatalf("rejection not counted:\n%s", body)
	}
}

// TestIncidentsDisabledMaps404: without a configured rule set the
// tactical layer is off, and both incident endpoints say so with 404
// rather than an empty 200 (the operator forgot -rules, not "no attacks").
func TestIncidentsDisabledMaps404(t *testing.T) {
	ts, _ := testServer(t, threatraptor.DefaultOptions())
	if code, body := get(t, ts.URL+"/v1/incidents"); code != 404 {
		t.Fatalf("incidents without rules = %d %q, want 404", code, body)
	}
	if code, body := get(t, ts.URL+"/v1/incidents/watch"); code != 404 {
		t.Fatalf("incidents watch without rules = %d %q, want 404", code, body)
	}
}

// tacticalServer starts the daemon with a rule set, wiring the tactical
// round observer into the metrics the way main does.
func tacticalServer(t *testing.T) (*httptest.Server, *threatraptor.System) {
	t.Helper()
	set, err := rules.Compile([]rules.Rule{
		{Name: "etc-read", Tactic: "credential-access", Severity: 8,
			Ops: []string{"read"}, Where: map[string]string{"object.kind": "file", "object.name": "/etc/*"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	opts := threatraptor.DefaultOptions()
	opts.Rules = set
	var srv *server
	opts.OnTacticalRound = func(d time.Duration, rs tactical.RoundStats) {
		if srv != nil {
			srv.observeTacticalRound(d, rs)
		}
	}
	sys := threatraptor.New(opts)
	if _, err := sys.Live(); err != nil {
		t.Fatal(err)
	}
	srv = newServer(sys, 0)
	ts := httptest.NewServer(srv.routes())
	t.Cleanup(ts.Close)
	return ts, sys
}

// TestIncidentsEndpoint drives the tactical path over HTTP: rule-matching
// ingest produces a ranked incident on GET /v1/incidents and moves the
// tactical metrics.
func TestIncidentsEndpoint(t *testing.T) {
	ts, _ := tacticalServer(t)

	if code, _ := post(t, ts.URL+"/v1/incidents", ""); code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /v1/incidents = %d, want 405", code)
	}
	// Before any ingest: enabled, empty, 200.
	code, body := get(t, ts.URL+"/v1/incidents")
	if code != 200 {
		t.Fatalf("incidents = %d %q", code, body)
	}
	var ir incidentsResponse
	if err := json.Unmarshal([]byte(body), &ir); err != nil {
		t.Fatalf("incidents response not JSON: %v\n%s", err, body)
	}
	if len(ir.Incidents) != 0 {
		t.Fatalf("incidents before ingest = %+v, want none", ir.Incidents)
	}

	lines := readLine(1_000_000, 100, "/bin/cat", "/etc/secret") +
		readLine(2_000_000, 101, "/usr/bin/scp", "/etc/passwd")
	if code, body := post(t, ts.URL+"/v1/ingest", lines); code != 200 {
		t.Fatalf("ingest = %d %q", code, body)
	}
	if code, body := post(t, ts.URL+"/v1/flush", ""); code != 200 {
		t.Fatalf("flush = %d %q", code, body)
	}

	code, body = get(t, ts.URL+"/v1/incidents")
	if code != 200 {
		t.Fatalf("incidents = %d %q", code, body)
	}
	ir = incidentsResponse{}
	if err := json.Unmarshal([]byte(body), &ir); err != nil {
		t.Fatalf("incidents response not JSON: %v\n%s", err, body)
	}
	if ir.Stats.AlertsTagged != 2 {
		t.Fatalf("stats = %+v, want 2 alerts tagged", ir.Stats)
	}
	if len(ir.Incidents) == 0 || ir.Incidents[0].AlertCount == 0 {
		t.Fatalf("incidents = %+v, want a ranked incident with alerts", ir.Incidents)
	}
	if ir.Incidents[0].Alerts[0].Rule != "etc-read" {
		t.Fatalf("top alert = %+v, want rule etc-read", ir.Incidents[0].Alerts[0])
	}

	code, body = get(t, ts.URL+"/metrics")
	if code != 200 {
		t.Fatalf("metrics = %d", code)
	}
	for _, want := range []string{
		"threatraptor_alerts_tagged_total 2",
		"threatraptor_incidents_open",
		"# TYPE threatraptor_tactical_round_seconds histogram",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
}

// TestIncidentsWatchStreamsSSE subscribes to incident updates over SSE
// and reads one alert-producing round's update back.
func TestIncidentsWatchStreamsSSE(t *testing.T) {
	ts, _ := tacticalServer(t)

	req, err := http.NewRequest("GET", ts.URL+"/v1/incidents/watch", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("incidents watch = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("incidents watch Content-Type = %q", ct)
	}

	post(t, ts.URL+"/v1/ingest", readLine(1_000_000, 100, "/bin/cat", "/etc/secret"))
	post(t, ts.URL+"/v1/flush", "")

	sc := bufio.NewScanner(resp.Body)
	var event, data string
	deadline := time.Now().Add(10 * time.Second)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "event: ") {
			event = strings.TrimPrefix(line, "event: ")
		}
		if strings.HasPrefix(line, "data: ") {
			data = strings.TrimPrefix(line, "data: ")
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no SSE event before deadline")
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if event != "incidents" {
		t.Fatalf("event = %q, want incidents", event)
	}
	var upd struct {
		Alerts    int                 `json:"alerts"`
		Incidents []tactical.Incident `json:"incidents"`
	}
	if err := json.Unmarshal([]byte(data), &upd); err != nil {
		t.Fatalf("SSE data not JSON: %v\n%s", err, data)
	}
	if upd.Alerts != 1 || len(upd.Incidents) != 1 {
		t.Fatalf("update = %+v, want 1 alert, 1 incident", upd)
	}
	if upd.Incidents[0].Alerts[0].Object != "/etc/secret" {
		t.Fatalf("incident alert = %+v, want object /etc/secret", upd.Incidents[0].Alerts[0])
	}
}

// TestIncidentsWatchStreamsNDJSON covers the non-SSE content type of the
// incident stream: without the event-stream Accept header each update
// arrives as one JSON line.
func TestIncidentsWatchStreamsNDJSON(t *testing.T) {
	ts, _ := tacticalServer(t)

	resp, err := ts.Client().Get(ts.URL + "/v1/incidents/watch")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("incidents watch = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("incidents watch Content-Type = %q", ct)
	}

	post(t, ts.URL+"/v1/ingest", readLine(1_000_000, 100, "/bin/cat", "/etc/secret"))
	post(t, ts.URL+"/v1/flush", "")

	var upd struct {
		Alerts    int                 `json:"alerts"`
		Incidents []tactical.Incident `json:"incidents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&upd); err != nil {
		t.Fatal(err)
	}
	if upd.Alerts != 1 || len(upd.Incidents) != 1 {
		t.Fatalf("update = %+v, want 1 alert, 1 incident", upd)
	}
	if upd.Incidents[0].Alerts[0].Object != "/etc/secret" {
		t.Fatalf("incident alert = %+v, want object /etc/secret", upd.Incidents[0].Alerts[0])
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestShardedDaemonMetrics runs the daemon over a sharded store: ingest
// and hunts work unchanged through the backend abstraction, and /metrics
// exposes the per-shard families registered for the coordinator.
func TestShardedDaemonMetrics(t *testing.T) {
	opts := threatraptor.DefaultOptions()
	opts.Shards = 4
	opts.PartitionBy = "hash"
	sys := threatraptor.New(opts)
	if _, err := sys.Live(); err != nil {
		t.Fatal(err)
	}
	srv := newServer(sys, 0)
	sh := sys.ShardStore()
	if sh == nil {
		t.Fatal("Options.Shards = 4 did not build a sharded store")
	}
	srv.registerShardMetrics(sh)
	ts := httptest.NewServer(srv.routes())
	t.Cleanup(ts.Close)

	lines := readLine(1_000_000, 100, "/bin/cat", "/etc/secret") +
		readLine(2_000_000, 101, "/usr/bin/scp", "/etc/secret")
	if code, body := post(t, ts.URL+"/v1/ingest", lines); code != 200 {
		t.Fatalf("ingest = %d %q", code, body)
	}
	if code, body := post(t, ts.URL+"/v1/flush", ""); code != 200 {
		t.Fatalf("flush = %d %q", code, body)
	}
	code, body := post(t, ts.URL+"/v1/hunt", `proc p read file f return p, f`)
	if code != 200 {
		t.Fatalf("hunt = %d %q", code, body)
	}
	var hr huntResponse
	if err := json.Unmarshal([]byte(body), &hr); err != nil {
		t.Fatalf("hunt response not JSON: %v\n%s", err, body)
	}
	if len(hr.Rows) != 2 {
		t.Fatalf("hunt rows = %v, want 2 rows", hr.Rows)
	}

	code, body = get(t, ts.URL+"/metrics")
	if code != 200 {
		t.Fatalf("metrics = %d", code)
	}
	for _, want := range []string{
		"# TYPE threatraptor_shard_events gauge",
		`threatraptor_shard_events{shard="0"}`,
		`threatraptor_shard_events{shard="3"}`,
		`threatraptor_shard_snapshot_age_seconds{shard="0"}`,
		`threatraptor_hunt_fanout_total{shards="`,
		"threatraptor_shard_global_routed_total 0",
		"threatraptor_shard_rollbacks_total 0",
		"threatraptor_store_events 2",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
}

// TestIngestBodyTooLargeMaps413: an oversized /v1/ingest body is cut off
// at the cap and reported as 413 instead of being slurped unbounded; the
// daemon keeps serving and a smaller retry succeeds.
func TestIngestBodyTooLargeMaps413(t *testing.T) {
	sys := threatraptor.New(threatraptor.DefaultOptions())
	if _, err := sys.Live(); err != nil {
		t.Fatal(err)
	}
	srv := newServer(sys, 0)
	srv.maxIngestBytes = 1 << 10
	ts := httptest.NewServer(srv.routes())
	defer ts.Close()

	var big strings.Builder
	for i := int64(1); big.Len() < 4<<10; i++ {
		big.WriteString(readLine(i*1_000_000, 100, "/bin/cat", "/etc/secret"))
	}
	code, body := post(t, ts.URL+"/v1/ingest", big.String())
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized ingest = %d %q, want 413", code, body)
	}
	if !strings.Contains(body, "split the stream") {
		t.Fatalf("413 body %q does not tell the client how to recover", body)
	}

	// The daemon survives the rejection: a small post still ingests and
	// the store seals its events on flush.
	if code, body := post(t, ts.URL+"/v1/ingest", readLine(9_000_000, 101, "/usr/bin/scp", "/etc/passwd")); code != 200 {
		t.Fatalf("ingest after 413 = %d %q", code, body)
	}
	if code, body := post(t, ts.URL+"/v1/flush", ""); code != 200 {
		t.Fatalf("flush after 413 = %d %q", code, body)
	}
	code, body = post(t, ts.URL+"/v1/hunt", `proc p read file f return p, f`)
	if code != 200 || !strings.Contains(body, "/usr/bin/scp") {
		t.Fatalf("hunt after 413 = %d %q, want the retried record", code, body)
	}
}

// TestRecoveringHandler pins the pre-swap surface main serves while a
// durable data dir replays its WAL: liveness green, readiness and every
// API endpoint an honest 503 "recovering".
func TestRecoveringHandler(t *testing.T) {
	ts := httptest.NewServer(recoveringHandler())
	defer ts.Close()
	if code, body := get(t, ts.URL+"/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Fatalf("healthz while recovering = %d %q, want 200 ok", code, body)
	}
	if code, body := get(t, ts.URL+"/readyz"); code != 503 || !strings.Contains(body, "recovering") {
		t.Fatalf("readyz while recovering = %d %q, want 503 recovering", code, body)
	}
	if code, _ := post(t, ts.URL+"/v1/hunt", `proc p read file f return p, f`); code != 503 {
		t.Fatalf("hunt while recovering = %d, want 503", code)
	}
}

// durableServer builds the daemon over a durable data dir the way main
// does: observers late-bound, recovery stats folded into the metrics.
func durableServer(t *testing.T, dir string) (*httptest.Server, *threatraptor.System) {
	t.Helper()
	opts := threatraptor.DefaultOptions()
	opts.DataDir = dir
	opts.SegmentEvery = 1
	var srv *server
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
	if _, err := sys.Live(); err != nil {
		t.Fatal(err)
	}
	srv = newServer(sys, 0)
	srv.observeRecovery(sys.RecoveryStats())
	ts := httptest.NewServer(srv.routes())
	t.Cleanup(ts.Close)
	return ts, sys
}

// TestDurableDaemonWarmRestart drives the durable daemon over HTTP:
// ingest moves the durability metrics, a clean close writes the final
// generation, and a second daemon over the same dir recovers the store
// and serves identical hunts — then keeps ingesting.
func TestDurableDaemonWarmRestart(t *testing.T) {
	dir := t.TempDir()
	ts, sys := durableServer(t, dir)

	lines := readLine(1_000_000, 100, "/bin/cat", "/etc/secret") +
		readLine(2_000_000, 101, "/usr/bin/scp", "/etc/secret")
	if code, body := post(t, ts.URL+"/v1/ingest", lines); code != 200 {
		t.Fatalf("ingest = %d %q", code, body)
	}
	if code, body := post(t, ts.URL+"/v1/flush", ""); code != 200 {
		t.Fatalf("flush = %d %q", code, body)
	}
	code, body := get(t, ts.URL+"/metrics")
	if code != 200 {
		t.Fatalf("metrics = %d", code)
	}
	for _, want := range []string{
		"# TYPE threatraptor_wal_fsync_seconds histogram",
		"# TYPE threatraptor_segments_total counter",
		"# TYPE threatraptor_segment_bytes_written_total counter",
		"# TYPE threatraptor_segment_files_live gauge",
		"threatraptor_last_segment_flush_seconds",
		"threatraptor_recovery_truncated_frames_total 0",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
	for _, zero := range []string{"threatraptor_segments_total 0", "threatraptor_segment_bytes_written_total 0", "threatraptor_segment_files_live 0"} {
		if strings.Contains(body, zero) {
			t.Fatalf("%s after a flush:\n%s", zero, body)
		}
	}
	if strings.Contains(body, "threatraptor_wal_fsync_seconds_count 0") {
		t.Fatalf("no WAL fsyncs observed under the always policy:\n%s", body)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	ts2, sys2 := durableServer(t, dir)
	rs := sys2.RecoveryStats()
	if !rs.Recovered {
		t.Fatalf("recovery stats = %+v, want a recovered generation", rs)
	}
	if rs.ReplayedRecords != 0 {
		t.Fatalf("clean shutdown replayed %d WAL records, want 0", rs.ReplayedRecords)
	}
	if code, _ := get(t, ts2.URL+"/readyz"); code != 200 {
		t.Fatalf("readyz after recovery = %d, want 200", code)
	}
	code, body = post(t, ts2.URL+"/v1/hunt", `proc p read file f return p, f`)
	if code != 200 {
		t.Fatalf("hunt after restart = %d %q", code, body)
	}
	var hr huntResponse
	if err := json.Unmarshal([]byte(body), &hr); err != nil {
		t.Fatalf("hunt response not JSON: %v\n%s", err, body)
	}
	if len(hr.Rows) != 2 {
		t.Fatalf("hunt rows after restart = %v, want the 2 pre-crash rows", hr.Rows)
	}

	// The recovered store is warm, not read-only: more ingest lands on top.
	if code, body := post(t, ts2.URL+"/v1/ingest", readLine(3_000_000, 102, "/bin/nc", "/etc/passwd")); code != 200 {
		t.Fatalf("ingest after restart = %d %q", code, body)
	}
	if code, body := post(t, ts2.URL+"/v1/flush", ""); code != 200 {
		t.Fatalf("flush after restart = %d %q", code, body)
	}
	code, body = post(t, ts2.URL+"/v1/hunt", `proc p read file f return p, f`)
	if code != 200 {
		t.Fatalf("hunt = %d %q", code, body)
	}
	hr = huntResponse{}
	if err := json.Unmarshal([]byte(body), &hr); err != nil {
		t.Fatal(err)
	}
	if len(hr.Rows) != 3 {
		t.Fatalf("hunt rows = %v, want 3 after post-restart ingest", hr.Rows)
	}
	if err := sys2.Close(); err != nil {
		t.Fatal(err)
	}
}
