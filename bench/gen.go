package main

// The seed-driven input generator. Everything a workload feeds the system —
// audit records, OSCTI reports, TBQL queries, detection rules — is derived
// here from -seed and nothing else, so one seed gives byte-identical inputs
// on every run and two seeds give different noise around the same planted
// attacks.

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"threatraptor/internal/audit"
	"threatraptor/internal/cases"
	"threatraptor/internal/extract"
	"threatraptor/internal/rules"
	"threatraptor/internal/synth"
	"threatraptor/internal/tbql"
)

// plantedCases are the eight cases whose attacks are planted in stores and
// streams; their synthesized queries hit, the other ten cases' queries
// short-circuit empty.
var plantedCases = []string{
	"data_leak", "vpnfilter", "tc_trace_1", "tc_trace_2",
	"tc_theia_1", "tc_theia_4", "tc_clearscope_1", "tc_clearscope_2",
}

const (
	// cloneScale is the benign-noise scale of one cloned case (≈11 k raw
	// records per clone averaged over the eight cases); shortScale is the
	// smoke-test scale.
	cloneScale = 2.0
	shortScale = 0.25
	// cloneGapUS separates consecutive clones in event time.
	cloneGapUS = 2_000_000
	// streamStartUS is the event time of the first record of every stream.
	streamStartUS = 1_700_000_000_000_000
	// chunkRecords is the size of one ingest chunk in raw records.
	chunkRecords = 512
)

// mix derives an independent stream seed from the run seed (splitmix64).
func mix(seed int64, i int) int64 {
	z := uint64(seed) + uint64(i+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64((z ^ (z >> 31)) >> 1)
}

// clone is one cloned case inside a stream: records [Lo, Hi) belong to it.
type clone struct {
	CaseID string
	Host   string
	Attack bool
	Lo, Hi int
}

// recStream is a multi-case record stream: clones laid end to end in event
// time, each on a host of its own so that no entity (and so no query
// binding) is shared between two attack instances.
type recStream struct {
	Records []audit.Record
	Clones  []clone
}

// genStream builds clones [first, first+n) of the seed's infinite clone
// sequence. Clone i replays case plantedCases[i%8] with Seed overridden,
// on host "h<i>", with its attack planted iff i%attackEvery == 0 (benign
// noise only otherwise), time-shifted to start where clone i-1 ended.
// The result depends only on the arguments, not on first's history: the
// event time of clone `first` is startUS.
func genStream(seed int64, scale float64, first, n, attackEvery int, startUS int64) *recStream {
	type part struct {
		recs   []audit.Record
		attack bool
	}
	parts := make([]part, n)
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.NumCPU())
	for k := 0; k < n; k++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(k int) {
			defer wg.Done()
			defer func() { <-sem }()
			i := first + k
			c := *cases.ByID(plantedCases[i%len(plantedCases)])
			c.Seed = mix(seed, i)
			attack := i%attackEvery == 0
			if !attack {
				c.Attack = func(*audit.Simulator) {}
			}
			recs, _, _ := c.Simulate(scale)
			parts[k] = part{recs: recs, attack: attack}
		}(k)
	}
	wg.Wait()

	st := &recStream{}
	cursor := startUS
	for k, p := range parts {
		i := first + k
		host := "h" + strconv.Itoa(i)
		shift := cursor - p.recs[0].Time
		lo := len(st.Records)
		for j := range p.recs {
			p.recs[j].Time += shift
			p.recs[j].Host = host
		}
		st.Records = append(st.Records, p.recs...)
		cursor = p.recs[len(p.recs)-1].Time + cloneGapUS
		st.Clones = append(st.Clones, clone{
			CaseID: plantedCases[i%len(plantedCases)], Host: host,
			Attack: p.attack, Lo: lo, Hi: len(st.Records),
		})
	}
	return st
}

// endUS is the event time at which a following stream should start.
func (s *recStream) endUS() int64 {
	return s.Records[len(s.Records)-1].Time + cloneGapUS
}

// attacks counts planted attack instances per case.
func (s *recStream) attacks() map[string]int {
	m := map[string]int{}
	for _, c := range s.Clones {
		if c.Attack {
			m[c.CaseID]++
		}
	}
	return m
}

// appendWire appends r's key=value wire line plus '\n' — the same bytes as
// audit.Record.Format, without fmt (the generator formats millions of
// records per run; gen_test pins the equality).
func appendWire(b []byte, r *audit.Record) []byte {
	q := func(b []byte, s string) []byte {
		if strings.ContainsAny(s, " \t\"") {
			return strconv.AppendQuote(b, s)
		}
		return append(b, s...)
	}
	b = append(b, "ts="...)
	b = strconv.AppendInt(b, r.Time, 10)
	b = append(b, " call="...)
	b = append(b, r.Call...)
	b = append(b, " pid="...)
	b = strconv.AppendInt(b, int64(r.PID), 10)
	b = append(b, " exe="...)
	b = q(b, r.Exe)
	if r.Host != "" {
		b = append(b, " host="...)
		b = q(b, r.Host)
	}
	if r.User != "" {
		b = append(b, " user="...)
		b = append(b, r.User...)
	}
	if r.Group != "" {
		b = append(b, " group="...)
		b = append(b, r.Group...)
	}
	if r.CMD != "" {
		b = append(b, " cmd="...)
		b = q(b, r.CMD)
	}
	b = append(b, " fd="...)
	b = append(b, r.FD...)
	switch r.FD {
	case audit.FDFile:
		b = append(b, " path="...)
		b = q(b, r.Path)
	case audit.FDIPv4:
		b = append(b, " src="...)
		b = append(b, r.SrcIP...)
		b = append(b, ':')
		b = strconv.AppendInt(b, int64(r.SrcPort), 10)
		b = append(b, " dst="...)
		b = append(b, r.DstIP...)
		b = append(b, ':')
		b = strconv.AppendInt(b, int64(r.DstPort), 10)
		b = append(b, " proto="...)
		b = append(b, r.Proto...)
	case audit.FDProc:
		b = append(b, " cpid="...)
		b = strconv.AppendInt(b, int64(r.ChildPID), 10)
		b = append(b, " cexe="...)
		b = q(b, r.ChildExe)
		if r.ChildCMD != "" {
			b = append(b, " ccmd="...)
			b = q(b, r.ChildCMD)
		}
	}
	if r.Bytes != 0 {
		b = append(b, " bytes="...)
		b = strconv.AppendInt(b, r.Bytes, 10)
	}
	if r.Ret != 0 {
		b = append(b, " ret="...)
		b = strconv.AppendInt(b, int64(r.Ret), 10)
	}
	return append(b, '\n')
}

// wire renders records as one newline-delimited wire-format buffer.
func wire(recs []audit.Record) []byte {
	b := make([]byte, 0, len(recs)*160)
	for i := range recs {
		b = appendWire(b, &recs[i])
	}
	return b
}

// wireChunks renders records as wire-format chunks of chunkRecords records
// (the last one may be short).
func wireChunks(recs []audit.Record) [][]byte {
	out := make([][]byte, 0, len(recs)/chunkRecords+1)
	for lo := 0; lo < len(recs); lo += chunkRecords {
		hi := lo + chunkRecords
		if hi > len(recs) {
			hi = len(recs)
		}
		out = append(out, wire(recs[lo:hi]))
	}
	return out
}

// caseQuery synthesizes a case report's TBQL query in the given mode.
func caseQuery(ex *extract.Extractor, c *cases.Case, mode synth.Mode) (string, error) {
	q, _, err := synth.Synthesize(ex.Extract(c.Report).Graph, synth.Options{Mode: mode})
	if err != nil {
		return "", fmt.Errorf("synthesize %s: %w", c.ID, err)
	}
	return tbql.Format(q), nil
}

// poolQuery is one query of the hunt pool. Planted is the planted case a
// hit query belongs to ("" for the rest).
type poolQuery struct {
	Name    string
	Src     string
	Planted string
	// Trailing marks `last N` window queries, whose answer moves with the
	// store's newest event.
	Trailing bool
	// Weight is the query's relative draw frequency: the cheap indexed
	// forms are drawn three times as often as the unindexed length-1-path
	// and variable-length forms, which keeps the median inside the dense
	// part of the latency distribution and leaves the slow forms to set
	// the tail.
	Weight int
}

// varLenQueries are the four variable-length path hunts (graph backend,
// routed to the global store when sharded).
var varLenQueries = []string{
	`proc p["%/bin/tar%"] ~>(1~8)[connect] ip i["192.168.29.128"] return distinct p, i`,
	`proc p["%/bin/tar%"] ~>(1~4)[write] file f["%/tmp/upload%"] return distinct p, f`,
	`proc p["%/bin/busybox%"] ~>(1~6)[connect] ip i["94.185.80.82"] return distinct p, i`,
	`proc p["%/usr/bin/gpg%"] ~>(1~3)[read] file f["%/tmp/upload%"] return distinct p, f`,
}

func isPlanted(id string) bool {
	for _, p := range plantedCases {
		if p == id {
			return true
		}
	}
	return false
}

// genQueryPool builds the fixed hunt pool: the 18 synthesized case queries
// (8 hit, 10 short-circuit empty), their length-1-path forms, two windowed
// variants of each hit query (an absolute window over the first half of
// the store and a trailing window), and four variable-length path queries.
// span is the [min,max] event time of the store the pool is for.
func genQueryPool(minUS, maxUS int64) ([]poolQuery, error) {
	ex := extract.New(extract.DefaultOptions())
	var pool []poolQuery
	for _, c := range cases.All() {
		planted := ""
		if isPlanted(c.ID) {
			planted = c.ID
		}
		ev, err := caseQuery(ex, c, synth.ModeEventPatterns)
		if err != nil {
			return nil, err
		}
		pool = append(pool, poolQuery{Name: c.ID, Src: ev, Planted: planted, Weight: 3})
		l1, err := caseQuery(ex, c, synth.ModeLength1Paths)
		if err != nil {
			return nil, err
		}
		pool = append(pool, poolQuery{Name: c.ID + "/path1", Src: l1, Weight: 1})
		if planted == "" {
			continue
		}
		mid := minUS + (maxUS-minUS)/2
		pool = append(pool,
			poolQuery{Name: c.ID + "/from-to", Weight: 3, Src: fmt.Sprintf("from %q to %q %s", tbqlTime(minUS), tbqlTime(mid), ev)},
			poolQuery{Name: c.ID + "/last", Weight: 3, Src: "last 120 second " + ev, Trailing: true},
		)
	}
	for i, q := range varLenQueries {
		pool = append(pool, poolQuery{Name: "varlen-" + strconv.Itoa(i), Src: q, Weight: 1})
	}
	return pool, nil
}

// tbqlTime renders an event time (µs) as a TBQL window literal (UTC,
// second resolution).
func tbqlTime(us int64) string {
	return time.UnixMicro(us).UTC().Format("2006-01-02 15:04:05")
}

var firstProcFilter = regexp.MustCompile(`(proc \w+\["[^"]*")\]`)

// uniqueVariant rewrites a query so that its text and one literal are new
// (the analyzed-query and plan caches miss) while its answer is unchanged:
// the first filtered process entity additionally excludes a pid no record
// carries.
func uniqueVariant(src string, n int64) string {
	pid := 100_000_000 + n%800_000_000
	if loc := firstProcFilter.FindStringSubmatchIndex(src); loc != nil {
		return src[:loc[3]] + " && pid != " + strconv.FormatInt(pid, 10) + src[loc[3]:]
	}
	return "pid != " + strconv.FormatInt(pid, 10) + " " + src
}

// withHostColumn adds the first process entity's host to a query's return
// clause, so that the same attack on two hosts yields two distinct rows
// (a standing query delivers each distinct row once).
func withHostColumn(src string) string {
	m := regexp.MustCompile(`proc (\w+)`).FindStringSubmatch(src)
	if m == nil {
		return src
	}
	i := strings.LastIndex(src, "return distinct ")
	if i < 0 {
		return src
	}
	i += len("return distinct ")
	return src[:i] + m[1] + ".host, " + src[i:]
}

// genWatchQueries returns the eight standing queries of the ingest
// workloads: the planted cases' synthesized queries with the host column.
func genWatchQueries() ([]string, error) {
	ex := extract.New(extract.DefaultOptions())
	var out []string
	for _, id := range plantedCases {
		q, err := caseQuery(ex, cases.ByID(id), synth.ModeEventPatterns)
		if err != nil {
			return nil, err
		}
		out = append(out, withHostColumn(q))
	}
	return out, nil
}

// ctiReport is one OSCTI report of the cti-burst pool.
type ctiReport struct {
	CaseID   string
	Text     string
	Entities []string // perturbable IOC strings (see perturbable)
}

// genReports returns the 19 case reports (18 benchmark cases + the
// lateral-movement extra).
func genReports() []ctiReport {
	ex := extract.New(extract.DefaultOptions())
	var out []ctiReport
	for _, c := range append(cases.All(), cases.Extras()...) {
		out = append(out, ctiReport{CaseID: c.ID, Text: c.Report, Entities: perturbable(ex, c)})
	}
	return out
}

// perturbable lists the case's IOC strings that can be substituted in its
// report: IPv4 addresses and absolute paths that occur in the text, are
// not a substring of another IOC of the case (so replacing one cannot
// damage a second), and whose substitution still synthesizes a query.
func perturbable(ex *extract.Extractor, c *cases.Case) []string {
	var out []string
	for _, e := range c.Entities {
		if !strings.Contains(c.Report, e) || (net.ParseIP(e) == nil && !strings.HasPrefix(e, "/")) {
			continue
		}
		inner := false
		for _, o := range c.Entities {
			if o != e && strings.Contains(o, e) {
				inner = true
			}
		}
		text := strings.ReplaceAll(c.Report, e, substitute(e, 0xabcdef))
		if _, _, err := synth.Synthesize(ex.Extract(text).Graph, synth.Options{}); !inner && err == nil {
			out = append(out, e)
		}
	}
	return out
}

// substitute derives an IOC's sibling from a tag: an IP keeps its network
// and changes its host part, a path gets the tag before its extension.
func substitute(old string, tag int) string {
	if ip := net.ParseIP(old).To4(); ip != nil {
		repl := fmt.Sprintf("%d.%d.%d.%d", ip[0], ip[1], 1+tag>>8%250, 1+tag%250)
		if repl == old {
			repl = fmt.Sprintf("%d.%d.251.251", ip[0], ip[1])
		}
		return repl
	}
	slash := strings.LastIndexByte(old, '/')
	cut := len(old)
	if dot := strings.IndexByte(old[slash+1:], '.'); dot > 0 {
		cut = slash + 1 + dot
	}
	return fmt.Sprintf("%s-%06x%s", old[:cut], tag, old[cut:])
}

// perturb substitutes one IOC of the report with a seed-derived sibling,
// producing a report text no cache has seen that still extracts to a graph
// of the same shape. A report with nothing perturbable is returned as is.
func (r *ctiReport) perturb(rng *rand.Rand) string {
	if len(r.Entities) == 0 {
		return r.Text
	}
	old := r.Entities[rng.Intn(len(r.Entities))]
	return strings.ReplaceAll(r.Text, old, substitute(old, rng.Intn(1<<24)))
}

// demoRules are the five shipped demo rules (examples/rules/demo.json),
// restated here because the benchmark reads nothing outside its directory.
var demoRules = []rules.Rule{
	{Name: "credential-file-read", Tactic: "credential-access", Technique: "T1003.008", Severity: 8,
		Ops: []string{"read"}, Where: map[string]string{"object.kind": "file", "object.name": "/etc/*"}},
	{Name: "staging-write-tmp", Tactic: "collection", Technique: "T1074.001", Severity: 5,
		Ops: []string{"write"}, Where: map[string]string{"object.kind": "file", "object.name": "/tmp/*"}},
	{Name: "tmp-payload-execute", Tactic: "execution", Technique: "T1204.002", Severity: 8,
		Ops: []string{"execute"}, Where: map[string]string{"object.kind": "file", "object.name": "/tmp/*"}},
	{Name: "outbound-connect", Tactic: "command-and-control", Technique: "T1071", Severity: 5,
		Ops: []string{"connect"}, Where: map[string]string{"object.kind": "ip"}},
	{Name: "outbound-send", Tactic: "exfiltration", Technique: "T1048", Severity: 7,
		Ops: []string{"send"}, Where: map[string]string{"object.kind": "ip"}},
}

var ruleTactics = []string{
	"initial-access", "execution", "persistence", "privilege-escalation",
	"defense-evasion", "credential-access", "discovery", "lateral-movement",
	"collection", "command-and-control", "exfiltration", "impact",
}

var ruleOps = []string{"read", "write", "execute", "start", "rename", "connect", "send", "receive"}

// genRules returns n detection rules: the five demo rules plus seed-derived
// rules over every operation and entity kind whose patterns name paths,
// executables and addresses the generated logs almost never contain, so a
// round's cost is dominated by evaluating rules that do not match — the
// regime a production rule set lives in.
func genRules(seed int64, n int) []rules.Rule {
	rng := rand.New(rand.NewSource(mix(seed, 1<<20)))
	out := append([]rules.Rule(nil), demoRules...)
	for i := 0; len(out) < n; i++ {
		op := ruleOps[rng.Intn(len(ruleOps))]
		r := rules.Rule{
			Name:     fmt.Sprintf("gen-%03d", i),
			Tactic:   ruleTactics[rng.Intn(len(ruleTactics))],
			Severity: 1 + rng.Intn(9),
			Ops:      []string{op},
			Where:    map[string]string{},
		}
		switch op {
		case "connect", "send", "receive":
			r.Where["object.kind"] = "ip"
			r.Where["object.dstip"] = fmt.Sprintf("203.0.%d.%d", rng.Intn(256), rng.Intn(256))
		case "start":
			r.Where["object.kind"] = "proc"
			r.Where["object.exename"] = fmt.Sprintf("*/implant-%04x", rng.Intn(1<<16))
		default:
			r.Where["object.kind"] = "file"
			switch rng.Intn(3) {
			case 0:
				r.Where["object.name"] = fmt.Sprintf("/opt/stage-%04x/*", rng.Intn(1<<16))
			case 1:
				r.Where["object.name"] = fmt.Sprintf("*.%04x.enc", rng.Intn(1<<16))
			default:
				r.Where["object.name"] = fmt.Sprintf("*dropper%04x*", rng.Intn(1<<16))
			}
		}
		if rng.Intn(4) == 0 {
			r.Where["subject.exename"] = fmt.Sprintf("/usr/local/bin/tool-%03x", rng.Intn(1<<12))
		}
		out = append(out, r)
	}
	return out
}

// rulesJSON renders a rule list as the daemon's -rules file.
func rulesJSON(rs []rules.Rule) []byte {
	b, err := json.MarshalIndent(struct {
		Rules []rules.Rule `json:"rules"`
	}{rs}, "", "  ")
	if err != nil {
		panic(err) // rules.Rule is plain data
	}
	return b
}
