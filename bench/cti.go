package main

// cti-burst: OSCTI report text in → hunt rows out, the paper's whole
// pipeline, over a store so small that the hunt itself is almost free. The
// mirror image of hunt-history: extract, synth and tbql carry the load.

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"runtime"

	"threatraptor"
	"threatraptor/internal/extract"
	"threatraptor/internal/synth"
	"threatraptor/internal/tbql"
)

const (
	ctiClients = 2
	// perturbPct of reports get one IOC substituted per request, so no
	// text-keyed cache has seen them; the rest are sent verbatim.
	perturbPct = 70
	// ctiVerifySample perturbed requests per client are re-derived on the
	// reference path after the window.
	ctiVerifySample = 48
)

// ctiBench is a loaded cti-burst system with its reports and oracle.
type ctiBench struct {
	sys      *threatraptor.System
	reports  []ctiReport
	refQuery []string // synthesized query per verbatim report
	ref      []uint64 // reference hash per verbatim report
	or       *oracle
	setupS   []float64
	memMiB   float64
}

// refPipeline derives a report's query and answer hash on the reference
// path: a fresh extractor, the synthesizer, and the unscheduled engine.
func (cb *ctiBench) refPipeline(text string) (string, uint64, error) {
	g := extract.New(extract.DefaultOptions()).Extract(text).Graph
	q, _, err := synth.Synthesize(g, synth.Options{})
	if err != nil {
		return "", 0, err
	}
	src := tbql.Format(q)
	h, err := cb.or.hash(src, false)
	return src, h, err
}

func setupCTI(cfg *config, timed bool) (*ctiBench, *outcome, error) {
	out := &outcome{metrics: map[string]float64{}}
	scale := 1.0
	if cfg.short {
		scale = shortScale
	}
	st := genStream(cfg.seed, scale, 0, 1, 1, streamStartUS) // clone 0 is data_leak
	log := wire(st.Records)
	cb := &ctiBench{reports: genReports()}

	base := heapMiB()
	once := func() error {
		cb.sys = nil
		sys := threatraptor.New(threatraptor.DefaultOptions())
		if err := sys.LoadAuditLog(bytes.NewReader(log)); err != nil {
			return err
		}
		if _, _, err := sys.HuntOSCTI(context.Background(), cb.reports[0].Text); err != nil {
			return err
		}
		cb.sys = sys
		return nil
	}
	if timed {
		var err error
		if cb.setupS, err = setupUntil(once); err != nil {
			return nil, nil, err
		}
	} else if err := once(); err != nil {
		return nil, nil, err
	}
	cb.memMiB = heapMiB() - base
	snap := cb.sys.Store().Snapshot()
	out.note("store: data_leak ×%.2g, %d raw records, %d events; %d reports, %d%% perturbed per request",
		scale, len(st.Records), snap.NextEventID-1, len(cb.reports), perturbPct)

	cb.or = newOracle(cb.sys.Store(), cfg.breakOracle)
	hits := 0
	for _, r := range cb.reports {
		q, h, err := cb.refPipeline(r.Text)
		if err != nil {
			return nil, nil, fmt.Errorf("report %s: %w", r.CaseID, err)
		}
		cb.refQuery = append(cb.refQuery, q)
		cb.ref = append(cb.ref, h)
		res, err := cb.or.run(q)
		if err != nil {
			return nil, nil, err
		}
		if res.Set.Len() > 0 {
			hits++
			if r.CaseID != "data_leak" {
				return nil, nil, fmt.Errorf("report %s unexpectedly hits the data_leak store", r.CaseID)
			}
		}
	}
	// The planted attack's own report must find it.
	out.attempted++
	if hits != 1 {
		out.fail(1, fmt.Errorf("ground truth: %d reports hit the data_leak store, want exactly the data_leak report", hits))
	}
	runtime.KeepAlive(log)
	return cb, out, nil
}

// ctiRequest is one drawn request.
type ctiRequest struct {
	idx       int
	text      string
	perturbed bool
}

// deck is a client's deck over the reports, each equally often (so long
// and short reports recur in fixed proportion).
func (cb *ctiBench) deck() *deck {
	weights := make([]int, len(cb.reports))
	for i := range weights {
		weights[i] = 1
	}
	return newDeck(weights)
}

// draw deals the next request, perturbed with probability perturbPct.
func (cb *ctiBench) draw(d *deck, rng *rand.Rand) ctiRequest {
	req := ctiRequest{idx: d.deal(rng)}
	r := &cb.reports[req.idx]
	req.text = r.Text
	if rng.Intn(100) < perturbPct {
		req.text = r.perturb(rng)
		req.perturbed = req.text != r.Text
	}
	return req
}

// ctiSample is a perturbed request kept for post-window verification.
type ctiSample struct {
	text, query string
	hash        uint64
}

// check compares one answered request with the oracle: verbatim reports
// against their precomputed reference, perturbed ones against the empty
// answer a substituted IOC must produce (the first ctiVerifySample per
// client are also queued for a full re-derivation after the window).
func (cb *ctiBench) check(req ctiRequest, query string, hash uint64, rows int, keep *[]ctiSample) error {
	if !req.perturbed {
		if query != cb.refQuery[req.idx] || hash != cb.ref[req.idx] {
			return fmt.Errorf("report %s: answer differs from the oracle", cb.reports[req.idx].CaseID)
		}
		return nil
	}
	if rows != 0 {
		return fmt.Errorf("report %s (perturbed): %d rows for an IOC no event carries", cb.reports[req.idx].CaseID, rows)
	}
	if len(*keep) < ctiVerifySample {
		*keep = append(*keep, ctiSample{req.text, query, hash})
	}
	return nil
}

// verifySamples re-derives the kept perturbed requests on the reference
// path.
func (cb *ctiBench) verifySamples(out *outcome, kept [][]ctiSample) {
	for _, ks := range kept {
		for _, s := range ks {
			out.attempted++
			q, h, err := cb.refPipeline(s.text)
			if err != nil || q != s.query || h != s.hash {
				out.fail(1, fmt.Errorf("perturbed report: answer differs from the reference pipeline (%v)", err))
			}
		}
	}
}

func runCTIBurst(cfg *config) (*outcome, error) {
	cb, out, err := setupCTI(cfg, true)
	if err != nil {
		return nil, err
	}
	out.metrics["setup_s"] = median(cb.setupS)
	out.metrics["mem_mb"] = cb.memMiB
	out.note("setup_s: median of %d set-ups", len(cb.setupS))
	ctx := context.Background()
	decks := make([]*deck, ctiClients)
	kept := make([][]ctiSample, ctiClients)
	for i := range decks {
		decks[i] = cb.deck()
	}
	res := closedLoop(cfg.seed, ctiClients, cfg.warm(), cfg.window(), func(c int, rng *rand.Rand) error {
		req := cb.draw(decks[c], rng)
		q, r, err := cb.sys.HuntOSCTI(ctx, req.text)
		if err != nil {
			return fmt.Errorf("report %s: %w", cb.reports[req.idx].CaseID, err)
		}
		return cb.check(req, q, resultHash(r), r.Set.Len(), &kept[c])
	})
	out.addLoop(res, 0.95)
	cb.verifySamples(out, kept)
	return out, nil
}

func traceCTIBurst(cfg *config) (*outcome, error) {
	cb, out, err := setupCTI(cfg, false)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	uw, tw := traceWindows(cfg)
	d := cb.deck()
	untraced := closedLoop(cfg.seed, 1, cfg.warm(), uw, func(_ int, rng *rand.Rand) error {
		_, _, err := cb.sys.HuntOSCTI(ctx, cb.draw(d, rng).text)
		return err
	})

	// The benchmark's own copy of System.HuntOSCTI, a span per layer call.
	rec := newRecorder()
	ex := extract.New(extract.DefaultOptions())
	pipe := newHuntPipeline(cb.sys.Store(), rec)
	var kept []ctiSample
	n := 0
	traced := closedLoop(cfg.seed, 1, 0, tw, func(_ int, rng *rand.Rand) error {
		req := cb.draw(d, rng)
		n++
		root := rec.begin("request", -1, n)
		defer rec.end(root)
		sp := rec.begin("extract", root, n)
		er := ex.Extract(req.text)
		rec.end(sp)
		sp = rec.begin("synth", root, n)
		q, _, err := synth.Synthesize(er.Graph, synth.Options{})
		var src string
		if err == nil {
			src = tbql.Format(q)
		}
		rec.end(sp)
		if err != nil {
			return err
		}
		pipe.counts.entities += len(er.Graph.Nodes)
		pipe.counts.relations += len(er.Graph.Edges)
		r, err := pipe.hunt(ctx, src, root, n)
		if err != nil {
			return err
		}
		return cb.check(req, src, resultHash(r), r.Set.Len(), &kept)
	})
	out.count(untraced)
	out.count(traced)
	cb.verifySamples(out, [][]ctiSample{kept})
	readLayerMetrics(out, rec, &pipe.counts, traced, untraced)
	if err := rec.write(tracePath(cfg)); err != nil {
		return nil, err
	}
	return out, nil
}
