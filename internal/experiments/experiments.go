// Package experiments regenerates every table of the paper's evaluation
// (Section IV): Table V (threat behavior extraction accuracy), Table VI
// (threat hunting accuracy), Table VII (extraction efficiency), Table VIII
// (query execution efficiency), Table IX (fuzzy search vs Poirot), and
// Table X (TBQL conciseness).
package experiments

import (
	"fmt"
	"time"

	"threatraptor/internal/cases"
	"threatraptor/internal/engine"
	"threatraptor/internal/extract"
	"threatraptor/internal/fuzzy"
	"threatraptor/internal/openie"
	"threatraptor/internal/synth"
	"threatraptor/internal/tbql"
)

// PRF is a precision/recall/F1 triple.
type PRF struct {
	Precision float64
	Recall    float64
	F1        float64
}

func prf(tp, fp, fn int) PRF {
	var p, r, f float64
	if tp+fp > 0 {
		p = float64(tp) / float64(tp+fp)
	}
	if tp+fn > 0 {
		r = float64(tp) / float64(tp+fn)
	}
	if p+r > 0 {
		f = 2 * p * r / (p + r)
	}
	return PRF{Precision: p, Recall: r, F1: f}
}

// extractionOutput normalizes any approach's output for scoring.
type extractionOutput struct {
	entities  map[string]bool
	relations map[string]bool
}

func relKey(subj, verb, obj string) string { return subj + "|" + verb + "|" + obj }

// approach is one Table V contender.
type approach struct {
	Name string
	Run  func(report string) extractionOutput
}

func approaches() []approach {
	trOut := func(opts extract.Options) func(string) extractionOutput {
		ex := extract.New(opts)
		return func(report string) extractionOutput {
			res := ex.Extract(report)
			out := extractionOutput{entities: map[string]bool{}, relations: map[string]bool{}}
			for _, ic := range res.IOCs {
				out.entities[ic.Text] = true
			}
			for _, t := range res.Triplets {
				out.relations[relKey(t.Subj.Text, t.Verb, t.Obj.Text)] = true
			}
			return out
		}
	}
	oieOut := func(e openie.Extractor) func(string) extractionOutput {
		return func(report string) extractionOutput {
			res := e.Extract(report)
			out := extractionOutput{entities: map[string]bool{}, relations: map[string]bool{}}
			for _, ent := range res.Entities {
				out.entities[ent] = true
			}
			for _, t := range res.Triples {
				out.relations[relKey(t.Subj, t.Rel, t.Obj)] = true
			}
			return out
		}
	}
	return []approach{
		{"ThreatRaptor", trOut(extract.DefaultOptions())},
		{"ThreatRaptor - IOC Protection", trOut(extract.Options{IOCProtection: false})},
		{"Stanford Open IE", oieOut(openie.NewClauseIE(false))},
		{"Stanford Open IE + IOC Protection", oieOut(openie.NewClauseIE(true))},
		{"Open IE 5", oieOut(openie.NewExhaustiveIE(false))},
		{"Open IE 5 + IOC Protection", oieOut(openie.NewExhaustiveIE(true))},
	}
}

// Table5Row is one approach's aggregated extraction accuracy.
type Table5Row struct {
	Approach string
	Entity   PRF
	Relation PRF
}

// Table5 reproduces the paper's Table V: IOC entity and relation
// extraction precision/recall/F1, aggregated over all 18 cases.
func Table5() []Table5Row {
	all := cases.All()
	var rows []Table5Row
	for _, ap := range approaches() {
		var entTP, entFP, entFN, relTP, relFP, relFN int
		for _, c := range all {
			out := ap.Run(c.Report)
			wantEnt := map[string]bool{}
			for _, e := range c.Entities {
				wantEnt[e] = true
			}
			wantRel := map[string]bool{}
			for _, r := range c.Relations {
				wantRel[relKey(r.Subj, r.Verb, r.Obj)] = true
			}
			for e := range out.entities {
				if wantEnt[e] {
					entTP++
				} else {
					entFP++
				}
			}
			for e := range wantEnt {
				if !out.entities[e] {
					entFN++
				}
			}
			for r := range out.relations {
				if wantRel[r] {
					relTP++
				} else {
					relFP++
				}
			}
			for r := range wantRel {
				if !out.relations[r] {
					relFN++
				}
			}
		}
		rows = append(rows, Table5Row{
			Approach: ap.Name,
			Entity:   prf(entTP, entFP, entFN),
			Relation: prf(relTP, relFP, relFN),
		})
	}
	return rows
}

// Table6Row is one case's threat hunting accuracy.
type Table6Row struct {
	CaseID string
	TP     int
	FP     int
	FN     int
}

// Table6 reproduces the paper's Table VI: for each case, the system events
// found by the synthesized TBQL query's patterns, scored against the
// ground-truth malicious events.
func Table6(scale float64) ([]Table6Row, error) {
	ex := extract.New(extract.DefaultOptions())
	var rows []Table6Row
	for _, c := range cases.All() {
		gen, err := c.Generate(scale)
		if err != nil {
			return nil, err
		}
		store, err := engine.NewStore(gen.Log)
		if err != nil {
			return nil, err
		}
		en := &engine.Engine{Store: store}

		res := ex.Extract(c.Report)
		matched := map[int64]bool{}
		if q, _, err := synth.Synthesize(res.Graph, synth.Options{}); err == nil {
			a, err := tbql.Analyze(q)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", c.ID, err)
			}
			matched, err = en.MatchEventsPerPattern(nil, a)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", c.ID, err)
			}
		}

		attack := map[int64]bool{}
		for _, id := range gen.AttackEventIDs {
			attack[id] = true
		}
		row := Table6Row{CaseID: c.ID}
		for ev := range matched {
			if attack[ev] {
				row.TP++
			} else {
				row.FP++
			}
		}
		row.FN = len(attack) - row.TP
		rows = append(rows, row)
	}
	return rows, nil
}

// Table7Row is one case's stage timing (seconds).
type Table7Row struct {
	CaseID    string
	Extract   float64            // text -> entities & relations
	Graph     float64            // entities & relations -> graph
	Synth     float64            // graph -> TBQL
	Baselines map[string]float64 // baseline extraction times
}

// Table7 reproduces the paper's Table VII: per-stage extraction times for
// ThreatRaptor and total extraction times for the open IE baselines.
func Table7() []Table7Row {
	ex := extract.New(extract.DefaultOptions())
	exNoProt := extract.New(extract.Options{IOCProtection: false})
	baselines := []openie.Extractor{
		openie.NewClauseIE(false), openie.NewClauseIE(true),
		openie.NewExhaustiveIE(false), openie.NewExhaustiveIE(true),
	}
	var rows []Table7Row
	for _, c := range cases.All() {
		res := ex.Extract(c.Report)
		row := Table7Row{
			CaseID:    c.ID,
			Extract:   res.ExtractTime.Seconds(),
			Graph:     res.GraphTime.Seconds(),
			Baselines: map[string]float64{},
		}
		start := time.Now()
		if _, _, err := synth.Synthesize(res.Graph, synth.Options{}); err == nil {
			row.Synth = time.Since(start).Seconds()
		}
		startNP := time.Now()
		exNoProt.Extract(c.Report)
		row.Baselines["ThreatRaptor - IOC Protection"] = time.Since(startNP).Seconds()
		for _, b := range baselines {
			startB := time.Now()
			b.Extract(c.Report)
			row.Baselines[b.Name()] = time.Since(startB).Seconds()
		}
		rows = append(rows, row)
	}
	return rows
}

// Table8Row is one case's query execution times (seconds) for the four
// semantically equivalent query forms.
type Table8Row struct {
	CaseID   string
	Patterns int
	TBQL     Timing // (a) event patterns, scheduled, relational backend
	SQL      Timing // (b) monolithic SQL
	TBQLPath Timing // (c) length-1 path patterns, scheduled, graph backend
	Cypher   Timing // (d) monolithic Cypher
}

// Timing is a mean and standard deviation over rounds, in seconds.
type Timing struct {
	Mean float64
	Std  float64
}

func timeRounds(rounds int, run func() error) (Timing, error) {
	samples := make([]float64, 0, rounds)
	for i := 0; i < rounds; i++ {
		start := time.Now()
		if err := run(); err != nil {
			return Timing{}, err
		}
		samples = append(samples, time.Since(start).Seconds())
	}
	var sum float64
	for _, s := range samples {
		sum += s
	}
	mean := sum / float64(len(samples))
	var varsum float64
	for _, s := range samples {
		varsum += (s - mean) * (s - mean)
	}
	std := 0.0
	if len(samples) > 1 {
		std = varsum / float64(len(samples)-1)
	}
	return Timing{Mean: mean, Std: sqrt(std)}, nil
}

func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	z := x
	for i := 0; i < 40; i++ {
		z = (z + x/z) / 2
	}
	return z
}

// Table8 reproduces the paper's Table VIII: execution time of the four
// query forms per case, averaged over the given number of rounds (the
// paper used 20).
func Table8(scale float64, rounds int) ([]Table8Row, error) {
	ex := extract.New(extract.DefaultOptions())
	var rows []Table8Row
	for _, c := range cases.All() {
		gen, err := c.Generate(scale)
		if err != nil {
			return nil, err
		}
		store, err := engine.NewStore(gen.Log)
		if err != nil {
			return nil, err
		}
		en := &engine.Engine{Store: store}
		graph := ex.Extract(c.Report).Graph

		qa, _, err := synth.Synthesize(graph, synth.Options{})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.ID, err)
		}
		aa, err := tbql.Analyze(qa)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.ID, err)
		}
		qc, _, err := synth.Synthesize(graph, synth.Options{Mode: synth.ModeLength1Paths})
		if err != nil {
			return nil, err
		}
		ac, err := tbql.Analyze(qc)
		if err != nil {
			return nil, err
		}

		row := Table8Row{CaseID: c.ID, Patterns: len(qa.Patterns)}
		if row.TBQL, err = timeRounds(rounds, func() error {
			_, _, err := en.Execute(nil, aa)
			return err
		}); err != nil {
			return nil, fmt.Errorf("%s tbql: %w", c.ID, err)
		}
		if row.SQL, err = timeRounds(rounds, func() error {
			_, _, err := en.ExecuteMonolithicSQL(nil, aa)
			return err
		}); err != nil {
			return nil, fmt.Errorf("%s sql: %w", c.ID, err)
		}
		if row.TBQLPath, err = timeRounds(rounds, func() error {
			_, _, err := en.Execute(nil, ac)
			return err
		}); err != nil {
			return nil, fmt.Errorf("%s tbql-path: %w", c.ID, err)
		}
		if row.Cypher, err = timeRounds(rounds, func() error {
			_, _, err := en.ExecuteMonolithicCypher(nil, aa)
			return err
		}); err != nil {
			return nil, fmt.Errorf("%s cypher: %w", c.ID, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Table9Row is one case's fuzzy-search timing (seconds) for both modes.
type Table9Row struct {
	CaseID string
	Fuzzy  PhaseTimes // ThreatRaptor-Fuzzy (exhaustive)
	Poirot PhaseTimes // first-acceptable alignment
	// Alignments found by the exhaustive mode.
	Alignments int
}

// PhaseTimes split an execution into the paper's three phases.
type PhaseTimes struct {
	Loading       float64
	Preprocessing float64
	Searching     float64
}

// Table9 reproduces the paper's Table IX: fuzzy search mode vs Poirot,
// with loading, preprocessing, and searching times. Loading builds the
// store the search walks (its columns and its graph) from the case's log;
// Preprocessing is the snapshot pin, the only preparation the search
// needs on a built store; Searching is the alignment search.
func Table9(scale float64) ([]Table9Row, error) {
	ex := extract.New(extract.DefaultOptions())
	var rows []Table9Row
	for _, c := range cases.All() {
		gen, err := c.Generate(scale)
		if err != nil {
			return nil, err
		}
		graph := ex.Extract(c.Report).Graph
		q, _, err := synth.Synthesize(graph, synth.Options{})
		if err != nil {
			return nil, err
		}
		a, err := tbql.Analyze(q)
		if err != nil {
			return nil, err
		}
		qg, err := fuzzy.FromTBQL(a)
		if err != nil {
			return nil, err
		}

		row := Table9Row{CaseID: c.ID}
		runMode := func(mode fuzzy.Mode) (PhaseTimes, int, error) {
			var pt PhaseTimes
			// Loading: build the store — entity and event columns plus
			// the provenance graph the search walks — from the log.
			start := time.Now()
			store, err := engine.NewStore(gen.Log)
			if err != nil {
				return pt, 0, err
			}
			pt.Loading = time.Since(start).Seconds()
			// Preprocessing: pin the snapshot whose graph the search
			// walks.
			start = time.Now()
			snap := store.Snapshot()
			pt.Preprocessing = time.Since(start).Seconds()
			// Searching: alignment search.
			start = time.Now()
			als, err := fuzzy.NewSearcher(snap, qg, mode).Search(nil)
			pt.Searching = time.Since(start).Seconds()
			return pt, len(als), err
		}
		var n int
		if row.Fuzzy, n, err = runMode(fuzzy.ModeExhaustive); err != nil {
			return nil, err
		}
		row.Alignments = n
		if row.Poirot, _, err = runMode(fuzzy.ModeFirstAcceptable); err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Table10Row is one case's query conciseness measurements.
type Table10Row struct {
	CaseID   string
	Patterns int
	// Chars excludes whitespace; Words splits on whitespace.
	TBQLChars, TBQLWords         int
	SQLChars, SQLWords           int
	TBQLPathChars, TBQLPathWords int
	CypherChars, CypherWords     int
}

// Table10 reproduces the paper's Table X: the size of the four
// semantically equivalent query forms.
func Table10() ([]Table10Row, error) {
	ex := extract.New(extract.DefaultOptions())
	var rows []Table10Row
	for _, c := range cases.All() {
		gen, err := c.Generate(0.02) // tiny store: only compilation needed
		if err != nil {
			return nil, err
		}
		store, err := engine.NewStore(gen.Log)
		if err != nil {
			return nil, err
		}
		graph := ex.Extract(c.Report).Graph
		qa, _, err := synth.Synthesize(graph, synth.Options{})
		if err != nil {
			return nil, err
		}
		aa, err := tbql.Analyze(qa)
		if err != nil {
			return nil, err
		}
		qc, _, err := synth.Synthesize(graph, synth.Options{Mode: synth.ModeLength1Paths})
		if err != nil {
			return nil, err
		}
		sql, err := engine.CompileMonolithicSQL(store, aa)
		if err != nil {
			return nil, err
		}
		cypher, err := engine.CompileMonolithicCypher(store, aa)
		if err != nil {
			return nil, err
		}
		tbqlText := tbql.Format(qa)
		pathText := tbql.Format(qc)

		row := Table10Row{CaseID: c.ID, Patterns: len(qa.Patterns)}
		row.TBQLChars, row.TBQLWords = measure(tbqlText)
		row.SQLChars, row.SQLWords = measure(sql)
		row.TBQLPathChars, row.TBQLPathWords = measure(pathText)
		row.CypherChars, row.CypherWords = measure(cypher)
		rows = append(rows, row)
	}
	return rows, nil
}

// measure counts non-whitespace characters and lexical words. A word is a
// maximal run of identifier/value characters (letters, digits, and the
// characters that appear inside names, paths, and wildcards), so a dense
// Cypher pattern like (p1:Process)-[e1:read]->(f1:File) counts its six
// identifiers rather than one whitespace-delimited blob.
func measure(s string) (chars, words int) {
	inWord := false
	for _, r := range s {
		isSpace := r == ' ' || r == '\t' || r == '\n' || r == '\r'
		if !isSpace {
			chars++
		}
		isWordChar := r == '_' || r == '%' || r == '/' || r == '.' || r == '\\' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9')
		if isWordChar && !inWord {
			words++
		}
		inWord = isWordChar
	}
	return chars, words
}
