package extract

import (
	"sort"
	"strings"
	"time"

	"threatraptor/internal/ioc"
	"threatraptor/internal/nlp"
)

// Options controls the extraction pipeline.
type Options struct {
	// IOCProtection toggles Step 2 of Algorithm 1. Disabling it reproduces
	// the paper's "ThreatRaptor − IOC Protection" ablation: the text is
	// processed by a general tokenizer that shatters most indicators.
	IOCProtection bool
	// MergeThreshold is the word-vector similarity gate for IOC merging
	// (Step 8). Zero selects the default of 0.8.
	MergeThreshold float64
}

// DefaultOptions returns the configuration used in the paper's main
// results.
func DefaultOptions() Options {
	return Options{IOCProtection: true, MergeThreshold: 0.8}
}

// Extractor runs the threat behavior extraction pipeline.
type Extractor struct {
	pipe *nlp.Pipeline
	opts Options
}

// New returns an extractor with the given options.
func New(opts Options) *Extractor {
	return &Extractor{pipe: nlp.NewPipeline(), opts: opts}
}

// annTree is a dependency tree annotated for extraction (Step 5): which
// tokens are IOCs, which are candidate relation verbs, and which are
// instrumental verbs.
type annTree struct {
	tree    *nlp.DepTree
	iocAt   map[int]ioc.IOC // token index -> restored indicator
	corefAt map[int]bool    // IOC introduced by coreference (not a mention)
	verbAt  map[int]string  // token index -> relation verb lemma
	instrAt map[int]string  // token index -> instrumental verb lemma
	skip    bool            // Step 6: no candidate verbs => skip
}

// iocOrder returns the token indexes of the tree's IOCs in token order, so
// every walk over them is independent of map iteration order.
func (a *annTree) iocOrder() []int {
	idxs := make([]int, 0, len(a.iocAt))
	for i := range a.iocAt {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	return idxs
}

// block is one OSCTI text block with its byte offset in the document.
type textBlock struct {
	text   string
	offset int
}

// segmentBlocks splits a document on blank lines (Step 1 of Algorithm 1).
func segmentBlocks(doc string) []textBlock {
	var blocks []textBlock
	start := 0
	i := 0
	flush := func(end int) {
		if chunk := doc[start:end]; strings.TrimSpace(chunk) != "" {
			blocks = append(blocks, textBlock{text: chunk, offset: start})
		}
	}
	for i < len(doc) {
		if doc[i] == '\n' {
			j := i + 1
			for j < len(doc) && (doc[j] == ' ' || doc[j] == '\t' || doc[j] == '\r') {
				j++
			}
			if j < len(doc) && doc[j] == '\n' {
				flush(i)
				start = j + 1
				i = j + 1
				continue
			}
		}
		i++
	}
	flush(len(doc))
	return blocks
}

// Extract runs the full pipeline (Algorithm 1) over an OSCTI document and
// returns the recognized IOC mentions, the extracted relation triplets,
// and the constructed threat behavior graph.
func (e *Extractor) Extract(doc string) *Result {
	start := time.Now()
	blocks := segmentBlocks(doc)
	var trees []*annTree
	for _, blk := range blocks {
		trees = append(trees, e.processBlock(blk)...)
	}

	// Step 7: coreference resolution. A pronominal subject refers to the
	// most recent acting IOC (the subject of the last triplet or the tool
	// of the last instrumental verb).
	resolveCoref(trees)

	// Step 8: scan and merge IOCs across blocks.
	merged := newMergeTable(e.pipe, e.opts.MergeThreshold)
	var mentions []ioc.IOC
	for _, at := range trees {
		for _, idx := range at.iocOrder() {
			if at.corefAt[idx] {
				continue
			}
			ic := at.iocAt[idx]
			merged.add(ic)
			mentions = append(mentions, ic)
		}
	}

	// Step 9: IOC relation extraction per tree.
	var triplets []Triplet
	for _, at := range trees {
		if at.skip {
			continue
		}
		for _, idx := range at.iocOrder() { // coref mentions join merge table too
			merged.add(at.iocAt[idx])
		}
		triplets = append(triplets, extractRelations(at)...)
	}

	// Step 10: threat behavior graph construction.
	extractTime := time.Since(start)
	graphStart := time.Now()
	graph := buildGraph(merged, triplets)
	return &Result{
		IOCs:        mentions,
		Triplets:    triplets,
		Graph:       graph,
		ExtractTime: extractTime,
		GraphTime:   time.Since(graphStart),
	}
}

// processBlock applies Steps 2–6 to one block. Token offsets in the
// returned trees are byte offsets in the document.
func (e *Extractor) processBlock(blk textBlock) []*annTree {
	var deps []*nlp.DepTree
	iocBySpan := make(map[int]ioc.IOC) // document offset -> IOC

	if e.opts.IOCProtection {
		prot, recs := ioc.Protect(blk.text)
		deps = e.pipe.ProcessTokens(nlp.Tokenize(prot))
		toDocOffsets(deps, blk.offset, recs)
		for _, rec := range recs {
			ic := rec.IOC
			ic.Start += blk.offset
			ic.End += blk.offset
			iocBySpan[ic.Start] = ic
		}
		// Restore the protected indicators inside the trees (Step 4 tail).
		for _, d := range deps {
			for i := range d.Tokens {
				tok := &d.Tokens[i]
				if tok.Text != ioc.DummyWord {
					continue
				}
				if ic, ok := iocBySpan[tok.Start]; ok {
					tok.Text = ic.Text
					tok.Lemma = ic.Text
					tok.POS = nlp.TagPropn
				}
			}
		}
	} else {
		// Ablation: general tokenization; only indicators that happen to
		// align with a single token survive.
		deps = e.pipe.ProcessTokens(nlp.TokenizeGeneral(blk.text))
		toDocOffsets(deps, blk.offset, nil)
		for _, ic := range ioc.Extract(blk.text) {
			ic.Start += blk.offset
			ic.End += blk.offset
			iocBySpan[ic.Start] = ic
		}
	}

	var out []*annTree
	for _, d := range deps {
		at := &annTree{
			tree:    d,
			iocAt:   make(map[int]ioc.IOC),
			corefAt: make(map[int]bool),
			verbAt:  make(map[int]string),
			instrAt: make(map[int]string),
		}
		for i := range d.Tokens {
			tok := &d.Tokens[i]
			if e.opts.IOCProtection {
				if ic, ok := iocBySpan[tok.Start]; ok && tok.Text == ic.Text {
					at.iocAt[i] = ic
				}
			} else if ic, ok := iocBySpan[tok.Start]; ok &&
				tok.End-tok.Start == ic.End-ic.Start && tok.Text == ic.Text {
				at.iocAt[i] = ic
			}
			if tok.POS == nlp.TagVerb {
				switch {
				case IsRelationVerb(tok.Lemma):
					at.verbAt[i] = tok.Lemma
				case IsInstrumentalVerb(tok.Lemma):
					at.instrAt[i] = tok.Lemma
				}
			}
		}
		// Step 6 (tree simplification): trees with no candidate relation
		// verbs cannot yield relations; skipping them only speeds up
		// extraction.
		if len(at.verbAt) == 0 {
			at.skip = true
		}
		out = append(out, at)
	}
	return out
}

// toDocOffsets rewrites the token offsets of a block's trees, which index
// the block's (protected) text, into byte offsets in the document. Each
// placeholder before an offset shifts it by the length difference between
// DummyWord and the indicator it replaced; a restored indicator's token
// lands on the indicator's own span.
func toDocOffsets(deps []*nlp.DepTree, blockOffset int, recs []ioc.Replacement) {
	shift := make([]int, len(recs)+1) // shift[k]: growth of the first k placeholders
	for k, r := range recs {
		shift[k+1] = shift[k] + len(ioc.DummyWord) - (r.IOC.End - r.IOC.Start)
	}
	doc := func(p int) int {
		k := sort.Search(len(recs), func(k int) bool { return recs[k].Offset >= p })
		return blockOffset + p - shift[k]
	}
	for _, d := range deps {
		for i := range d.Tokens {
			tok := &d.Tokens[i]
			tok.Start, tok.End = doc(tok.Start), doc(tok.End)
		}
	}
}

// resolveCoref links pronominal subjects to the most recent acting IOC
// across the trees of the document (Step 7 operates within a block; actors
// rarely change across block boundaries mid-narrative, and the paper's
// block linking happens at graph construction anyway).
func resolveCoref(trees []*annTree) {
	var lastActor *ioc.IOC
	for _, at := range trees {
		d := at.tree
		// Resolve pronoun subjects in this tree against the current actor.
		for i := range d.Tokens {
			tok := &d.Tokens[i]
			if tok.POS != nlp.TagPron || d.Rel[i] != nlp.RelNsubj {
				continue
			}
			lw := strings.ToLower(tok.Text)
			if lw != "it" && lw != "he" && lw != "she" && lw != "they" && lw != "this" {
				continue
			}
			if lastActor != nil {
				at.iocAt[i] = *lastActor
				at.corefAt[i] = true
			}
		}
		// Update the actor: prefer the subject IOC of this tree, then the
		// direct object of an instrumental verb (the tool being used).
		for i := range d.Tokens {
			ic, isIOC := at.iocAt[i]
			if !isIOC || at.corefAt[i] {
				continue
			}
			switch {
			case d.Rel[i] == nlp.RelNsubj:
				c := ic
				lastActor = &c
			case (d.Rel[i] == nlp.RelDobj || d.Rel[i] == nlp.RelDep) &&
				d.Head[i] >= 0 && at.instrAt[d.Head[i]] != "":
				c := ic
				lastActor = &c
			}
		}
	}
}
