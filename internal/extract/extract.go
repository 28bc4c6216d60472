package extract

import (
	"slices"
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
// instrumental verbs, one annotation per token.
type annTree struct {
	tree *nlp.DepTree
	ann  []tokenAnn // ann[i] annotates tree.Tokens[i]
	skip bool       // Step 6: no candidate verbs => skip
}

// tokenAnn annotates one token of an annTree.
type tokenAnn struct {
	ioc   int32 // 1 + the index of the token's indicator in the document's IOC list; 0 when none
	coref bool  // the IOC was introduced by coreference (not a mention)
	verb  verbKind
}

// verbKind classifies a verb token by its lemma.
type verbKind uint8

const (
	notCandidate verbKind = iota
	relationVerb
	instrumentalVerb
)

func (a *annTree) isIOC(i int) bool          { return a.ann[i].ioc != 0 }
func (a *annTree) isRelationVerb(i int) bool { return a.ann[i].verb == relationVerb }

// isInstrumental reports whether token i is an instrumental verb; i may
// be a root's head (negative).
func (a *annTree) isInstrumental(i int) bool { return i >= 0 && a.ann[i].verb == instrumentalVerb }

// document is one Extract call's state: the IOCs that annotations refer
// to, in block and then source order, and the annotated trees.
type document struct {
	iocs  []ioc.IOC
	trees []annTree
}

// iocAt returns the indicator of IOC token i of tree at.
func (doc *document) iocAt(at *annTree, i int) ioc.IOC { return doc.iocs[at.ann[i].ioc-1] }

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
func (e *Extractor) Extract(text string) *Result {
	start := time.Now()
	doc := &document{}
	for _, blk := range segmentBlocks(text) {
		e.processBlock(doc, blk)
	}

	// Step 7: coreference resolution. A pronominal subject refers to the
	// most recent acting IOC (the subject of the last triplet or the tool
	// of the last instrumental verb).
	resolveCoref(doc.trees)

	// Step 8: scan and merge IOCs across blocks.
	merged := newMergeTable(e.pipe, e.opts.MergeThreshold)
	mentions := make([]ioc.IOC, 0, len(doc.iocs)) // each indicator is at most one mention
	for t := range doc.trees {
		at := &doc.trees[t]
		for i := range at.ann {
			if at.isIOC(i) && !at.ann[i].coref {
				ic := doc.iocAt(at, i)
				merged.add(ic)
				mentions = append(mentions, ic)
			}
		}
	}

	// Step 9: IOC relation extraction per tree.
	var triplets []Triplet
	for t := range doc.trees {
		at := &doc.trees[t]
		if at.skip {
			continue
		}
		for i := range at.ann { // coref mentions join merge table too
			if at.isIOC(i) {
				merged.add(doc.iocAt(at, i))
			}
		}
		triplets = doc.extractRelations(triplets, at)
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

// processBlock applies Steps 2–6 to one block, appending its indicators
// and annotated trees to doc. Token offsets in the trees are byte offsets
// in the document.
func (e *Extractor) processBlock(doc *document, blk textBlock) {
	var deps []*nlp.DepTree
	base := len(doc.iocs)
	if e.opts.IOCProtection {
		prot, recs := ioc.Protect(blk.text)
		deps = e.pipe.ProcessTokens(nlp.Tokenize(prot))
		toDocOffsets(deps, blk.offset, recs)
		for _, rec := range recs {
			doc.iocs = append(doc.iocs, rec.IOC)
		}
	} else {
		// Ablation: general tokenization; only indicators that happen to
		// align with a single token survive.
		deps = e.pipe.ProcessTokens(nlp.TokenizeGeneral(blk.text))
		toDocOffsets(deps, blk.offset, nil)
		doc.iocs = append(doc.iocs, ioc.Extract(blk.text)...)
	}
	// The block's indicators, in source order, at document offsets.
	iocs := doc.iocs[base:]
	for k := range iocs {
		iocs[k].Start += blk.offset
		iocs[k].End += blk.offset
	}

	n := 0
	for _, d := range deps {
		n += len(d.Tokens)
	}
	slab := make([]tokenAnn, n)
	for _, d := range deps {
		at := annTree{tree: d, ann: slab[:len(d.Tokens):len(d.Tokens)], skip: true}
		slab = slab[len(d.Tokens):]
		for i := range d.Tokens {
			tok := &d.Tokens[i]
			if k, ok := slices.BinarySearchFunc(iocs, tok.Start, func(ic ioc.IOC, start int) int {
				return ic.Start - start
			}); ok {
				ic := &iocs[k]
				if e.opts.IOCProtection && tok.Text == ioc.DummyWord {
					// Restore the protected indicator (Step 4 tail).
					tok.Text = ic.Text
					tok.Lemma = ic.Text
					tok.POS = nlp.TagPropn
				}
				if tok.Text == ic.Text && (e.opts.IOCProtection || tok.End-tok.Start == ic.End-ic.Start) {
					at.ann[i].ioc = int32(base + k + 1)
				}
			}
			if tok.POS == nlp.TagVerb {
				switch {
				case IsRelationVerb(tok.Lemma):
					at.ann[i].verb = relationVerb
					// Step 6 (tree simplification): trees with no
					// candidate relation verbs cannot yield relations;
					// skipping them only speeds up extraction.
					at.skip = false
				case IsInstrumentalVerb(tok.Lemma):
					at.ann[i].verb = instrumentalVerb
				}
			}
		}
		doc.trees = append(doc.trees, at)
	}
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
func resolveCoref(trees []annTree) {
	var lastActor int32 // annotation of the current actor; 0: none yet
	for t := range trees {
		at := &trees[t]
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
			if lastActor != 0 {
				at.ann[i].ioc = lastActor
				at.ann[i].coref = true
			}
		}
		// Update the actor: prefer the subject IOC of this tree, then the
		// direct object of an instrumental verb (the tool being used).
		for i := range d.Tokens {
			if !at.isIOC(i) || at.ann[i].coref {
				continue
			}
			switch {
			case d.Rel[i] == nlp.RelNsubj:
				lastActor = at.ann[i].ioc
			case (d.Rel[i] == nlp.RelDobj || d.Rel[i] == nlp.RelDep) && at.isInstrumental(d.Head[i]):
				lastActor = at.ann[i].ioc
			}
		}
	}
}
