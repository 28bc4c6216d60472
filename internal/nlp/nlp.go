// Package nlp is a from-scratch natural-language processing substrate: a
// tokenizer, sentence segmenter, part-of-speech tagger, lemmatizer,
// deterministic rule-based dependency parser, and hashed character-n-gram
// word vectors.
//
// It is the spaCy stand-in for ThreatRaptor's threat behavior extraction
// pipeline (Section III-C). The extraction pipeline consumes exactly six
// capabilities — token boundaries, sentence boundaries, POS tags,
// dependency trees, lemmas, and vector similarity — and this package
// provides all six without external models. The tagger is lexicon- and
// suffix-based with contextual repair rules; the parser is a shallow
// clause parser producing subject/verb/object/preposition attachments,
// which is the tree structure the IOC relation extraction algorithm
// inspects (root→LCA and LCA→node dependency paths).
package nlp

import "iter"

// Tag is a universal part-of-speech tag.
type Tag string

// The tag inventory (a subset of Universal POS tags).
const (
	TagNoun  Tag = "NOUN"
	TagPropn Tag = "PROPN"
	TagVerb  Tag = "VERB"
	TagAux   Tag = "AUX"
	TagPron  Tag = "PRON"
	TagDet   Tag = "DET"
	TagAdp   Tag = "ADP" // prepositions
	TagAdj   Tag = "ADJ"
	TagAdv   Tag = "ADV"
	TagCconj Tag = "CCONJ"
	TagSconj Tag = "SCONJ"
	TagNum   Tag = "NUM"
	TagPart  Tag = "PART" // "to", "not"
	TagPunct Tag = "PUNCT"
	TagX     Tag = "X"
)

// IsNounLike reports whether the tag can head a noun phrase.
func (t Tag) IsNounLike() bool { return t == TagNoun || t == TagPropn || t == TagNum }

// Token is one token with its offsets into the original text.
type Token struct {
	Text  string
	Lemma string
	POS   Tag
	Start int // byte offset of the first byte
	End   int // byte offset one past the last byte
}

// Sentence is a contiguous token span. Its Tokens alias the token slice
// it was split from (see SplitSentencesTokens).
type Sentence struct {
	Tokens []Token
	Start  int
	End    int
}

// Text reconstructs an approximation of the sentence text.
func (s *Sentence) Text(original string) string {
	if s.Start < 0 || s.End > len(original) || s.Start >= s.End {
		return ""
	}
	return original[s.Start:s.End]
}

// Dependency relation labels produced by the parser.
const (
	RelRoot     = "root"
	RelNsubj    = "nsubj"
	RelDobj     = "dobj"
	RelPobj     = "pobj"
	RelPrep     = "prep"
	RelXcomp    = "xcomp"
	RelConj     = "conj"
	RelCC       = "cc"
	RelDet      = "det"
	RelAmod     = "amod"
	RelAdvmod   = "advmod"
	RelAux      = "aux"
	RelMark     = "mark"
	RelCompound = "compound"
	RelPoss     = "poss"
	RelPunct    = "punct"
	RelDep      = "dep"
)

// DepTree is the dependency parse of one sentence. Head[i] is the token
// index of token i's head, or -1 for the root; Rel[i] labels the edge from
// Head[i] to i.
type DepTree struct {
	Tokens []Token
	Head   []int
	Rel    []string
	Root   int
}

// Children yields the indexes of i's direct dependents, in order.
func (d *DepTree) Children(i int) iter.Seq[int] {
	return func(yield func(int) bool) {
		for j, h := range d.Head {
			if h == i && !yield(j) {
				return
			}
		}
	}
}

// PathToRoot yields the token indexes from i up to (and including) the
// root.
func (d *DepTree) PathToRoot(i int) iter.Seq[int] {
	return func(yield func(int) bool) {
		for x, n := i, 0; x >= 0 && n <= len(d.Tokens); x, n = d.Head[x], n+1 { // bounded: a corrupt tree may cycle
			if !yield(x) {
				return
			}
		}
	}
}

// LCA returns the lowest common ancestor of tokens a and b, or -1 when
// their paths to the root share no node. It lifts the deeper token to the
// other's depth and then steps both up until they meet: O(depth), where a
// long run of coordinated verbs, each the head of the next, is as deep as
// it is long.
func (d *DepTree) LCA(a, b int) int {
	da, db := d.depth(a), d.depth(b)
	for ; da > db; da-- {
		a = d.Head[a]
	}
	for ; db > da; db-- {
		b = d.Head[b]
	}
	for n := 0; a != b; n++ {
		if a < 0 || b < 0 || n > len(d.Tokens) { // a corrupt tree may cycle
			return -1
		}
		a, b = d.Head[a], d.Head[b]
	}
	return a
}

// depth returns the number of nodes on i's path to the root.
func (d *DepTree) depth(i int) int {
	n := 0
	for range d.PathToRoot(i) {
		n++
	}
	return n
}

// Pipeline bundles the NLP components with their shared lexicons.
type Pipeline struct {
	vec *Vectors
}

// NewPipeline returns a ready-to-use pipeline.
func NewPipeline() *Pipeline {
	return &Pipeline{vec: NewVectors(64)}
}

// Process tokenizes, tags, lemmatizes, and parses text, returning one
// dependency tree per sentence.
func (p *Pipeline) Process(text string) []*DepTree {
	return p.ProcessTokens(Tokenize(text))
}

// Similarity returns the cosine similarity of the two words' vectors,
// in [-1, 1].
func (p *Pipeline) Similarity(a, b string) float64 { return p.vec.Similarity(a, b) }

// Vector returns the embedding of w.
func (p *Pipeline) Vector(w string) []float32 { return p.vec.Vector(w) }
