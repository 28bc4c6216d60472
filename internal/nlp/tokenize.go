package nlp

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// Tokenize splits text into tokens with byte offsets. Words are runs of
// letters, digits, and intra-word connectors (apostrophes, hyphens,
// underscores, dots and slashes inside path-like runs); punctuation marks
// are single-character tokens. A dot stays inside a word only between
// word runes (e.g. in a protected placeholder or a version number), so a
// sentence period after a word is a token of its own.
//
// Note: the extraction pipeline replaces IOCs with a plain dummy word
// before tokenization (IOC protection), so in practice the tokenizer sees
// ordinary English; the path-run handling is a safety net for unprotected
// text and for the open-IE baselines that run without protection.
//
// The returned slice is allocated once, sized by maxTokens; ASCII bytes
// are classified by table, other runes by the unicode package.
func Tokenize(text string) []Token {
	toks := make([]Token, 0, maxTokens(text))
	i := 0
	n := len(text)
	for i < n {
		space, word, size := classAt(text, i)
		switch {
		case space:
			i += size
		case word:
			start := i
			for i < n {
				_, w, sz := classAt(text, i)
				if w || isConnector(text, i, sz) {
					i += sz
					continue
				}
				break
			}
			toks = append(toks, Token{Text: text[start:i], Start: start, End: i})
		default:
			toks = append(toks, Token{Text: text[i : i+size], Start: i, End: i + size})
			i += size
		}
	}
	return toks
}

// ASCII byte classes for Tokenize: unicode.IsSpace and isWordRune of
// each ASCII rune.
const (
	asciiSpace = 1 << iota
	asciiWord
)

var asciiClass = func() (t [utf8.RuneSelf]uint8) {
	for c := rune(0); c < utf8.RuneSelf; c++ {
		if unicode.IsSpace(c) {
			t[c] |= asciiSpace
		}
		if isWordRune(c) {
			t[c] |= asciiWord
		}
	}
	return t
}()

// classAt classifies the rune at byte i of text as space or word and
// returns its size.
func classAt(text string, i int) (space, word bool, size int) {
	if c := text[i]; c < utf8.RuneSelf {
		return asciiClass[c]&asciiSpace != 0, asciiClass[c]&asciiWord != 0, 1
	}
	r, size := utf8.DecodeRuneInString(text[i:])
	return unicode.IsSpace(r), isWordRune(r), size
}

// maxTokens bounds the number of tokens Tokenize makes of text: every
// token starts at a byte that is neither ASCII space nor an ASCII word
// byte, or at an ASCII word byte that starts the text or follows a byte
// that is not one, and it counts those bytes.
func maxTokens(text string) int {
	n := 0
	prevWord := false
	for i := 0; i < len(text); i++ {
		c := text[i]
		word := c < utf8.RuneSelf && asciiClass[c]&asciiWord != 0
		if word && !prevWord || !word && (c >= utf8.RuneSelf || asciiClass[c]&asciiSpace == 0) {
			n++
		}
		prevWord = word
	}
	return n
}

func isWordRune(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' || r == '/' || r == '$' || r == '\\'
}

// isConnector reports whether the rune at byte position i continues a
// word: apostrophes and hyphens between letters, and dots/colons/at-signs
// between word runes (file extensions, IPs, versions, emails).
func isConnector(text string, i, size int) bool {
	if size != 1 {
		return false
	}
	b := text[i]
	if b != '\'' && b != '-' && b != '.' && b != ':' && b != '@' {
		return false
	}
	if i == 0 || i+1 >= len(text) {
		return false
	}
	_, next, _ := classAt(text, i+1)
	if !next {
		return false
	}
	if c := text[i-1]; c < utf8.RuneSelf {
		return asciiClass[c]&asciiWord != 0
	}
	prev, _ := utf8.DecodeLastRuneInString(text[:i])
	return isWordRune(prev)
}

// SplitSentences segments text into sentences and tokenizes each. A
// sentence ends at '.', '!', '?' or ';', provided the period is not part
// of a word (abbreviations and IOCs keep their dots during tokenization)
// and the next token starts a new clause.
func (p *Pipeline) SplitSentences(text string) []Sentence {
	return p.SplitSentencesTokens(Tokenize(text))
}

func startsClause(next string) bool {
	if next == "" {
		return false
	}
	// The IOC-protection dummy word can legitimately start a sentence
	// (protected text replaces sentence-initial indicators with it).
	if next == "something" {
		return true
	}
	r := rune(next[0])
	return unicode.IsUpper(r) || next[0] == '/' || unicode.IsDigit(r) || next[0] == '"'
}

func textEnd(toks []Token) int {
	if len(toks) == 0 {
		return 0
	}
	return toks[len(toks)-1].End
}

// words lowercases w for lexicon lookups.
func lower(w string) string { return strings.ToLower(w) }

// TokenizeGeneral splits text the way a general-English tokenizer (e.g.
// spaCy's) does: slashes, backslashes, and most punctuation are separators;
// only apostrophes, hyphens, and dots/colons between alphanumerics stay
// inside words. Under this mode an IP or a bare filename survives as one
// token, but a file path like /etc/passwd shatters into pieces — the
// behaviour that motivates IOC protection (Table V of the paper).
func TokenizeGeneral(text string) []Token {
	var toks []Token
	i := 0
	n := len(text)
	for i < n {
		r, size := utf8.DecodeRuneInString(text[i:])
		switch {
		case unicode.IsSpace(r):
			i += size
		case unicode.IsLetter(r) || unicode.IsDigit(r):
			start := i
			for i < n {
				rr, sz := utf8.DecodeRuneInString(text[i:])
				if unicode.IsLetter(rr) || unicode.IsDigit(rr) || generalConnector(text, i, sz) {
					i += sz
					continue
				}
				break
			}
			toks = append(toks, Token{Text: text[start:i], Start: start, End: i})
		default:
			toks = append(toks, Token{Text: text[i : i+size], Start: i, End: i + size})
			i += size
		}
	}
	return toks
}

func generalConnector(text string, i, size int) bool {
	if size != 1 {
		return false
	}
	b := text[i]
	if b != '\'' && b != '-' && b != '.' && b != ':' {
		return false
	}
	if i == 0 || i+1 >= len(text) {
		return false
	}
	prev, _ := utf8.DecodeLastRuneInString(text[:i])
	next, _ := utf8.DecodeRuneInString(text[i+1:])
	return (unicode.IsLetter(prev) || unicode.IsDigit(prev)) &&
		(unicode.IsLetter(next) || unicode.IsDigit(next))
}

// SplitSentencesTokens segments a pre-tokenized stream into sentences,
// using the same boundary rules as SplitSentences. Each sentence's Tokens
// is a sub-slice of toks capped at the sentence's end: tagging or editing
// a sentence's tokens writes through to toks, and appending to them
// copies.
func (p *Pipeline) SplitSentencesTokens(toks []Token) []Sentence {
	var sents []Sentence
	begin := 0
	flush := func(endTok int, endOff int) {
		if endTok > begin {
			span := toks[begin:endTok:endTok]
			sents = append(sents, Sentence{
				Tokens: span,
				Start:  span[0].Start,
				End:    endOff,
			})
		}
		begin = endTok
	}
	for i, t := range toks {
		if t.Text == "." || t.Text == "!" || t.Text == "?" || t.Text == ";" {
			if i+1 >= len(toks) || startsClause(toks[i+1].Text) {
				flush(i+1, t.End)
			}
		}
	}
	flush(len(toks), textEnd(toks))
	return sents
}

// ProcessTokens tags, lemmatizes, and parses a pre-tokenized text. The
// trees' Tokens alias toks, sentence by sentence.
func (p *Pipeline) ProcessTokens(toks []Token) []*DepTree {
	sents := p.SplitSentencesTokens(toks)
	trees := make([]*DepTree, 0, len(sents))
	for _, s := range sents {
		p.TagTokens(s.Tokens)
		for i := range s.Tokens {
			s.Tokens[i].Lemma = Lemma(s.Tokens[i].Text, s.Tokens[i].POS)
		}
		trees = append(trees, ParseDependencies(s.Tokens))
	}
	return trees
}
