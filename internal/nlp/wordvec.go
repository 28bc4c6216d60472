package nlp

import (
	"hash/fnv"
	"math"
	"strings"
)

// Vectors produces deterministic word embeddings from hashed character
// n-grams (3- and 4-grams of the padded lowercase word). Words sharing
// many character n-grams — morphological variants, re-spellings, related
// file names — get high cosine similarity, which is the property the IOC
// scan-and-merge step relies on (Step 8 of Algorithm 1, where the paper
// uses spaCy's vectors).
type Vectors struct {
	dim int
}

// NewVectors returns a vector table of the given dimensionality.
func NewVectors(dim int) *Vectors {
	if dim <= 0 {
		dim = 64
	}
	return &Vectors{dim: dim}
}

// Vector returns the (L2-normalized) embedding of w. Nothing is cached:
// a vector costs well under a microsecond, and a cache keyed by every
// word ever compared would grow without bound.
func (v *Vectors) Vector(w string) []float32 {
	return v.compute(strings.ToLower(w))
}

func (v *Vectors) compute(lw string) []float32 {
	vec := make([]float32, v.dim)
	padded := "^" + lw + "$"
	addGram := func(g string) {
		h := fnv.New64a()
		h.Write([]byte(g))
		x := h.Sum64()
		idx := int(x % uint64(v.dim))
		sign := float32(1)
		if (x>>32)&1 == 1 {
			sign = -1
		}
		vec[idx] += sign
	}
	for n := 3; n <= 4; n++ {
		for i := 0; i+n <= len(padded); i++ {
			addGram(padded[i : i+n])
		}
	}
	// Whole-word gram anchors identical words at similarity 1 even when
	// short.
	addGram("word:" + lw)
	normalize(vec)
	return vec
}

func normalize(vec []float32) {
	var sum float64
	for _, x := range vec {
		sum += float64(x) * float64(x)
	}
	if sum == 0 {
		return
	}
	inv := float32(1 / math.Sqrt(sum))
	for i := range vec {
		vec[i] *= inv
	}
}

// Similarity returns the cosine similarity of the two words, in [-1, 1].
func (v *Vectors) Similarity(a, b string) float64 {
	va, vb := v.Vector(a), v.Vector(b)
	var dot float64
	for i := range va {
		dot += float64(va[i]) * float64(vb[i])
	}
	return dot
}
