package extract

import (
	"slices"

	"threatraptor/internal/nlp"
)

// relation is one IOC relation found in a tree, as token indexes: the
// subject and object IOC tokens and the relation verb.
type relation struct{ subj, obj, verb int }

// extractRelations implements Step 9 of Algorithm 1: for every pair of IOC
// nodes in a dependency tree, check whether their dependency paths satisfy
// a subject-object relation (three path parts: root→LCA, LCA→each node),
// then pick the annotated candidate verb closest to the object node as the
// relation verb. It appends the tree's triplets to out.
func (doc *document) extractRelations(out []Triplet, at *annTree) []Triplet {
	d := at.tree
	for a := range at.ann {
		if !at.isIOC(a) {
			continue
		}
		for b := a + 1; b < len(at.ann); b++ {
			if !at.isIOC(b) {
				continue
			}
			if r, ok := relate(at, a, b); ok {
				out = append(out, Triplet{
					Subj:       doc.iocAt(at, r.subj),
					Verb:       d.Tokens[r.verb].Lemma,
					Obj:        doc.iocAt(at, r.obj),
					VerbOffset: d.Tokens[r.verb].Start,
				})
			}
		}
	}
	return out
}

// chain walks from x up to (excluding) stop, appending the node indexes
// to buf in bottom-up order. The relation label of node chain[k] is
// d.Rel[chain[k]].
func chain(buf []int, d *nlp.DepTree, x, stop int) []int {
	nodes := buf[:0]
	for x != stop && x >= 0 && len(nodes) <= len(d.Tokens) {
		nodes = append(nodes, x)
		x = d.Head[x]
	}
	return nodes
}

func hasRel(d *nlp.DepTree, nodes []int, rels ...string) bool {
	for _, n := range nodes {
		for _, r := range rels {
			if d.Rel[n] == r {
				return true
			}
		}
	}
	return false
}

// topRel returns the relation of the chain's topmost node (the arc into
// the LCA).
func topRel(d *nlp.DepTree, nodes []int) string {
	if len(nodes) == 0 {
		return ""
	}
	return d.Rel[nodes[len(nodes)-1]]
}

// relate decides whether IOC tokens a < b form a relation and with which
// direction and verb.
func relate(at *annTree, a, b int) (relation, bool) {
	d := at.tree
	lca := d.LCA(a, b)
	if lca < 0 {
		return relation{}, false
	}

	// Ancestor cases: the nominal that dominates the clause is the
	// behavioral subject ("the process /usr/bin/gpg reading from X").
	if lca == a {
		return ancestorRelate(at, a, b)
	}
	if lca == b {
		return ancestorRelate(at, b, a)
	}

	var bufA, bufB [16]int // deeper chains spill to the heap
	chA := chain(bufA[:], d, a, lca)
	chB := chain(bufB[:], d, b, lca)

	subjA := isSubjectChain(at, lca, chA)
	subjB := isSubjectChain(at, lca, chB)
	objA := hasRel(d, chA, nlp.RelDobj, nlp.RelPobj)
	objB := hasRel(d, chB, nlp.RelDobj, nlp.RelPobj)

	switch {
	case subjA && subjB:
		return relation{}, false // two clause subjects: no relation
	case subjA && objB:
		if !subjectAttachmentOK(d, lca, chA, chB) {
			return relation{}, false
		}
		return chooseVerb(at, a, b, lca, chB)
	case subjB && objA:
		if !subjectAttachmentOK(d, lca, chB, chA) {
			return relation{}, false
		}
		return chooseVerb(at, b, a, lca, chA)
	case objA && objB:
		// "downloaded /tmp/x from 1.2.3.4": when both IOCs hang off the
		// same verb, the direct object is the flow subject and the
		// preposition object the flow object — the construction behind the
		// paper's Filepath→IP "download" edges. The prep must attach
		// directly to the LCA verb, and the clause must not already have
		// an explicit IOC actor (which the subject-pair rules cover).
		if hasIOCActor(at, lca) {
			return relation{}, false
		}
		if topRel(d, chA) == nlp.RelDobj && directPrepObject(d, chB, lca) {
			return chooseVerb(at, a, b, lca, chB)
		}
		if topRel(d, chB) == nlp.RelDobj && directPrepObject(d, chA, lca) {
			return chooseVerb(at, b, a, lca, chA)
		}
		return relation{}, false
	default:
		return relation{}, false
	}
}

// directPrepObject reports whether the chain is exactly [pobj, prep] with
// the preposition attached to the LCA.
func directPrepObject(d *nlp.DepTree, ch []int, lca int) bool {
	return len(ch) == 2 &&
		d.Rel[ch[0]] == nlp.RelPobj &&
		d.Rel[ch[1]] == nlp.RelPrep &&
		d.Head[ch[1]] == lca
}

// hasIOCActor reports whether the clause of verb v already names an IOC
// actor: an IOC nominal subject of v, or an IOC tool object of an
// instrumental verb governing v.
func hasIOCActor(at *annTree, v int) bool {
	d := at.tree
	for c := range d.Children(v) {
		if d.Rel[c] == nlp.RelNsubj && at.isIOC(c) {
			return true
		}
	}
	if h := d.Head[v]; at.isInstrumental(h) {
		for c := range d.Children(h) {
			if (d.Rel[c] == nlp.RelDobj || d.Rel[c] == nlp.RelDep) && at.isIOC(c) {
				return true
			}
		}
	}
	return false
}

// subjectAttachmentOK verifies that the subject's governing verb is the
// LCA itself or lies on the object's chain. Otherwise the subject belongs
// to a sibling clause ("A read X and B wrote Y": B is the subject of
// "wrote" only, so pairing B with X must fail).
func subjectAttachmentOK(d *nlp.DepTree, lca int, subjChain, objChain []int) bool {
	for _, n := range subjChain {
		if d.Rel[n] != nlp.RelNsubj {
			continue
		}
		h := d.Head[n]
		if h == lca {
			return true
		}
		for _, m := range objChain {
			if m == h {
				return true
			}
		}
		return false
	}
	return true // instrumental subject: the tool arc attaches at the LCA
}

// isSubjectChain reports whether the chain marks its IOC as the behavioral
// subject: a nominal subject arc anywhere on the chain, or the direct
// object of an instrumental verb ("used /bin/tar to ..." — the tool acts).
func isSubjectChain(at *annTree, lca int, ch []int) bool {
	d := at.tree
	if hasRel(d, ch, nlp.RelNsubj) {
		return true
	}
	top := topRel(d, ch)
	if (top == nlp.RelDobj || top == nlp.RelDep) && at.isInstrumental(lca) {
		return true
	}
	// Tool object of an instrumental verb below the LCA:
	// "... by using /usr/bin/curl to connect ...".
	for k, n := range ch {
		if k == len(ch)-1 {
			break
		}
		if (d.Rel[n] == nlp.RelDobj || d.Rel[n] == nlp.RelDep) && at.isInstrumental(d.Head[n]) {
			return true
		}
	}
	return false
}

// ancestorRelate handles the case where subj dominates obj in the tree.
// The connecting chain must pass through a candidate relation verb and an
// object-like arc.
func ancestorRelate(at *annTree, subj, obj int) (relation, bool) {
	d := at.tree
	var buf [16]int
	ch := chain(buf[:], d, obj, subj)
	if !hasRel(d, ch, nlp.RelDobj, nlp.RelPobj) || !slices.ContainsFunc(ch, at.isRelationVerb) {
		return relation{}, false
	}
	return chooseVerb(at, subj, obj, subj, ch)
}

// chooseVerb selects the relation verb of subj and obj. objChain is the
// object-side chain (bottom-up). The verb is the candidate closest to the
// object: the deepest verb on the object chain, then the LCA itself, then
// any verb above the LCA on the path to the root.
func chooseVerb(at *annTree, subj, obj, lca int, objChain []int) (relation, bool) {
	d := at.tree

	// Reject if a verb on the object chain has its own explicit nominal
	// subject different from subj: that verb's clause belongs to another
	// actor ("A read X and B wrote Y" must not yield (A, write, Y)).
	for _, n := range objChain {
		if at.ann[n].verb == notCandidate {
			continue
		}
		for c := range d.Children(n) {
			if d.Rel[c] == nlp.RelNsubj && c != subj && (at.isIOC(c) || d.Tokens[c].POS.IsNounLike()) {
				return relation{}, false
			}
		}
	}

	verb := -1
	for _, n := range objChain { // bottom-up: first hit is closest to obj
		if at.isRelationVerb(n) {
			verb = n
			break
		}
	}
	if verb < 0 && at.isRelationVerb(lca) {
		verb = lca
	}
	if verb < 0 {
		// Root→LCA part: scan upward from the LCA.
		for n := range d.PathToRoot(lca) {
			if at.isRelationVerb(n) {
				verb = n
				break
			}
		}
	}
	if verb < 0 {
		return relation{}, false
	}
	return relation{subj: subj, obj: obj, verb: verb}, true
}
