package main

import (
	"cmp"
	"slices"

	"repro/internal/core"
	"repro/internal/kb"
)

// refCutoff is the paper's node cutoff (§4.3: "We retrieve the error codes
// of the 25 best-scored candidate nodes").
const refCutoff = 25

// refRanker is the ranking every answer is checked against: the paper's
// classifier (§4.3) restated without core.Classifier or the knowledge
// base's candidate step, over the nodes of a trained knowledge base. The
// candidates of a known part are its nodes sharing a feature with the
// query, those of an unknown part every node; each is scored by Jaccard
// similarity, ranked by score, then error code, then node ID, the 25 best
// are kept and each error code is listed once at its best node's score.
// It shares no code with the program's ranking, so a change that alters
// which codes or scores come back fails the check rather than passing it.
type refRanker struct {
	nodes  []*kb.Node
	byPart map[string]map[string][]int // part → feature → node indexes
	any    map[string][]int            // feature → node indexes, every part
}

func newRefRanker(store kb.Store) *refRanker {
	r := &refRanker{nodes: store.AllNodes(), byPart: map[string]map[string][]int{}, any: map[string][]int{}}
	for i, n := range r.nodes {
		idx := r.byPart[n.PartID]
		if idx == nil {
			idx = map[string][]int{}
			r.byPart[n.PartID] = idx
		}
		for _, f := range n.Features {
			idx[f] = append(idx[f], i)
			r.any[f] = append(r.any[f], i)
		}
	}
	return r
}

// jaccard is |A∩B| / |A∪B| from the intersection and the set sizes.
func jaccard(shared, a, b int) float64 {
	union := a + b - shared
	if union == 0 {
		return 0
	}
	return float64(shared) / float64(union)
}

// rank returns the reference ranking of a query.
func (r *refRanker) rank(part string, features []string) []core.ScoredCode {
	idx, known := r.byPart[part]
	if !known {
		idx = r.any
	}
	shared := map[int]int{}
	seen := map[string]bool{}
	for _, f := range features {
		if !seen[f] {
			seen[f] = true
			for _, i := range idx[f] {
				shared[i]++
			}
		}
	}
	type scored struct {
		n *kb.Node
		s float64
	}
	var cands []scored
	if known {
		for i, k := range shared {
			n := r.nodes[i]
			cands = append(cands, scored{n, jaccard(k, len(features), len(n.Features))})
		}
	} else {
		for i, n := range r.nodes {
			cands = append(cands, scored{n, jaccard(shared[i], len(features), len(n.Features))})
		}
	}
	slices.SortFunc(cands, func(a, b scored) int {
		if a.s != b.s {
			return cmp.Compare(b.s, a.s)
		}
		if c := cmp.Compare(a.n.ErrorCode, b.n.ErrorCode); c != 0 {
			return c
		}
		return cmp.Compare(a.n.ID, b.n.ID)
	})
	var out []core.ScoredCode
	listed := map[string]bool{}
	for _, c := range cands[:min(len(cands), refCutoff)] {
		if !listed[c.n.ErrorCode] {
			listed[c.n.ErrorCode] = true
			out = append(out, core.ScoredCode{Code: c.n.ErrorCode, Score: c.s})
		}
	}
	return out
}
