package main

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/kb"
)

// randomKB builds a knowledge base with many score ties: few parts, codes
// and features, so the tie-breaks decide most ranks.
func randomKB(rng *rand.Rand, bundles int) *kb.Memory {
	mem := kb.NewMemory()
	for i := 0; i < bundles; i++ {
		mem.AddBundle(fmt.Sprintf("P%d", rng.Intn(4)), fmt.Sprintf("E%d", rng.Intn(12)), randomFeatures(rng))
	}
	return mem
}

// randomFeatures draws a sorted, duplicate-free feature set.
func randomFeatures(rng *rand.Rand) []string {
	set := map[string]bool{}
	for j := rng.Intn(6); j >= 0; j-- {
		set[fmt.Sprintf("f%d", rng.Intn(15))] = true
	}
	var out []string
	for f := range set {
		out = append(out, f)
	}
	sort.Strings(out)
	return out
}

func TestRefRankerMatchesClassifier(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	mem := randomKB(rng, 400)
	rr := newRefRanker(mem)
	clf := core.New(mem, core.Jaccard{})
	for i := 0; i < 300; i++ {
		part := fmt.Sprintf("P%d", rng.Intn(5)) // P4 is unknown: every node
		q := randomFeatures(rng)
		if i%7 == 0 && len(q) > 0 {
			q = append(q, q[0]) // a repeated feature counts in the query size
		}
		if err := checkList(rr.rank(part, q), clf.Recommend(part, q)); err != nil {
			t.Fatalf("query %d (%s %v): %v", i, part, q, err)
		}
	}
}

// pruned drops the last candidate of every known-part query, as a lossy
// candidate step would.
type pruned struct{ kb.Store }

func (p pruned) Candidates(part string, features []string) []*kb.Node {
	c := p.Store.Candidates(part, features)
	if p.KnownPart(part) && len(c) > 0 {
		c = c[:len(c)-1]
	}
	return c
}

func TestRefRankerCatchesChangedCandidates(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	mem := randomKB(rng, 400)
	rr := newRefRanker(mem)
	clf := core.New(pruned{mem}, core.Jaccard{})
	caught := 0
	for i := 0; i < 100; i++ {
		part, q := fmt.Sprintf("P%d", rng.Intn(4)), randomFeatures(rng)
		if checkList(clf.Recommend(part, q), rr.rank(part, q)) != nil {
			caught++
		}
	}
	if caught == 0 {
		t.Error("a classifier over a lossy candidate step matched the reference on every query")
	}
}
