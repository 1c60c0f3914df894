package main

import (
	"fmt"
	"math"

	"repro/internal/core"
)

// checkRanking compares a served ranking with the reference ranking cut to
// limit entries: the same length, ranks 1..n in order, the same codes and
// bit-identical scores. It returns nil on a match.
func checkRanking(got []suggestion, want []core.ScoredCode, limit int) error {
	if len(want) > limit {
		want = want[:limit]
	}
	if len(got) != len(want) {
		return fmt.Errorf("%d codes, reference has %d", len(got), len(want))
	}
	for i, g := range got {
		w := want[i]
		switch {
		case g.Rank != i+1:
			return fmt.Errorf("position %d carries rank %d", i+1, g.Rank)
		case g.Code != w.Code:
			return fmt.Errorf("rank %d: code %s, reference %s", i+1, g.Code, w.Code)
		case math.Float64bits(g.Score) != math.Float64bits(w.Score):
			return fmt.Errorf("rank %d (%s): score %v, reference %v", i+1, g.Code, g.Score, w.Score)
		}
	}
	return nil
}

// accuracy is Accuracy@1 and Accuracy@10: the share of bundles whose true
// error code is ranked first, or within the first ten.
type accuracy struct {
	n, hit1, hit10 int
}

// add scores one ranking against the bundle's true code.
func (a *accuracy) add(list []core.ScoredCode, code string) {
	a.n++
	r := core.Rank(list, code)
	if r == 1 {
		a.hit1++
	}
	if r >= 1 && r <= 10 {
		a.hit10++
	}
}

func (a accuracy) at1() float64  { return float64(a.hit1) / float64(max(a.n, 1)) }
func (a accuracy) at10() float64 { return float64(a.hit10) / float64(max(a.n, 1)) }
