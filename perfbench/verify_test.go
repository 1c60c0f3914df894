package main

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
)

var errTest = errors.New("test failure")

func ref(codes ...string) []core.ScoredCode {
	out := make([]core.ScoredCode, len(codes))
	for i, c := range codes {
		out[i] = core.ScoredCode{Code: c, Score: 1 / float64(i+3)}
	}
	return out
}

func served(list []core.ScoredCode) []suggestion {
	out := make([]suggestion, len(list))
	for i, sc := range list {
		out[i] = suggestion{Rank: i + 1, Code: sc.Code, Score: sc.Score}
	}
	return out
}

func TestCheckRanking(t *testing.T) {
	want := ref("a", "b", "c", "d")
	if err := checkRanking(served(want), want, 10); err != nil {
		t.Errorf("identical ranking rejected: %v", err)
	}
	if err := checkRanking(served(want[:2]), want, 2); err != nil {
		t.Errorf("ranking cut to the limit rejected: %v", err)
	}
	if err := checkRanking(served(want[:3]), want, 10); err == nil {
		t.Error("ranking missing a code accepted")
	}
	swapped := served(want)
	swapped[1].Code, swapped[2].Code = swapped[2].Code, swapped[1].Code
	if err := checkRanking(swapped, want, 10); err == nil {
		t.Error("reordered codes accepted")
	}
	off := served(want)
	off[3].Score = math.Nextafter(off[3].Score, 1)
	if err := checkRanking(off, want, 10); err == nil {
		t.Error("score one ulp off accepted")
	}
	badRank := served(want)
	badRank[0].Rank = 2
	if err := checkRanking(badRank, want, 10); err == nil {
		t.Error("wrong rank accepted")
	}
}

func TestCheckList(t *testing.T) {
	want := ref("x", "y")
	if err := checkList(ref("x", "y"), want); err != nil {
		t.Errorf("identical list rejected: %v", err)
	}
	if err := checkList(ref("y", "x"), want); err == nil {
		t.Error("swapped list accepted")
	}
	if err := checkList(ref("x"), want); err == nil {
		t.Error("short list accepted")
	}
}

func TestAccuracy(t *testing.T) {
	var a accuracy
	long := ref("c0", "c1", "c2", "c3", "c4", "c5", "c6", "c7", "c8", "c9", "c10")
	a.add(long, "c0")  // rank 1
	a.add(long, "c9")  // rank 10
	a.add(long, "c10") // rank 11
	a.add(long, "zz")  // absent
	if a.at1() != 0.25 || a.at10() != 0.5 {
		t.Errorf("acc@1 %v acc@10 %v, want 0.25 and 0.5", a.at1(), a.at10())
	}
}

// verify fails exactly the answers that differ from the reference, and
// counts transport errors without looking at their answers.
func TestVerifyCountsMismatches(t *testing.T) {
	pool := []query{{ref: "R1", part: "P", features: []string{"f"}}, {ref: "R2", part: "P", features: []string{"g"}}}
	refs := map[refKey][]core.ScoredCode{
		{q: 0}:                ref("a", "b"),
		{q: 1}:                ref("c"),
		{q: 0, scatter: true}: ref("z"),
	}
	ph := &phase{
		plan: []planned{
			{kind: kindRecommend, q: 0},
			{kind: kindRecommend, q: 1},
			{kind: kindRecommend, q: 0, scatter: true},
			{kind: kindRecommend, q: 1},
			{kind: kindAssign, ref: "R2", code: "c"},
			{kind: kindRecommend, q: 0},
		},
		samples: []sample{{sent: true}, {sent: true}, {sent: true}, {sent: true, err: errTest}, {sent: true}, {}},
		answers: []answer{
			{codes: served(ref("a", "b"))},
			{codes: served(ref("a"))}, // wrong code
			{codes: served(ref("z"))},
			{},
			{refNo: "R2", errCode: "c"},
			{},
		},
	}
	var tl tally
	verify(&tl, []*phase{ph}, refs, pool, pool)
	if tl.attempted != 5 || tl.failed != 2 {
		t.Errorf("attempted %d failed %d, want 5 and 2 (the unsent request counts nowhere)", tl.attempted, tl.failed)
	}
}

func TestQueryVariants(t *testing.T) {
	q := query{features: []string{"a", "b", "c"}}
	seen := map[string]bool{}
	for d := 0; d <= 3; d++ {
		v := q.variant(d)
		key := fmt.Sprint(v)
		if seen[key] {
			t.Errorf("variant %d %v repeats an earlier one", d, v)
		}
		seen[key] = true
		if d > 0 && len(v) != 2 {
			t.Errorf("variant %d %v: want one feature left out", d, v)
		}
	}
	if len(q.features) != 3 || q.features[0] != "a" {
		t.Errorf("variants changed the query itself: %v", q.features)
	}
	one := query{features: []string{"x"}}
	if v := one.variant(2); len(v) != 1 {
		t.Errorf("one-feature query lost its feature: %v", v)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []spanRec{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "kid", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "kid", Start: 30, End: 60},  // overlaps the first
		{ID: 4, Parent: 1, Name: "kid", Start: 90, End: 120}, // runs past the parent
	}
	st := selfTimes(spans)
	if got := st["root"].self; got != 40 {
		t.Errorf("root self time %d, want 40 (100 minus the union 10-60 and 90-100)", got)
	}
	if got := st["kid"]; got.count != 3 || got.self != 90 {
		t.Errorf("kid aggregate %+v, want 3 spans and 90 self", got)
	}
}
