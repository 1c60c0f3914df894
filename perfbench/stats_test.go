package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestQuantileNearestRank(t *testing.T) {
	cases := []struct {
		n    int
		q    float64
		want float64
	}{
		{100, 0.5, 50},
		{100, 0.99, 99},
		{1000, 0.99, 990}, // 0.99*1000 must not round up to rank 991
		{1000, 0.999, 999},
		{7, 0.5, 4},
		{1, 0.99, 1},
		{10, 0, 1},
		{10, 1, 10},
	}
	for _, c := range cases {
		if got := quantile(seq(c.n), c.q); got != c.want {
			t.Errorf("quantile(1..%d, %v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of an empty sample is not NaN")
	}
}

func TestQuantileIsASample(t *testing.T) {
	xs := sortedCopy([]float64{3.25, 0.5, 7.125, 1.75, 9.5})
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
		got := quantile(xs, q)
		found := false
		for _, x := range xs {
			found = found || x == got
		}
		if !found {
			t.Errorf("quantile %v = %v is not one of the samples", q, got)
		}
	}
}

func TestSupportedTail(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{10000, 0.999},
		{9999, 0.99},
		{1000, 0.99},
		{999, 0.95},
		{200, 0.95},
		{199, 0.9},
		{20, 0.5},
		{19, 0},
		{0, 0},
	}
	for _, c := range cases {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = %v, want %v", c.n, got, c.want)
		}
		if q := supportedTail(c.n); q > 0 && beyond(c.n, q) < minBeyond {
			t.Errorf("supportedTail(%d) = %v leaves only %d beyond", c.n, q, beyond(c.n, q))
		}
	}
}

func TestSortedCopyLeavesInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	if got := median(xs); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
	if xs[0] != 3 || xs[1] != 1 {
		t.Errorf("input reordered: %v", xs)
	}
}
