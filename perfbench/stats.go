package main

import (
	"math"
	"sort"
)

// Exact order statistics over raw samples. Nothing here buckets: a
// percentile is always one of the measured values.

// minBeyond is how many samples must lie above a percentile's rank before
// a report may name that percentile.
const minBeyond = 10

// tailQ is the tail percentile printed beside each median latency, part by
// part. It is printed rather than reported as a metric: on a
// two-processor host shared with other virtual machines, the tail of
// millisecond requests moves with the host's stolen time from run to run
// by more than any bound a regression check could allow.
const tailQ = 0.95

// tailLevels are the percentiles a report may name, highest first.
var tailLevels = []float64{0.999, 0.99, 0.95, 0.9, 0.5}

// rank is the 1-based nearest rank of the q-quantile among n samples: the
// smallest k with k >= q*n. The epsilon absorbs binary rounding of q*n
// (0.99*1000 must be rank 990, not 991).
func rank(n int, q float64) int {
	k := int(math.Ceil(q*float64(n) - 1e-9))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// quantile returns the nearest-rank q-quantile of sorted samples, or NaN
// for an empty sample.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rank(len(sorted), q)-1]
}

// beyond reports how many of n samples lie above the q-quantile's rank.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, q)
}

// supportedTail returns the highest level of tailLevels that leaves at
// least minBeyond samples above it, or 0 when even the median does not.
func supportedTail(n int) float64 {
	for _, q := range tailLevels {
		if beyond(n, q) >= minBeyond {
			return q
		}
	}
	return 0
}

// sortedCopy returns xs sorted ascending without touching xs.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median of xs (nearest rank), NaN when empty.
func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// mean of xs, 0 when empty.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
