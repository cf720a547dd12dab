package main

import (
	"math"
	"sort"
)

// Quantile returns the nearest-rank q-quantile of ascending-sorted
// samples: the ⌈q·n⌉-th smallest value (rank clamped to [1, n]). It is
// the one percentile rule of the benchmark — every latency quantile it
// reports comes from raw client samples through this function, never
// from bucketed histograms. Empty input yields NaN.
func Quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// Median is Quantile(·, 0.5) over an unsorted slice (the input is not
// modified).
func Median(samples []float64) float64 {
	return Quantile(sortedCopy(samples), 0.5)
}

func sortedCopy(samples []float64) []float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s
}

// Dist summarizes a latency sample: n, the three reported quantiles, and
// for each quantile how many samples lie strictly beyond it — so a
// reader can tell a p99 backed by ten tail samples from one that is the
// single slowest request.
type Dist struct {
	N        int     `json:"n"`
	P50      float64 `json:"p50"`
	P90      float64 `json:"p90"`
	P99      float64 `json:"p99"`
	Beyond50 int     `json:"beyond_p50"`
	Beyond90 int     `json:"beyond_p90"`
	Beyond99 int     `json:"beyond_p99"`
}

// Summarize computes a Dist. Failed operations enter as +Inf samples, so
// they count as slower than any limit.
func Summarize(samples []float64) Dist {
	s := sortedCopy(samples)
	d := Dist{N: len(s), P50: Quantile(s, 0.5), P90: Quantile(s, 0.9), P99: Quantile(s, 0.99)}
	d.Beyond50 = countAbove(s, d.P50)
	d.Beyond90 = countAbove(s, d.P90)
	d.Beyond99 = countAbove(s, d.P99)
	return d
}

// countAbove counts ascending-sorted samples strictly greater than v.
func countAbove(sorted []float64, v float64) int {
	return len(sorted) - sort.Search(len(sorted), func(i int) bool { return sorted[i] > v })
}
