package main

import (
	"math"
	"sort"
)

// tailMinBeyond is how many samples must lie beyond the reported tail
// percentile: fewer would make the "tail" one or two outliers.
const tailMinBeyond = 10

// median returns the median of xs (the mean of the middle two for an even
// count); NaN for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest percentile of xs that still has at least
// tailMinBeyond samples beyond it: the k-th smallest sample with
// k = n - tailMinBeyond, reported as the percentile 100·k/n. beyond is the
// number of samples above it. With too few samples for any such
// percentile, ok is false.
func tail(xs []float64) (value, pct float64, beyond int, ok bool) {
	n := len(xs)
	k := n - tailMinBeyond
	if k < 1 {
		return 0, 0, 0, false
	}
	s := sorted(xs)
	return s[k-1], 100 * float64(k) / float64(n), n - k, true
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
