package main

import "testing"

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // unsorted on purpose: 100, 99, ..., 1
	}
	v, pct, beyond, ok := tail(xs)
	if !ok || v != 90 || pct != 90 || beyond != 10 {
		t.Fatalf("tail of 1..100 = %v at p%v with %d beyond (ok=%v), want 90 at p90 with 10", v, pct, beyond, ok)
	}

	xs = []float64{5, 1, 9, 3, 7, 2, 8, 4, 6, 10, 11}
	v, pct, beyond, ok = tail(xs)
	if !ok || v != 1 || beyond != 10 || pct != 100.0/11 {
		t.Fatalf("tail of 11 samples = %v at p%v with %d beyond, want the minimum with 10 beyond", v, pct, beyond)
	}

	if _, _, _, ok := tail(xs[:10]); ok {
		t.Fatal("10 samples leave no percentile with 10 beyond it; want ok=false")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Fatalf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Fatalf("median even = %v", got)
	}
}
