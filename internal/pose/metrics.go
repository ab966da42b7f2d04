package pose

import (
	"sync/atomic"

	"github.com/sljmotion/sljmotion/internal/ga"
)

// Process-wide GA memoization counters, aggregated across every GA run the
// process performs (all frames, all jobs). Surfaced
// as the "ga" section of /v1/metrics and as Prometheus counters.
var (
	gaMemoHits   atomic.Uint64
	gaMemoMisses atomic.Uint64
)

// GAStats is the process-wide GA acceleration telemetry.
type GAStats struct {
	// FitnessMemoHits counts fitness scores answered from the
	// cross-generation memo table instead of re-evaluating Eq. (3).
	FitnessMemoHits uint64 `json:"fitness_memo_hits"`
	// FitnessMemoMisses counts fitness scores actually evaluated.
	FitnessMemoMisses uint64 `json:"fitness_memo_misses"`
}

// GAMetrics snapshots the process-wide GA counters.
func GAMetrics() GAStats {
	return GAStats{
		FitnessMemoHits:   gaMemoHits.Load(),
		FitnessMemoMisses: gaMemoMisses.Load(),
	}
}

// ResetGAMetrics zeroes the process-wide GA counters. Tests that pin whole
// metric documents call this to decouple from analyses run earlier in the
// same process.
func ResetGAMetrics() {
	gaMemoHits.Store(0)
	gaMemoMisses.Store(0)
}

// recordMemoStats folds one GA run's memoization counters into the
// process-wide totals.
func recordMemoStats(res *ga.Result) {
	if res.MemoHits > 0 {
		gaMemoHits.Add(uint64(res.MemoHits))
	}
	if res.MemoMisses > 0 {
		gaMemoMisses.Add(uint64(res.MemoMisses))
	}
}
