package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// perfDocAt builds a perf document with one segmentation row, one
// end-to-end row and an observability section at the given figures.
func perfDocAt(fast bool, segFPS, e2eFPS, overheadPct float64) perfDoc {
	return perfDoc{
		Schema:       "slj-bench-perf/v1",
		Fast:         fast,
		Segmentation: []perfSample{{Workers: 1, FramesPerSec: segFPS}},
		EndToEnd:     []perfE2E{{Parallelism: 1, FramesPerSec: e2eFPS}},
		Observability: &perfObservability{
			OnJobsPerSec: 100, OffJobsPerSec: 100, OverheadPct: overheadPct,
		},
	}
}

func TestCompareBaseline(t *testing.T) {
	base := perfDocAt(false, 100, 20, 0)
	raw, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_pipeline.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name    string
		doc     perfDoc
		wantErr bool
	}{
		{"unchanged", perfDocAt(false, 100, 20, 0), false},
		{"segmentation 29% worse", perfDocAt(false, 71, 20, 0), false},
		{"segmentation 31% worse", perfDocAt(false, 69, 20, 0), true},
		{"end_to_end 29% worse", perfDocAt(false, 100, 14.2, 0), false},
		{"end_to_end 31% worse", perfDocAt(false, 100, 13.8, 0), true},
		// A fast run never compares its end-to-end rows against a
		// full-budget baseline, so even a 90% drop there is not a row.
		{"fast run skips end_to_end", perfDocAt(true, 100, 2, 0), false},
		{"fast run still gates segmentation", perfDocAt(true, 69, 20, 0), true},
		{"observability overhead 4%", perfDocAt(false, 100, 20, 4), false},
		{"observability overhead 6% fails the guard", perfDocAt(false, 100, 20, 6), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := compareBaseline(tc.doc, path, 30)
			if (err != nil) != tc.wantErr {
				t.Fatalf("compareBaseline err = %v, want error %v", err, tc.wantErr)
			}
		})
	}
}
