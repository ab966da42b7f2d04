package jobs

import (
	"testing"

	"github.com/sljmotion/sljmotion/internal/core"
	"github.com/sljmotion/sljmotion/internal/synth"
)

// TestRequestKeyPinned pins the content address of two fixed synthetic
// requests. RequestKey is the result-cache key and the dispatch ring's
// placement key, so a change to how it hashes pixels, poses or options
// must be deliberate: an unintended change silently orphans every cached
// result and moves every clip to a different node. The config fingerprint
// is a literal so the pin does not move with the analyzer's defaults.
func TestRequestKeyPinned(t *testing.T) {
	params := synth.DefaultJumpParams()
	params.Frames = 4
	v, err := synth.Generate(params)
	if err != nil {
		t.Fatal(err)
	}
	manual := v.ManualAnnotation(synth.DefaultAnnotationError(), 1)
	cases := []struct {
		name string
		req  core.Request
		want string
	}{
		{"segmentation", core.Request{
			Frames: v.Frames, ManualFirst: manual, IncludeSilhouettes: true,
			Stages: core.OnlyStage(core.StageSegmentation),
		}, "c5a78f5e034a4a10f6ee5196c278ca84b6e1a250d4219763c9128c4c29930baf"},
		{"full", core.Request{
			Frames: v.Frames, ManualFirst: manual, IncludePoses: true, IncludeSilhouettes: true,
		}, "6643e0c76e7eb103a2898fb04cb35e92a147e8a67d5dd889377b9d2ccef774ee"},
	}
	for _, tc := range cases {
		if got := RequestKey("slj-key-pin", tc.req).String(); got != tc.want {
			t.Errorf("%s: RequestKey = %s, want %s", tc.name, got, tc.want)
		}
	}
}
