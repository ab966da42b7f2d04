package jobs

import (
	"testing"

	"github.com/sljmotion/sljmotion/internal/core"
	"github.com/sljmotion/sljmotion/internal/synth"
)

// TestRequestKeyPinned pins the content address of two fixed synthetic
// requests under the slj-analysis-response/v3 tag, which names the frames
// by their frames/v1 artifact hash. RequestKey is the result-cache key and
// the dispatch ring's placement key, so a change to how it hashes pixels,
// poses or options must be deliberate: an unintended change silently
// orphans every cached result and moves every clip to a different node.
// The config fingerprint is a literal so the pin does not move with the
// analyzer's defaults.
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
		}, "fb05e469fdeb89c9824f443b133ba917d193e4a31a694cec538777bc1317e49c"},
		{"full", core.Request{
			Frames: v.Frames, ManualFirst: manual, IncludePoses: true, IncludeSilhouettes: true,
		}, "f1491a47f81af72fb7c47384496e3e9024ad32f55430860755e0dcf8859eaa10"},
	}
	for _, tc := range cases {
		if got := RequestKey("slj-key-pin", tc.req).String(); got != tc.want {
			t.Errorf("%s: RequestKey = %s, want %s", tc.name, got, tc.want)
		}
	}
}
