package background_test

import (
	"testing"

	"github.com/sljmotion/sljmotion/internal/background"
	"github.com/sljmotion/sljmotion/internal/imaging"
	"github.com/sljmotion/sljmotion/internal/segmentation"
)

// TestSubtractThresholdBehaviour checks Step 2's threshold rule on the
// pipeline that runs it: a pixel is foreground when its max-channel change
// strictly exceeds the threshold, and a threshold ≤ 0 selects
// DefaultSubtractThreshold.
func TestSubtractThresholdBehaviour(t *testing.T) {
	bg := imaging.NewImageFilled(4, 4, imaging.Color{R: 100, G: 100, B: 100})
	change := func(d uint8) *imaging.Image {
		return imaging.NewImageFilled(4, 4, imaging.Color{R: 100 + d, G: 100, B: 100})
	}
	for _, tc := range []struct {
		name      string
		threshold int
		change    uint8
		want      int
	}{
		{"under the threshold", 25, 20, 0},
		{"over the threshold", 15, 20, 16},
		{"at the threshold", 20, 20, 0},
		{"zero selects the default, under it", 0, background.DefaultSubtractThreshold, 0},
		{"zero selects the default, over it", 0, background.DefaultSubtractThreshold + 1, 16},
		{"negative selects the default, under it", -5, background.DefaultSubtractThreshold, 0},
		{"negative selects the default, over it", -5, background.DefaultSubtractThreshold + 1, 16},
	} {
		cfg := segmentation.DefaultConfig()
		cfg.SubtractThreshold = tc.threshold
		p, err := segmentation.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		st, err := p.SegmentFrame(change(tc.change), bg)
		if err != nil {
			t.Fatal(err)
		}
		if got := st.Subtracted.Count(); got != tc.want {
			t.Errorf("%s: threshold %d, change %d: foreground = %d px, want %d",
				tc.name, tc.threshold, tc.change, got, tc.want)
		}
	}
}
