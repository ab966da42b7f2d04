package shadow

import (
	"math"
	"testing"

	"github.com/sljmotion/sljmotion/internal/hsv"
	"github.com/sljmotion/sljmotion/internal/imaging"
)

func TestParamsValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
	bad := []Params{
		{Alpha: 0.9, Beta: 0.5, TauS: 0.1, TauH: 60},  // alpha >= beta
		{Alpha: -1, Beta: 0.9, TauS: 0.1, TauH: 60},   // negative alpha
		{Alpha: 0.4, Beta: 0.9, TauS: 1.5, TauH: 60},  // tauS out of range
		{Alpha: 0.4, Beta: 0.9, TauS: 0.1, TauH: 200}, // tauH out of range
		{Alpha: 0.4, Beta: 2.0, TauS: 0.1, TauH: 60},  // beta too large
		{Alpha: 0.4, Beta: 0.9, TauS: math.NaN(), TauH: 60},
		{Alpha: 0.4, Beta: 0.9, TauS: 0.1, TauH: math.NaN()},
		{Alpha: math.NaN(), Beta: 0.9, TauS: 0.1, TauH: 60},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("params %d should be invalid: %+v", i, p)
		}
	}
}

func TestNewDetectorRejectsBadParams(t *testing.T) {
	if _, err := NewDetector(Params{Alpha: 1, Beta: 0.5}); err == nil {
		t.Fatal("expected error")
	}
}

func TestIsShadowConditions(t *testing.T) {
	det, err := NewDetector(Params{Alpha: 0.4, Beta: 0.9, TauS: 0.15, TauH: 60})
	if err != nil {
		t.Fatal(err)
	}
	bg := hsv.HSV{H: 30, S: 0.4, V: 0.8}
	tests := []struct {
		name string
		f    hsv.HSV
		want bool
	}{
		{"genuine shadow", hsv.HSV{H: 32, S: 0.42, V: 0.48}, true}, // ratio 0.6
		{"value barely changed", hsv.HSV{H: 30, S: 0.4, V: 0.78}, false},
		{"too dark (object)", hsv.HSV{H: 30, S: 0.4, V: 0.2}, false},
		{"saturation jumped", hsv.HSV{H: 30, S: 0.7, V: 0.5}, false},
		{"hue far off", hsv.HSV{H: 150, S: 0.4, V: 0.5}, false},
		{"saturation dropped ok", hsv.HSV{H: 30, S: 0.1, V: 0.5}, true},
		{"brighter than background", hsv.HSV{H: 30, S: 0.4, V: 0.95}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := det.IsShadow(tt.f, bg); got != tt.want {
				t.Errorf("IsShadow(%+v) = %v, want %v", tt.f, got, tt.want)
			}
		})
	}
}

func TestIsShadowBlackBackground(t *testing.T) {
	det, err := NewDetector(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if det.IsShadow(hsv.HSV{V: 0.1}, hsv.HSV{V: 0}) {
		t.Error("black background must never classify as shadow")
	}
}

// buildShadowScene creates a background, a frame where region A is a
// photometric shadow (uniform darkening) and region B is a genuine object
// (different colour), plus the foreground mask covering both.
func buildShadowScene() (frame, bg *imaging.Image, fg *imaging.Mask, shadowRect, objRect imaging.Rect) {
	bg = imaging.NewImageFilled(40, 30, imaging.Color{R: 180, G: 150, B: 110})
	frame = bg.Clone()
	shadowRect = imaging.Rect{X0: 4, Y0: 4, X1: 14, Y1: 14}
	objRect = imaging.Rect{X0: 20, Y0: 4, X1: 30, Y1: 14}
	for y := shadowRect.Y0; y <= shadowRect.Y1; y++ {
		for x := shadowRect.X0; x <= shadowRect.X1; x++ {
			frame.Set(x, y, frame.At(x, y).Scale(0.6))
		}
	}
	imaging.FillRect(frame, objRect, imaging.Color{R: 40, G: 60, B: 140})
	fg = imaging.NewMask(40, 30)
	imaging.FillRectMask(fg, shadowRect)
	imaging.FillRectMask(fg, objRect)
	return frame, bg, fg, shadowRect, objRect
}

func TestMaskSeparatesShadowFromObject(t *testing.T) {
	frame, bg, fg, shadowRect, objRect := buildShadowScene()
	det, err := NewDetector(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	sm, err := det.Mask(frame, bg, fg)
	if err != nil {
		t.Fatal(err)
	}
	for y := shadowRect.Y0; y <= shadowRect.Y1; y++ {
		for x := shadowRect.X0; x <= shadowRect.X1; x++ {
			if !sm.At(x, y) {
				t.Fatalf("shadow pixel (%d,%d) not detected", x, y)
			}
		}
	}
	for y := objRect.Y0; y <= objRect.Y1; y++ {
		for x := objRect.X0; x <= objRect.X1; x++ {
			if sm.At(x, y) {
				t.Fatalf("object pixel (%d,%d) misclassified as shadow", x, y)
			}
		}
	}
}

func TestMaskIgnoresBackgroundPixels(t *testing.T) {
	frame, bg, _, _, _ := buildShadowScene()
	det, err := NewDetector(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	sm, err := det.Mask(frame, bg, imaging.NewMask(40, 30))
	if err != nil {
		t.Fatal(err)
	}
	if !sm.Empty() {
		t.Error("empty foreground must yield empty shadow mask")
	}
}

func TestRemove(t *testing.T) {
	frame, bg, fg, _, objRect := buildShadowScene()
	det, err := NewDetector(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	object, sm, err := det.Remove(frame, bg, fg)
	if err != nil {
		t.Fatal(err)
	}
	wantObj := objRect.Area()
	if object.Count() != wantObj {
		t.Errorf("object pixels = %d, want %d", object.Count(), wantObj)
	}
	if sm.Count() == 0 {
		t.Error("no shadow detected")
	}
	// object ∪ shadow == original foreground; object ∩ shadow == ∅.
	for i := range fg.Bits {
		if object.Bits[i] && sm.Bits[i] {
			t.Fatal("object and shadow overlap")
		}
		if fg.Bits[i] != (object.Bits[i] || sm.Bits[i]) {
			t.Fatal("object ∪ shadow != foreground")
		}
	}
}

func TestMaskSizeMismatch(t *testing.T) {
	det, err := NewDetector(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	frame := imaging.NewImage(4, 4)
	bg := imaging.NewImage(5, 5)
	fg := imaging.NewMask(4, 4)
	if _, err := det.Mask(frame, bg, fg); err == nil {
		t.Error("expected size mismatch error")
	}
}

func TestParamsAccessor(t *testing.T) {
	p := DefaultParams()
	det, err := NewDetector(p)
	if err != nil {
		t.Fatal(err)
	}
	if det.Params() != p {
		t.Error("Params accessor lost values")
	}
}
