package shadow

import (
	"math"
	"testing"

	"github.com/sljmotion/sljmotion/internal/hsv"
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
