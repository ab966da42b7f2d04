package hsv

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/sljmotion/sljmotion/internal/imaging"
)

func TestFromRGBKnownColors(t *testing.T) {
	tests := []struct {
		name string
		c    imaging.Color
		want HSV
	}{
		{"black", imaging.Color{R: 0, G: 0, B: 0}, HSV{0, 0, 0}},
		{"white", imaging.Color{R: 255, G: 255, B: 255}, HSV{0, 0, 1}},
		{"red", imaging.Color{R: 255, G: 0, B: 0}, HSV{0, 1, 1}},
		{"green", imaging.Color{R: 0, G: 255, B: 0}, HSV{120, 1, 1}},
		{"blue", imaging.Color{R: 0, G: 0, B: 255}, HSV{240, 1, 1}},
		{"yellow", imaging.Color{R: 255, G: 255, B: 0}, HSV{60, 1, 1}},
		{"cyan", imaging.Color{R: 0, G: 255, B: 255}, HSV{180, 1, 1}},
		{"magenta", imaging.Color{R: 255, G: 0, B: 255}, HSV{300, 1, 1}},
		{"gray", imaging.Color{R: 128, G: 128, B: 128}, HSV{0, 0, 128.0 / 255}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := FromRGB(tt.c)
			if math.Abs(got.H-tt.want.H) > 1e-9 ||
				math.Abs(got.S-tt.want.S) > 1e-9 ||
				math.Abs(got.V-tt.want.V) > 1e-9 {
				t.Errorf("FromRGB(%v) = %+v, want %+v", tt.c, got, tt.want)
			}
		})
	}
}

// Property: RGB → HSV → RGB round-trips exactly for every 8-bit colour we
// sample (conversion error stays under quantisation).
func TestRoundTripProperty(t *testing.T) {
	f := func(r, g, b uint8) bool {
		in := imaging.Color{R: r, G: g, B: b}
		out := FromRGB(in).ToRGB()
		return absInt(int(in.R)-int(out.R)) <= 1 &&
			absInt(int(in.G)-int(out.G)) <= 1 &&
			absInt(int(in.B)-int(out.B)) <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: hue distance is symmetric, bounded by 180, and zero for equal
// hues.
func TestHueDistProperties(t *testing.T) {
	f := func(h1, h2 float64) bool {
		h1 = math.Mod(math.Abs(h1), 360)
		h2 = math.Mod(math.Abs(h2), 360)
		d := HueDist(h1, h2)
		return d >= 0 && d <= 180 &&
			math.Abs(d-HueDist(h2, h1)) < 1e-9 &&
			HueDist(h1, h1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestHueDistWraparound(t *testing.T) {
	tests := []struct {
		h1, h2, want float64
	}{
		{10, 350, 20},
		{0, 180, 180},
		{0, 181, 179},
		{90, 90, 0},
		{359, 1, 2},
	}
	for _, tt := range tests {
		if got := HueDist(tt.h1, tt.h2); math.Abs(got-tt.want) > 1e-9 {
			t.Errorf("HueDist(%v,%v) = %v, want %v", tt.h1, tt.h2, got, tt.want)
		}
	}
}

func TestDistUsesHueOnly(t *testing.T) {
	a := HSV{H: 100, S: 0.2, V: 0.9}
	b := HSV{H: 140, S: 0.8, V: 0.1}
	if got := Dist(a, b); got != 40 {
		t.Errorf("Dist = %v, want 40", got)
	}
}

func TestToRGBClampsInputs(t *testing.T) {
	// Out-of-range S/V must clamp, negative hue must wrap.
	c := HSV{H: -90, S: 2, V: -0.5}.ToRGB()
	if c != (imaging.Color{R: 0, G: 0, B: 0}) {
		t.Errorf("negative V should be black, got %v", c)
	}
	c2 := HSV{H: 480, S: 0.5, V: 0.5}.ToRGB() // 480° ≡ 120° (green-dominant)
	if !(c2.G > c2.R && c2.G > c2.B) {
		t.Errorf("hue 480 should be green-dominant, got %v", c2)
	}
}

func TestPlaneFromImage(t *testing.T) {
	img := imaging.NewImageFilled(3, 2, imaging.Color{R: 255, G: 0, B: 0})
	p := PlaneFromImage(img)
	if p.W != 3 || p.H != 2 || len(p.Pix) != 6 {
		t.Fatalf("plane shape wrong: %dx%d/%d", p.W, p.H, len(p.Pix))
	}
	got := p.At(2, 1)
	if got.H != 0 || got.S != 1 || got.V != 1 {
		t.Errorf("At = %+v, want pure red", got)
	}
}

func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// fromRGBReference is FromRGB as first written: math.Max, math.Min and
// math.Mod on the divided channels. FromRGB must match it bit for bit.
func fromRGBReference(c imaging.Color) HSV {
	r := float64(c.R) / 255
	g := float64(c.G) / 255
	b := float64(c.B) / 255
	maxC := math.Max(r, math.Max(g, b))
	minC := math.Min(r, math.Min(g, b))
	delta := maxC - minC

	var h float64
	switch {
	case delta == 0:
		h = 0
	case maxC == r:
		h = 60 * math.Mod((g-b)/delta, 6)
	case maxC == g:
		h = 60 * ((b-r)/delta + 2)
	default:
		h = 60 * ((r-g)/delta + 4)
	}
	if h < 0 {
		h += 360
	}
	s := 0.0
	if maxC > 0 {
		s = delta / maxC
	}
	return HSV{H: h, S: s, V: maxC}
}

// TestFromRGBMatchesReferenceOnEveryColour checks all 2^24 colours.
func TestFromRGBMatchesReferenceOnEveryColour(t *testing.T) {
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for rgb := 0; rgb < 1<<24; rgb++ {
		c := imaging.Color{R: uint8(rgb >> 16), G: uint8(rgb >> 8), B: uint8(rgb)}
		got, want := FromRGB(c), fromRGBReference(c)
		if !same(got.H, want.H) || !same(got.S, want.S) || !same(got.V, want.V) {
			t.Fatalf("FromRGB(%v) = %+v, reference %+v", c, got, want)
		}
	}
}

// TestHueDistMatchesReference checks HueDist against the always-math.Mod
// formula on a grid of hues in and out of range, signed zeros, NaN and
// infinities, bit for bit (any NaN matches any NaN).
func TestHueDistMatchesReference(t *testing.T) {
	reference := func(h1, h2 float64) float64 {
		d := math.Abs(math.Mod(h1, 360) - math.Mod(h2, 360))
		if d > 180 {
			d = 360 - d
		}
		return d
	}
	grid := []float64{
		0, math.Copysign(0, -1), 5e-324, 0.5, 59.999, 90, 179.5, 180, 180.5, 270,
		math.Nextafter(360, 0), 360, 360.25, 539, 720, 1e6, 1e300,
		-0.5, -90, -180, -270, math.Nextafter(-360, 0), -360, -400, -720, -1e300,
		math.NaN(), math.Inf(1), math.Inf(-1),
	}
	for _, h1 := range grid {
		for _, h2 := range grid {
			got, want := HueDist(h1, h2), reference(h1, h2)
			if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
				t.Errorf("HueDist(%v, %v) = %v, reference %v", h1, h2, got, want)
			}
		}
	}
}
