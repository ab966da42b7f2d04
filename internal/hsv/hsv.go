// Package hsv implements the Hue-Saturation-Value colour space used by the
// paper's shadow detector (Section 2 Step 5, Eq. 1-2), including the angular
// hue distance DH of Eq. 2.
package hsv

import (
	"math"

	"github.com/sljmotion/sljmotion/internal/imaging"
)

// HSV is a colour in Hue-Saturation-Value space. H is in degrees [0,360);
// S and V are in [0,1].
type HSV struct {
	H, S, V float64
}

// FromRGB converts a 24-bit RGB colour to HSV.
func FromRGB(c imaging.Color) HSV {
	r := float64(c.R) / 255
	g := float64(c.G) / 255
	b := float64(c.B) / 255
	// Dividing by 255 keeps the channels' order and tells distinct bytes
	// apart, so the byte extremes pick the same channels math.Max and
	// math.Min would, and give the same values.
	hi, lo := max(c.R, c.G, c.B), min(c.R, c.G, c.B)
	maxC := float64(hi) / 255
	delta := maxC - float64(lo)/255

	var h float64
	switch {
	case hi == lo:
		h = 0
	case hi == c.R:
		// (g-b)/delta lies in [-1, 1], where math.Mod(x, 6) returns x.
		h = 60 * ((g - b) / delta)
	case hi == c.G:
		h = 60 * ((b-r)/delta + 2)
	default: // hi == c.B
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

// ToRGB converts back to 24-bit RGB. The conversion is the standard
// hexcone inverse; FromRGB(ToRGB(c)) round-trips within quantisation error.
func (c HSV) ToRGB() imaging.Color {
	h := math.Mod(c.H, 360)
	if h < 0 {
		h += 360
	}
	s := clamp01(c.S)
	v := clamp01(c.V)

	cc := v * s
	x := cc * (1 - math.Abs(math.Mod(h/60, 2)-1))
	m := v - cc

	var r, g, b float64
	switch {
	case h < 60:
		r, g, b = cc, x, 0
	case h < 120:
		r, g, b = x, cc, 0
	case h < 180:
		r, g, b = 0, cc, x
	case h < 240:
		r, g, b = 0, x, cc
	case h < 300:
		r, g, b = x, 0, cc
	default:
		r, g, b = cc, 0, x
	}
	return imaging.Color{
		R: roundU8((r + m) * 255),
		G: roundU8((g + m) * 255),
		B: roundU8((b + m) * 255),
	}
}

// HueDist returns DH of Eq. 2: the angular distance between two hues,
// min(|h1-h2|, 360-|h1-h2|), always in [0,180].
func HueDist(h1, h2 float64) float64 {
	// math.Mod returns its argument unchanged inside (-360, 360), so only
	// hues outside it (and ±Inf, NaN) pay for the call.
	if !(h1 > -360 && h1 < 360) {
		h1 = math.Mod(h1, 360)
	}
	if !(h2 > -360 && h2 < 360) {
		h2 = math.Mod(h2, 360)
	}
	d := math.Abs(h1 - h2)
	if d > 180 {
		d = 360 - d
	}
	return d
}

// Dist returns DH between the hue components of two HSV colours (Eq. 2).
func Dist(a, b HSV) float64 { return HueDist(a.H, b.H) }

// Plane is a dense HSV raster, precomputed once per frame so the shadow
// detector does not reconvert pixels inside its per-pixel loop.
type Plane struct {
	W, H int
	Pix  []HSV
}

// PlaneFromImage converts an RGB image to an HSV plane.
func PlaneFromImage(img *imaging.Image) *Plane {
	p := &Plane{W: img.W, H: img.H, Pix: make([]HSV, len(img.Pix))}
	for i, c := range img.Pix {
		p.Pix[i] = FromRGB(c)
	}
	return p
}

// At returns the HSV value at (x, y).
func (p *Plane) At(x, y int) HSV { return p.Pix[y*p.W+x] }

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

func roundU8(v float64) uint8 {
	if v <= 0 {
		return 0
	}
	if v >= 255 {
		return 255
	}
	return uint8(v + 0.5)
}
