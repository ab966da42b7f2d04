// Package imaging provides the raster substrate used by the whole system:
// RGB frames, grayscale planes, binary masks, drawing primitives, PPM/PGM/PBM
// encoding, and terminal-friendly ASCII rendering.
//
// The package is deliberately self-contained (stdlib only) and uses plain
// slices rather than image.Image so that hot loops in the segmentation and
// pose-estimation pipelines can index pixels directly.
package imaging

import (
	"errors"
	"fmt"
	"unsafe"
)

// Color is a 24-bit RGB colour. It is the pixel type for Image.
type Color struct {
	R, G, B uint8
}

// Color must stay exactly three bytes with no padding: Image.Bytes views
// a []Color as interleaved RGB bytes. This fails to compile otherwise.
var _ = [1]struct{}{}[unsafe.Sizeof(Color{})-3]

// Common colours used by the synthetic renderer and figure output.
var (
	Black = Color{0, 0, 0}
	White = Color{255, 255, 255}
	Red   = Color{220, 40, 40}
	Green = Color{40, 180, 60}
	Blue  = Color{50, 80, 210}
	Gray5 = Color{128, 128, 128}
)

// Luma returns the Rec.601 luma of c in [0,255].
func (c Color) Luma() uint8 {
	// Integer approximation: (299R + 587G + 114B) / 1000.
	return uint8((299*int(c.R) + 587*int(c.G) + 114*int(c.B)) / 1000)
}

// MaxChanDiff returns the largest per-channel absolute difference between c
// and o. It is the colour distance used by background subtraction.
func (c Color) MaxChanDiff(o Color) int {
	return max(absInt(int(c.R)-int(o.R)), absInt(int(c.G)-int(o.G)), absInt(int(c.B)-int(o.B)))
}

// Scale multiplies each channel by f, clamping to [0,255]. It is used by the
// synthetic renderer for illumination flicker and shadow darkening.
func (c Color) Scale(f float64) Color {
	return Color{clampU8(float64(c.R) * f), clampU8(float64(c.G) * f), clampU8(float64(c.B) * f)}
}

// Lerp linearly interpolates between c and o with t in [0,1].
func (c Color) Lerp(o Color, t float64) Color {
	return Color{
		clampU8(float64(c.R) + t*(float64(o.R)-float64(c.R))),
		clampU8(float64(c.G) + t*(float64(o.G)-float64(c.G))),
		clampU8(float64(c.B) + t*(float64(o.B)-float64(c.B))),
	}
}

func clampU8(v float64) uint8 {
	if v <= 0 {
		return 0
	}
	if v >= 255 {
		return 255
	}
	return uint8(v + 0.5)
}

func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// MaxDim bounds the width and height of a decoded frame or mask. Codecs of
// untrusted bytes reject larger sides before computing any size product,
// so w*h (and 3*w*h) cannot overflow.
const MaxDim = 1 << 15

// Image is a dense RGB raster with row-major pixel storage.
type Image struct {
	W, H int
	Pix  []Color
}

// NewImage returns a w×h image filled with black.
func NewImage(w, h int) *Image {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("imaging: invalid image size %dx%d", w, h))
	}
	return &Image{W: w, H: h, Pix: make([]Color, w*h)}
}

// Bytes returns the pixels as interleaved RGB bytes, row-major — the PPM
// and wire layout. It is a view of Pix, not a copy: writes through either
// slice show in the other.
func (m *Image) Bytes() []byte { return colorBytes(m.Pix) }

// colorBytes views a pixel slice as its 3·len(pix) RGB bytes.
func colorBytes(pix []Color) []byte {
	if len(pix) == 0 {
		return nil
	}
	return unsafe.Slice(&pix[0].R, 3*len(pix))
}

// NewImageFilled returns a w×h image filled with c.
func NewImageFilled(w, h int, c Color) *Image {
	img := NewImage(w, h)
	for i := range img.Pix {
		img.Pix[i] = c
	}
	return img
}

// In reports whether (x, y) lies inside the image bounds.
func (m *Image) In(x, y int) bool { return x >= 0 && x < m.W && y >= 0 && y < m.H }

// At returns the pixel at (x, y). It panics on out-of-bounds access, matching
// slice semantics; callers on hot paths bound-check once per row instead.
func (m *Image) At(x, y int) Color { return m.Pix[y*m.W+x] }

// Set writes the pixel at (x, y) if it is in bounds; out-of-bounds writes are
// ignored so drawing primitives can clip implicitly.
func (m *Image) Set(x, y int, c Color) {
	if m.In(x, y) {
		m.Pix[y*m.W+x] = c
	}
}

// Clone returns a deep copy of the image.
func (m *Image) Clone() *Image {
	out := NewImage(m.W, m.H)
	copy(out.Pix, m.Pix)
	return out
}

// Fill sets every pixel to c.
func (m *Image) Fill(c Color) {
	for i := range m.Pix {
		m.Pix[i] = c
	}
}

// Gray converts the image to a grayscale plane using Rec.601 luma.
func (m *Image) Gray() *Gray {
	g := NewGray(m.W, m.H)
	for i, p := range m.Pix {
		g.Pix[i] = p.Luma()
	}
	return g
}

// SameSize reports whether o has identical dimensions.
func (m *Image) SameSize(o *Image) bool { return o != nil && m.W == o.W && m.H == o.H }

// Gray is a dense single-channel 8-bit raster.
type Gray struct {
	W, H int
	Pix  []uint8
}

// NewGray returns a w×h grayscale plane initialised to zero.
func NewGray(w, h int) *Gray {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("imaging: invalid gray size %dx%d", w, h))
	}
	return &Gray{W: w, H: h, Pix: make([]uint8, w*h)}
}

// In reports whether (x, y) lies inside the plane.
func (g *Gray) In(x, y int) bool { return x >= 0 && x < g.W && y >= 0 && y < g.H }

// At returns the value at (x, y).
func (g *Gray) At(x, y int) uint8 { return g.Pix[y*g.W+x] }

// Set writes v at (x, y) when in bounds.
func (g *Gray) Set(x, y int, v uint8) {
	if g.In(x, y) {
		g.Pix[y*g.W+x] = v
	}
}

// Clone returns a deep copy.
func (g *Gray) Clone() *Gray {
	out := NewGray(g.W, g.H)
	copy(out.Pix, g.Pix)
	return out
}

// ErrSizeMismatch is returned by operations that require equally sized rasters.
var ErrSizeMismatch = errors.New("imaging: raster size mismatch")

// AbsDiff returns |a-b| per pixel. The two planes must be the same size.
func AbsDiff(a, b *Gray) (*Gray, error) {
	if a.W != b.W || a.H != b.H {
		return nil, fmt.Errorf("abs diff %dx%d vs %dx%d: %w", a.W, a.H, b.W, b.H, ErrSizeMismatch)
	}
	out := NewGray(a.W, a.H)
	for i := range a.Pix {
		d := int(a.Pix[i]) - int(b.Pix[i])
		if d < 0 {
			d = -d
		}
		out.Pix[i] = uint8(d)
	}
	return out, nil
}
