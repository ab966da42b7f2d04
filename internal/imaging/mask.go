package imaging

import "fmt"

// Mask is a dense binary raster. True marks a foreground pixel.
type Mask struct {
	W, H int
	Bits []bool
}

// NewMask returns an empty (all-false) w×h mask.
func NewMask(w, h int) *Mask {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("imaging: invalid mask size %dx%d", w, h))
	}
	return &Mask{W: w, H: h, Bits: make([]bool, w*h)}
}

// In reports whether (x, y) lies inside the mask.
func (m *Mask) In(x, y int) bool { return x >= 0 && x < m.W && y >= 0 && y < m.H }

// At returns the bit at (x, y); out-of-bounds reads return false so neighbour
// scans need no explicit border handling.
func (m *Mask) At(x, y int) bool {
	if !m.In(x, y) {
		return false
	}
	return m.Bits[y*m.W+x]
}

// Set writes the bit at (x, y) when in bounds.
func (m *Mask) Set(x, y int, v bool) {
	if m.In(x, y) {
		m.Bits[y*m.W+x] = v
	}
}

// Clone returns a deep copy of the mask.
func (m *Mask) Clone() *Mask {
	out := NewMask(m.W, m.H)
	copy(out.Bits, m.Bits)
	return out
}

// Count returns the number of set pixels.
func (m *Mask) Count() int {
	n := 0
	for _, b := range m.Bits {
		if b {
			n++
		}
	}
	return n
}

// Empty reports whether no pixel is set.
func (m *Mask) Empty() bool { return m.Count() == 0 }

// SameSize reports whether o has identical dimensions.
func (m *Mask) SameSize(o *Mask) bool { return o != nil && m.W == o.W && m.H == o.H }

// Points returns the coordinates of all set pixels in row-major order.
func (m *Mask) Points() []Point {
	pts := make([]Point, 0, 256)
	for y := 0; y < m.H; y++ {
		row := y * m.W
		for x := 0; x < m.W; x++ {
			if m.Bits[row+x] {
				pts = append(pts, Point{X: x, Y: y})
			}
		}
	}
	return pts
}

// Centroid returns the mean coordinate of set pixels and ok=false when the
// mask is empty.
func (m *Mask) Centroid() (cx, cy float64, ok bool) {
	var sx, sy, n int
	for y := 0; y < m.H; y++ {
		row := y * m.W
		for x := 0; x < m.W; x++ {
			if m.Bits[row+x] {
				sx += x
				sy += y
				n++
			}
		}
	}
	if n == 0 {
		return 0, 0, false
	}
	return float64(sx) / float64(n), float64(sy) / float64(n), true
}

// BBox returns the tight bounding box of set pixels and ok=false when empty.
func (m *Mask) BBox() (r Rect, ok bool) {
	minX, minY := m.W, m.H
	maxX, maxY := -1, -1
	for y := 0; y < m.H; y++ {
		row := y * m.W
		for x := 0; x < m.W; x++ {
			if !m.Bits[row+x] {
				continue
			}
			if x < minX {
				minX = x
			}
			if x > maxX {
				maxX = x
			}
			if y < minY {
				minY = y
			}
			if y > maxY {
				maxY = y
			}
		}
	}
	if maxX < 0 {
		return Rect{}, false
	}
	return Rect{X0: minX, Y0: minY, X1: maxX, Y1: maxY}, true
}

// Point is an integer pixel coordinate.
type Point struct {
	X, Y int
}

// Rect is an inclusive integer rectangle.
type Rect struct {
	X0, Y0, X1, Y1 int
}

// W returns the rectangle width in pixels.
func (r Rect) W() int { return r.X1 - r.X0 + 1 }

// H returns the rectangle height in pixels.
func (r Rect) H() int { return r.Y1 - r.Y0 + 1 }

// Area returns the number of pixels covered by the rectangle.
func (r Rect) Area() int { return r.W() * r.H() }

// Contains reports whether (x, y) is inside the rectangle.
func (r Rect) Contains(x, y int) bool {
	return x >= r.X0 && x <= r.X1 && y >= r.Y0 && y <= r.Y1
}
