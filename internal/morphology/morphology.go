// Package morphology implements the binary-mask cleanup operators of the
// paper's segmentation pipeline: the 8-neighbour noise filter (Step 3), the
// 4-neighbour hole fill (Step 4), connected-component labelling and
// small-spot removal (Step 3), plus standard dilation/erosion used by
// extensions and tests.
package morphology

import (
	"github.com/sljmotion/sljmotion/internal/imaging"
)

// neigh8 enumerates the 8-connected neighbourhood offsets.
var neigh8 = [8][2]int{
	{-1, -1}, {0, -1}, {1, -1},
	{-1, 0}, {1, 0},
	{-1, 1}, {0, 1}, {1, 1},
}

// neigh4 enumerates the 4-connected neighbourhood offsets.
var neigh4 = [4][2]int{{0, -1}, {-1, 0}, {1, 0}, {0, 1}}

// RemoveNoise implements the paper's Step 3 filter: a set pixel is kept only
// when at least minNeighbors of its 8 neighbours are set ("if the number of
// neighbors that are not 0 is greater than the threshold, the pixel is
// kept"). It returns a new mask.
func RemoveNoise(m *imaging.Mask, minNeighbors int) *imaging.Mask {
	out := imaging.NewMask(m.W, m.H)
	// Border pixels have neighbours outside the mask, which read clear.
	forBorder(m.W, m.H, func(x, y int) {
		if !m.Bits[y*m.W+x] {
			return
		}
		n := 0
		for _, d := range neigh8 {
			if m.At(x+d[0], y+d[1]) {
				n++
			}
		}
		if n >= minNeighbors {
			out.Bits[y*m.W+x] = true
		}
	})
	w := m.W
	for y := 1; y < m.H-1; y++ {
		up, row, down := m.Bits[(y-1)*w:y*w], m.Bits[y*w:(y+1)*w], m.Bits[(y+1)*w:(y+2)*w]
		kept := out.Bits[y*w : (y+1)*w]
		for x := 1; x < w-1; x++ {
			if !row[x] {
				continue
			}
			n := b2i(up[x-1]) + b2i(up[x]) + b2i(up[x+1]) +
				b2i(row[x-1]) + b2i(row[x+1]) +
				b2i(down[x-1]) + b2i(down[x]) + b2i(down[x+1])
			kept[x] = n >= minNeighbors
		}
	}
	return out
}

// FillHoles implements the paper's Step 4 rule: a clear pixel whose four
// 4-neighbours are all set becomes set. One call performs a single pass, as
// in the paper; use FillHolesN for repeated passes.
func FillHoles(m *imaging.Mask) *imaging.Mask {
	out, _ := fillHoles(m)
	return out
}

// fillHoles is FillHoles that also reports whether the pass set any pixel.
// A border pixel has a 4-neighbour outside the mask, which reads clear, so
// only interior pixels can be filled.
func fillHoles(m *imaging.Mask) (*imaging.Mask, bool) {
	out := m.Clone()
	changed := false
	w := m.W
	for y := 1; y < m.H-1; y++ {
		up, row, down := m.Bits[(y-1)*w:y*w], m.Bits[y*w:(y+1)*w], m.Bits[(y+1)*w:(y+2)*w]
		filled := out.Bits[y*w : (y+1)*w]
		for x := 1; x < w-1; x++ {
			if !row[x] && up[x] && down[x] && row[x-1] && row[x+1] {
				filled[x] = true
				changed = true
			}
		}
	}
	return out, changed
}

// FillHolesN applies FillHoles up to n passes, stopping early once a pass
// changes nothing.
func FillHolesN(m *imaging.Mask, n int) *imaging.Mask {
	cur := m
	for i := 0; i < n; i++ {
		next, changed := fillHoles(cur)
		if !changed {
			return next
		}
		cur = next
	}
	return cur
}

// forBorder calls f once for every pixel of a w×h mask's outer ring.
func forBorder(w, h int, f func(x, y int)) {
	for x := 0; x < w; x++ {
		f(x, 0)
		if h > 1 {
			f(x, h-1)
		}
	}
	for y := 1; y < h-1; y++ {
		f(0, y)
		if w > 1 {
			f(w-1, y)
		}
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// FillEnclosed fills every background region not connected to the mask
// border (a flood fill from the border; everything unreachable is a hole).
// This is the stronger alternative to the paper's single-pass rule and is
// used by the extension pipeline configuration.
func FillEnclosed(m *imaging.Mask) *imaging.Mask {
	outside := imaging.NewMask(m.W, m.H)
	stack := make([]imaging.Point, 0, 2*(m.W+m.H))
	push := func(x, y int) {
		if x < 0 || x >= m.W || y < 0 || y >= m.H {
			return
		}
		idx := y*m.W + x
		if m.Bits[idx] || outside.Bits[idx] {
			return
		}
		outside.Bits[idx] = true
		stack = append(stack, imaging.Point{X: x, Y: y})
	}
	for x := 0; x < m.W; x++ {
		push(x, 0)
		push(x, m.H-1)
	}
	for y := 0; y < m.H; y++ {
		push(0, y)
		push(m.W-1, y)
	}
	for len(stack) > 0 {
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, d := range neigh4 {
			push(p.X+d[0], p.Y+d[1])
		}
	}
	out := m.Clone()
	for i := range out.Bits {
		if !out.Bits[i] && !outside.Bits[i] {
			out.Bits[i] = true
		}
	}
	return out
}

// Dilate grows the mask by a square structuring element of the given radius.
func Dilate(m *imaging.Mask, radius int) *imaging.Mask {
	if radius <= 0 {
		return m.Clone()
	}
	out := imaging.NewMask(m.W, m.H)
	for y := 0; y < m.H; y++ {
		for x := 0; x < m.W; x++ {
			if !m.Bits[y*m.W+x] {
				continue
			}
			for dy := -radius; dy <= radius; dy++ {
				for dx := -radius; dx <= radius; dx++ {
					out.Set(x+dx, y+dy, true)
				}
			}
		}
	}
	return out
}

// Erode shrinks the mask by a square structuring element of the given radius.
func Erode(m *imaging.Mask, radius int) *imaging.Mask {
	if radius <= 0 {
		return m.Clone()
	}
	out := imaging.NewMask(m.W, m.H)
	for y := 0; y < m.H; y++ {
	pixels:
		for x := 0; x < m.W; x++ {
			if !m.Bits[y*m.W+x] {
				continue
			}
			for dy := -radius; dy <= radius; dy++ {
				for dx := -radius; dx <= radius; dx++ {
					if !m.At(x+dx, y+dy) {
						continue pixels
					}
				}
			}
			out.Bits[y*m.W+x] = true
		}
	}
	return out
}
