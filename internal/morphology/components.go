package morphology

import (
	"sort"

	"github.com/sljmotion/sljmotion/internal/imaging"
)

// Connectivity selects the neighbourhood used by component labelling.
type Connectivity int

// Supported connectivities. Enum starts at one so the zero value is invalid
// and misuse fails loudly.
const (
	Conn4 Connectivity = iota + 1
	Conn8
)

// Region describes one connected component of a mask.
type Region struct {
	Label    int
	Area     int
	BBox     imaging.Rect
	Centroid imaging.Vec2
}

// Labels is the result of connected-component analysis: a per-pixel label
// plane (0 = background) and per-region statistics.
type Labels struct {
	W, H    int
	Plane   []int32
	Regions []Region
}

// Components labels the connected components of m using breadth-first
// search. Regions are returned sorted by descending area so Regions[0] is
// always the largest object.
func Components(m *imaging.Mask, conn Connectivity) *Labels {
	offsets := neigh4[:]
	if conn == Conn8 {
		offsets = neigh8[:]
	}
	out := &Labels{W: m.W, H: m.H, Plane: make([]int32, m.W*m.H)}
	queue := make([]imaging.Point, 0, 1024)
	next := int32(1)
	for y := 0; y < m.H; y++ {
		for x := 0; x < m.W; x++ {
			idx := y*m.W + x
			if !m.Bits[idx] || out.Plane[idx] != 0 {
				continue
			}
			label := next
			next++
			out.Plane[idx] = label
			queue = queue[:0]
			queue = append(queue, imaging.Point{X: x, Y: y})
			reg := Region{
				Label: int(label),
				BBox:  imaging.Rect{X0: x, Y0: y, X1: x, Y1: y},
			}
			var sx, sy int
			for len(queue) > 0 {
				p := queue[len(queue)-1]
				queue = queue[:len(queue)-1]
				reg.Area++
				sx += p.X
				sy += p.Y
				if p.X < reg.BBox.X0 {
					reg.BBox.X0 = p.X
				}
				if p.X > reg.BBox.X1 {
					reg.BBox.X1 = p.X
				}
				if p.Y < reg.BBox.Y0 {
					reg.BBox.Y0 = p.Y
				}
				if p.Y > reg.BBox.Y1 {
					reg.BBox.Y1 = p.Y
				}
				for _, d := range offsets {
					nx, ny := p.X+d[0], p.Y+d[1]
					if nx < 0 || nx >= m.W || ny < 0 || ny >= m.H {
						continue
					}
					nidx := ny*m.W + nx
					if m.Bits[nidx] && out.Plane[nidx] == 0 {
						out.Plane[nidx] = label
						queue = append(queue, imaging.Point{X: nx, Y: ny})
					}
				}
			}
			reg.Centroid = imaging.Vec2{
				X: float64(sx) / float64(reg.Area),
				Y: float64(sy) / float64(reg.Area),
			}
			out.Regions = append(out.Regions, reg)
		}
	}
	sort.Slice(out.Regions, func(i, j int) bool {
		if out.Regions[i].Area != out.Regions[j].Area {
			return out.Regions[i].Area > out.Regions[j].Area
		}
		return out.Regions[i].Label < out.Regions[j].Label
	})
	return out
}

// MaskOf extracts the mask of a single labelled region.
func (l *Labels) MaskOf(label int) *imaging.Mask {
	m := imaging.NewMask(l.W, l.H)
	for i, v := range l.Plane {
		if int(v) == label {
			m.Bits[i] = true
		}
	}
	return m
}

// RemoveSmallSpots implements the paper's "smaller spots can be removed from
// the scene": components with an area below max(fraction × the largest
// component's area, floor) are erased, so the bound scales with subject
// size. It labels m once and returns a new mask.
func RemoveSmallSpots(m *imaging.Mask, fraction float64, floor int, conn Connectivity) *imaging.Mask {
	labels := Components(m, conn)
	out := imaging.NewMask(m.W, m.H)
	if len(labels.Regions) == 0 {
		return out
	}
	minArea := max(int(fraction*float64(labels.Regions[0].Area)), floor)
	keep := make([]bool, len(labels.Regions)+1) // indexed by label; 0 is background
	for _, r := range labels.Regions {
		keep[r.Label] = r.Area >= minArea
	}
	for i, v := range labels.Plane {
		out.Bits[i] = keep[v]
	}
	return out
}

// KeepLargest keeps only the largest connected component, the typical
// final step when exactly one human object is expected in frame.
func KeepLargest(m *imaging.Mask, conn Connectivity) *imaging.Mask {
	labels := Components(m, conn)
	if len(labels.Regions) == 0 {
		return imaging.NewMask(m.W, m.H)
	}
	return labels.MaskOf(labels.Regions[0].Label)
}
