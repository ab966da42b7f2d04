package segmentation

import (
	"github.com/sljmotion/sljmotion/internal/hsv"
	"github.com/sljmotion/sljmotion/internal/imaging"
	"github.com/sljmotion/sljmotion/internal/shadow"
)

// frameScratch is one worker's reusable state for Steps 2-5. A mask is held
// twice: as a plane of (W+2)×(H+2) bools whose one-pixel border is always
// clear, and as the ascending (row-major) list of its set pixels' plane
// indices. Step 2 is the one full-frame scan; every later step reads and
// writes only listed pixels and their neighbours. The clear border makes
// every neighbour a fixed offset from its pixel and stores "outside the
// frame reads clear" in the data, so no step checks bounds or divides. A
// frame leaves the planes clear (each is cleared by walking the list that
// set it), so the next frame starts without a full-plane reset. Plane
// indices are int32: frame decoders bound a frame to 2^28 pixels.
//
// The differential tests hold this file bit for bit to a dense reference in
// reference_test.go that computes each step pixel by pixel over the whole
// frame with bounds-checked neighbour reads.
type frameScratch struct {
	w, h, pw int32    // frame size and plane stride (w+2)
	on       []bool   // the current mask's plane
	lab      []int32  // component labels; all zero between labellings
	n8       [8]int32 // plane offsets of the 8 neighbours

	list  []int32 // the current mask's set pixels, ascending
	other []int32 // spare list for steps that rebuild the list
	aside []int32 // pixels a step sets or removes (new hole pixels, shadow)
	stack []int32 // labelling work stack
	area  []int   // component area by label; index 0 unused
	keep  []bool  // components kept, by label
}

// reset sizes the scratch for a w×h frame. Planes of a previous frame of
// the same size are already clear.
func (s *frameScratch) reset(w, h int) {
	if int(s.w) == w && int(s.h) == h {
		return
	}
	pw := int32(w + 2)
	s.w, s.h, s.pw = int32(w), int32(h), pw
	s.on = make([]bool, (w+2)*(h+2))
	s.lab = make([]int32, len(s.on))
	s.n8 = [8]int32{-pw - 1, -pw, -pw + 1, -1, 1, pw - 1, pw, pw + 1}
	// A jumper covers a few percent of the frame; size the lists for 1/16
	// so a clip's lists rarely grow.
	n := w * h / 16
	s.list, s.other, s.aside = make([]int32, 0, n), make([]int32, 0, n), make([]int32, 0, n)
}

// subtract is Step 2: it sets every pixel whose max-channel difference from
// the background exceeds threshold, as imaging.Color.MaxChanDiff measures
// it. For a channel difference d in [-255, 255], |d| > threshold exactly
// when d+threshold, read unsigned, exceeds 2×threshold; the test needs no
// branch per channel.
func (s *frameScratch) subtract(frame, bg *imaging.Image, threshold int) {
	s.list = s.list[:0]
	t, t2 := uint(threshold), uint(2*threshold)
	w := int(s.w)
	for y := 0; y < int(s.h); y++ {
		fr, br := frame.Pix[y*w:(y+1)*w], bg.Pix[y*w:(y+1)*w]
		br = br[:len(fr)]
		q := int32(y+1)*s.pw + 1
		for x, f := range fr {
			b := br[x]
			dr := uint(int(f.R)-int(b.R)) + t
			dg := uint(int(f.G)-int(b.G)) + t
			db := uint(int(f.B)-int(b.B)) + t
			if max(dr, dg, db) > t2 {
				s.on[q] = true
				s.list = append(s.list, q)
			}
			q++
		}
	}
}

// removeNoise is Step 3's filter: a set pixel stays only when at least
// minNeighbors of its 8 neighbours are set.
func (s *frameScratch) removeNoise(minNeighbors int) {
	if minNeighbors == 0 {
		return // every pixel has at least zero set neighbours
	}
	on, n8 := s.on, s.n8
	kept := s.other[:0]
	for _, q := range s.list {
		n := 0
		for _, d := range n8 {
			if on[q+d] {
				n++
			}
		}
		if n >= minNeighbors {
			kept = append(kept, q)
		}
	}
	// Every count above read the unfiltered plane; only now clear the
	// dropped pixels (the ones missing from the ascending kept list).
	j := 0
	for _, q := range s.list {
		if j < len(kept) && kept[j] == q {
			j++
			continue
		}
		on[q] = false
	}
	s.list, s.other = kept, s.list
}

// label assigns 8-connected component labels in the raster order of each
// component's first pixel and records each component's area. It returns
// the number of components; retain must follow to clear the labels.
func (s *frameScratch) label() int {
	on, lab, n8 := s.on, s.lab, s.n8
	s.area = append(s.area[:0], 0)
	for _, q := range s.list {
		if lab[q] != 0 {
			continue
		}
		l := int32(len(s.area))
		lab[q] = l
		stack := append(s.stack[:0], q)
		area := 0
		for len(stack) > 0 {
			p := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			area++
			for _, d := range n8 {
				if n := p + d; on[n] && lab[n] == 0 {
					lab[n] = l
					stack = append(stack, n)
				}
			}
		}
		s.stack = stack
		s.area = append(s.area, area)
	}
	return len(s.area) - 1
}

// retain keeps the labelled pixels whose component s.keep marks, clears
// the others, and clears the label plane.
func (s *frameScratch) retain() {
	kept := s.list[:0]
	for _, q := range s.list {
		l := s.lab[q]
		s.lab[q] = 0
		if s.keep[l] {
			kept = append(kept, q)
		} else {
			s.on[q] = false
		}
	}
	s.list = kept
}

// removeSmallSpots is Step 3's spot removal over 8-connected components:
// components smaller than max(fraction × the largest component's area,
// floor) are erased.
func (s *frameScratch) removeSmallSpots(fraction float64, floor int) {
	n := s.label()
	largest := 0
	for _, a := range s.area[1:] {
		largest = max(largest, a)
	}
	minArea := max(int(fraction*float64(largest)), floor)
	s.keep = append(s.keep[:0], false)
	for l := 1; l <= n; l++ {
		s.keep = append(s.keep, s.area[l] >= minArea)
	}
	s.retain()
}

// keepLargest keeps only the largest 8-connected component; among equal
// areas the first in raster order wins.
func (s *frameScratch) keepLargest() {
	n := s.label()
	best := 1
	for l := 2; l <= n; l++ {
		if s.area[l] > s.area[best] {
			best = l
		}
	}
	s.keep = append(s.keep[:0], false)
	for l := 1; l <= n; l++ {
		s.keep = append(s.keep, l == best)
	}
	s.retain()
}

// fillHoles is one pass of Step 4's rule: a clear pixel whose four
// 4-neighbours are all set becomes set. It reports whether any pixel did.
// Such a pixel's left neighbour is set, so the candidates are the right
// neighbours of listed pixels, each visited once and in ascending order;
// a candidate on the frame edge has a clear border neighbour and stays
// clear.
func (s *frameScratch) fillHoles() bool {
	on, pw := s.on, s.pw
	filled := s.aside[:0]
	for _, q := range s.list {
		if c := q + 1; !on[c] && on[c+1] && on[c-pw] && on[c+pw] {
			filled = append(filled, c)
		}
	}
	s.aside = filled
	if len(filled) == 0 {
		return false
	}
	for _, c := range filled {
		on[c] = true
	}
	// Merge the two ascending lists.
	merged, old := s.other[:0], s.list
	i, j := 0, 0
	for i < len(old) && j < len(filled) {
		if old[i] < filled[j] {
			merged = append(merged, old[i])
			i++
		} else {
			merged = append(merged, filled[j])
			j++
		}
	}
	merged = append(append(merged, old[i:]...), filled[j:]...)
	s.list, s.other = merged, old
	return true
}

// removeShadow is Step 5: it clears every listed pixel that det classifies
// as shadow (Eq. 1-2) and leaves the shadow pixels in s.aside.
func (s *frameScratch) removeShadow(frame, bg *imaging.Image, det *shadow.Detector) {
	object, shade := s.list[:0], s.aside[:0]
	rows := s.rows()
	for _, q := range s.list {
		i := rows.index(q)
		if det.IsShadow(hsv.FromRGB(frame.Pix[i]), hsv.FromRGB(bg.Pix[i])) {
			s.on[q] = false
			shade = append(shade, q)
		} else {
			object = append(object, q)
		}
	}
	s.list, s.aside = object, shade
}

// clear empties the current mask.
func (s *frameScratch) clear() {
	for _, q := range s.list {
		s.on[q] = false
	}
	s.list = s.list[:0]
}

// mask materialises the pixels of an ascending list as a dense mask.
func (s *frameScratch) mask(list []int32) *imaging.Mask {
	m := imaging.NewMask(int(s.w), int(s.h))
	rows := s.rows()
	for _, q := range list {
		m.Bits[rows.index(q)] = true
	}
	return m
}

// silhouette materialises the current mask as frame k's silhouette and
// computes its statistics in the same walk, equal to NewSilhouette's.
func (s *frameScratch) silhouette(k int) Silhouette {
	m := imaging.NewMask(int(s.w), int(s.h))
	sil := Silhouette{Frame: k, Mask: m, Area: len(s.list)}
	if len(s.list) == 0 {
		return sil
	}
	rows := s.rows()
	var sx, sy int
	bb := imaging.Rect{X0: m.W, Y0: m.H, X1: -1, Y1: -1}
	for _, q := range s.list {
		i := rows.index(q)
		x, y := i-rows.y*m.W, rows.y
		m.Bits[i] = true
		sx += x
		sy += y
		bb.X0, bb.X1 = min(bb.X0, x), max(bb.X1, x)
		bb.Y0, bb.Y1 = min(bb.Y0, y), max(bb.Y1, y)
	}
	n := float64(len(s.list))
	sil.Centroid = imaging.Vec2{X: float64(sx) / n, Y: float64(sy) / n}
	sil.BBox = bb
	return sil
}

// rowWalk maps ascending plane indices to frame indices by stepping a row
// counter instead of dividing.
type rowWalk struct {
	y        int   // frame row of the last index
	pw, next int32 // plane stride; first plane index of row y+1
	shift    int32 // plane index minus frame index on row y
}

func (s *frameScratch) rows() rowWalk {
	return rowWalk{pw: s.pw, next: 2 * s.pw, shift: s.pw + 1}
}

// index returns the frame index of plane index q, which must not be less
// than the previous call's.
func (r *rowWalk) index(q int32) int {
	for q >= r.next {
		r.y++
		r.next += r.pw
		r.shift += 2
	}
	return int(q - r.shift)
}
