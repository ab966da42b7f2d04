package stickmodel

import (
	"github.com/sljmotion/sljmotion/internal/imaging"
)

// Rasterize renders the pose as a filled silhouette mask of size w×h: one
// capsule per stick with radius Thick/2. This is the geometric body model
// used both by the synthetic renderer and by validity checks.
func (p Pose) Rasterize(d Dimensions, w, h int) *imaging.Mask {
	m := imaging.NewMask(w, h)
	p.RasterizeInto(d, m)
	return m
}

// DrawSkeleton draws the stick model onto an image: one line per stick plus
// joint markers. Used to reproduce the overlay style of Figures 6-7.
func (p Pose) DrawSkeleton(img *imaging.Image, d Dimensions, stickColor, jointColor imaging.Color) {
	segs := p.Segments(d)
	for i := 0; i < NumSticks; i++ {
		imaging.DrawLine(img,
			int(segs[i].A.X+0.5), int(segs[i].A.Y+0.5),
			int(segs[i].B.X+0.5), int(segs[i].B.Y+0.5), stickColor)
	}
	for _, j := range p.Joints(d) {
		imaging.DrawCross(img, int(j.X+0.5), int(j.Y+0.5), 1, jointColor)
	}
}

// ContainmentFraction samples points along every stick (about one sample
// per 2 px) and returns the fraction that land inside the mask. The paper
// rejects chromosomes "not in the boundary of the silhouette"; the fraction
// form allows a configurable tolerance.
func (p Pose) ContainmentFraction(d Dimensions, m *imaging.Mask) float64 {
	segs := p.Segments(d)
	inside, total := 0, 0
	for i := 0; i < NumSticks; i++ {
		seg := segs[i]
		n := int(seg.Len()/2) + 2
		for s := 0; s <= n; s++ {
			t := float64(s) / float64(n)
			pt := seg.At(t)
			total++
			if m.At(int(pt.X+0.5), int(pt.Y+0.5)) {
				inside++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(inside) / float64(total)
}

// ContainedAtLeast reports exactly ContainmentFraction(d, m) >= min, but
// stops sampling once the verdict is decided. It counts the same samples
// as ContainmentFraction, finds the smallest inside count need whose
// fraction (the same division) reaches min — the fraction is monotone in
// the count — and walks the samples in the same order until inside
// reaches need or the samples left cannot.
func (p Pose) ContainedAtLeast(d Dimensions, m *imaging.Mask, min float64) bool {
	segs := p.Segments(d)
	var ns [NumSticks]int
	total := 0
	for i := 0; i < NumSticks; i++ {
		ns[i] = int(segs[i].Len()/2) + 2
		if ns[i] >= 0 {
			total += ns[i] + 1
		}
	}
	if total == 0 {
		return 0 >= min
	}
	lo, hi := 0, total+1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if float64(mid)/float64(total) >= min {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	need := lo
	inside, left := 0, total
	for i := 0; i < NumSticks; i++ {
		seg, n := segs[i], ns[i]
		for s := 0; s <= n; s++ {
			if inside >= need {
				return true
			}
			if inside+left < need {
				return false
			}
			pt := seg.At(float64(s) / float64(n))
			left--
			if m.At(int(pt.X+0.5), int(pt.Y+0.5)) {
				inside++
			}
		}
	}
	return inside >= need
}

// maxThicknessScan bounds the perpendicular silhouette scan relative to the
// stick's nominal thickness, so thickness estimation cannot run across the
// whole body when sticks overlap.
const maxThicknessScan = 2.5

// EstimateThickness measures the average silhouette thickness around each
// stick of the pose ("the thickness of all sticks' area can be estimated
// from the stick model drawn by human in the first frame"). For each stick
// it scans perpendicular rays at sample points and averages the covered
// width. Sticks with no silhouette support keep their prior thickness.
func EstimateThickness(p Pose, prior Dimensions, m *imaging.Mask) Dimensions {
	out := prior
	segs := p.Segments(prior)
	for i := 0; i < NumSticks; i++ {
		seg := segs[i]
		segLen := seg.Len()
		if segLen < 1 {
			continue
		}
		dir := seg.B.Sub(seg.A).Mul(1 / segLen)
		normal := imaging.Vec2{X: -dir.Y, Y: dir.X}
		maxScan := prior.Thick[i] * maxThicknessScan / 2
		if maxScan < 2 {
			maxScan = 2
		}
		samples := int(segLen/2) + 1
		var widthSum float64
		var widthN int
		for s := 0; s <= samples; s++ {
			t := float64(s) / float64(samples)
			centre := seg.At(t)
			if !m.At(int(centre.X+0.5), int(centre.Y+0.5)) {
				continue
			}
			w := scanHalfWidth(m, centre, normal, maxScan) + scanHalfWidth(m, centre, normal.Mul(-1), maxScan)
			widthSum += w
			widthN++
		}
		if widthN > 0 {
			est := widthSum / float64(widthN)
			if est >= 1 {
				out.Thick[i] = est
			}
		}
	}
	return out
}

// scanHalfWidth walks from centre along dir until the mask ends or maxScan
// is reached, returning the covered distance.
func scanHalfWidth(m *imaging.Mask, centre, dir imaging.Vec2, maxScan float64) float64 {
	step := 0.5
	var dist float64
	for dist = step; dist <= maxScan; dist += step {
		pt := centre.Add(dir.Mul(dist))
		if !m.At(int(pt.X+0.5), int(pt.Y+0.5)) {
			return dist - step
		}
	}
	return maxScan
}

// EstimateLengths rescales the prior dimensions so the rasterised pose
// height matches the silhouette bounding-box height. It complements
// EstimateThickness during first-frame calibration.
func EstimateLengths(p Pose, prior Dimensions, m *imaging.Mask) Dimensions {
	return EstimateLengthsArena(p, prior, m, nil)
}
