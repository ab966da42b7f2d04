// Package background implements Step 1 of the paper's segmentation
// pipeline: estimating the static background of a video sequence by
// temporal change detection. Step 2, subtracting that background from each
// frame, runs in package segmentation; its calibrated threshold is
// DefaultSubtractThreshold.
//
// Besides the paper's change-detection estimator, the package provides
// median and running-mean estimators used as ablation baselines
// (experiment A2 in DESIGN.md).
package background

import (
	"errors"
	"fmt"
	"math"

	"github.com/sljmotion/sljmotion/internal/imaging"
)

// ErrNoFrames is returned when an estimator receives an empty sequence.
var ErrNoFrames = errors.New("background: no frames")

// Estimator builds a background image from a frame sequence.
type Estimator interface {
	// Estimate returns the background for the given video sequence.
	// All frames must share one size.
	Estimate(frames []*imaging.Image) (*imaging.Image, error)
}

// ChangeDetection is the paper's Step 1 estimator: "pixels with a very small
// change in two consecutive frames are saved as part of the background",
// scanned from the first pair to the last pair. The background value of a
// pixel is the per-channel median of its stable observations — a median
// rather than a mean so that a subject standing still for a few frames
// cannot bleed into the estimate (ghosting). Pixels that are never stable
// fall back to a temporal median over all frames so the estimator is total.
type ChangeDetection struct {
	// StabilityThreshold is the maximum per-channel intensity change between
	// consecutive frames for a pixel to count as background (paper: "very
	// small change"). Values ≤ 0 select the calibrated default.
	StabilityThreshold int
}

// DefaultStabilityThreshold is the calibrated "very small change" bound
// (DESIGN.md §7).
const DefaultStabilityThreshold = 6

var _ Estimator = (*ChangeDetection)(nil)

// Estimate implements Estimator.
func (c *ChangeDetection) Estimate(frames []*imaging.Image) (*imaging.Image, error) {
	if len(frames) == 0 {
		return nil, ErrNoFrames
	}
	if err := checkSameSize(frames); err != nil {
		return nil, err
	}
	if len(frames) == 1 {
		return frames[0].Clone(), nil
	}
	tau := c.StabilityThreshold
	if tau <= 0 {
		tau = DefaultStabilityThreshold
	}

	bg := imaging.NewImage(frames[0].W, frames[0].H)
	s := newPixelSamples(len(frames))
	r, g, b := s.r, s.g, s.b
	for i := range bg.Pix {
		// Gather pixel i's stable observations: the later colour of every
		// consecutive pair that agrees within tau.
		n := 0
		prev := frames[0].Pix[i]
		for _, f := range frames[1:] {
			cur := f.Pix[i]
			if prev.MaxChanDiff(cur) <= tau {
				r[n], g[n], b[n] = cur.R, cur.G, cur.B
				n++
			}
			prev = cur
		}
		if n == 0 {
			bg.Pix[i] = s.temporalMedian(frames, i)
			continue
		}
		bg.Pix[i] = s.median(n)
	}
	return bg, nil
}

// Median estimates the background as the per-pixel temporal median. It is a
// strong classical baseline used in ablation A2.
type Median struct{}

var _ Estimator = (*Median)(nil)

// Estimate implements Estimator.
func (Median) Estimate(frames []*imaging.Image) (*imaging.Image, error) {
	if len(frames) == 0 {
		return nil, ErrNoFrames
	}
	if err := checkSameSize(frames); err != nil {
		return nil, err
	}
	bg := imaging.NewImage(frames[0].W, frames[0].H)
	s := newPixelSamples(len(frames))
	for i := range bg.Pix {
		bg.Pix[i] = s.temporalMedian(frames, i)
	}
	return bg, nil
}

// RunningMean estimates the background as an exponentially weighted running
// mean with learning rate Alpha in (0,1]. Ablation baseline: it smears the
// moving object into the background, which the harness quantifies.
type RunningMean struct {
	// Alpha is the per-frame learning rate; values ≤ 0 select 0.1.
	Alpha float64
}

var _ Estimator = (*RunningMean)(nil)

// Estimate implements Estimator.
func (r *RunningMean) Estimate(frames []*imaging.Image) (*imaging.Image, error) {
	if len(frames) == 0 {
		return nil, ErrNoFrames
	}
	if err := checkSameSize(frames); err != nil {
		return nil, err
	}
	alpha := r.Alpha
	if alpha <= 0 {
		alpha = 0.1
	}
	w, h := frames[0].W, frames[0].H
	n := w * h
	accR := make([]float64, n)
	accG := make([]float64, n)
	accB := make([]float64, n)
	for i, p := range frames[0].Pix {
		accR[i], accG[i], accB[i] = float64(p.R), float64(p.G), float64(p.B)
	}
	for _, f := range frames[1:] {
		for i, p := range f.Pix {
			accR[i] += alpha * (float64(p.R) - accR[i])
			accG[i] += alpha * (float64(p.G) - accG[i])
			accB[i] += alpha * (float64(p.B) - accB[i])
		}
	}
	bg := imaging.NewImage(w, h)
	for i := range bg.Pix {
		bg.Pix[i] = imaging.Color{R: uint8(accR[i] + 0.5), G: uint8(accG[i] + 0.5), B: uint8(accB[i] + 0.5)}
	}
	return bg, nil
}

// DefaultSubtractThreshold is the calibrated foreground threshold of Step 2,
// background subtraction, which package segmentation runs (DESIGN.md §7).
const DefaultSubtractThreshold = 28

// RMSE returns the root-mean-square error between two images over all
// channels; the harness uses it to compare estimated and true backgrounds.
func RMSE(a, b *imaging.Image) (float64, error) {
	if !a.SameSize(b) {
		return 0, fmt.Errorf("rmse: %w", imaging.ErrSizeMismatch)
	}
	var sum float64
	for i := range a.Pix {
		dr := float64(a.Pix[i].R) - float64(b.Pix[i].R)
		dg := float64(a.Pix[i].G) - float64(b.Pix[i].G)
		db := float64(a.Pix[i].B) - float64(b.Pix[i].B)
		sum += dr*dr + dg*dg + db*db
	}
	n := float64(len(a.Pix) * 3)
	return math.Sqrt(sum / n), nil
}

func checkSameSize(frames []*imaging.Image) error {
	for i, f := range frames[1:] {
		if !frames[0].SameSize(f) {
			return fmt.Errorf("frame %d is %dx%d, frame 0 is %dx%d: %w",
				i+1, f.W, f.H, frames[0].W, frames[0].H, imaging.ErrSizeMismatch)
		}
	}
	return nil
}

// pixelSamples holds one pixel's samples per channel, at most one per
// frame, and the per-channel histograms its medians count into. An
// estimator makes one per call and reuses it for every pixel, so the
// per-pixel work allocates nothing.
type pixelSamples struct {
	r, g, b []uint8
	hist    [3][256]int32 // all zero between median calls
}

func newPixelSamples(frames int) *pixelSamples {
	return &pixelSamples{r: make([]uint8, frames), g: make([]uint8, frames), b: make([]uint8, frames)}
}

// temporalMedian returns the per-channel lower median of pixel i over all
// frames.
func (s *pixelSamples) temporalMedian(frames []*imaging.Image, i int) imaging.Color {
	for k, f := range frames {
		c := f.Pix[i]
		s.r[k], s.g[k], s.b[k] = c.R, c.G, c.B
	}
	return s.median(len(frames))
}

// median returns the per-channel lower median of the first n ≥ 1 samples:
// the smallest value whose cumulative count reaches (n+1)/2. The three
// channels count in one pass, each into its own histogram, and each scan
// and clear touches only that channel's observed min..max range.
func (s *pixelSamples) median(n int) imaging.Color {
	r, g, b := s.r[:n], s.g[:n], s.b[:n]
	g, b = g[:len(r)], b[:len(r)] // one length, so the loop needs no bounds checks
	hr, hg, hb := &s.hist[0], &s.hist[1], &s.hist[2]
	rlo, rhi, glo, ghi, blo, bhi := r[0], r[0], g[0], g[0], b[0], b[0]
	for k := range r {
		x, y, z := r[k], g[k], b[k]
		hr[x]++
		hg[y]++
		hb[z]++
		rlo, rhi = min(rlo, x), max(rhi, x)
		glo, ghi = min(glo, y), max(ghi, y)
		blo, bhi = min(blo, z), max(bhi, z)
	}
	half := int32(n+1) / 2
	return imaging.Color{R: lowerMedian(hr, rlo, rhi, half), G: lowerMedian(hg, glo, ghi, half), B: lowerMedian(hb, blo, bhi, half)}
}

// lowerMedian scans hist from lo for the first value whose cumulative
// count reaches half, then zeroes hist[lo..hi].
func lowerMedian(hist *[256]int32, lo, hi uint8, half int32) uint8 {
	med := lo
	for run := hist[med]; run < half; run += hist[med] {
		med++
	}
	clear(hist[lo : int(hi)+1])
	return med
}
