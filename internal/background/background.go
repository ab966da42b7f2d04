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
	"encoding/binary"
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
	tau := c.StabilityThreshold
	if tau <= 0 {
		tau = DefaultStabilityThreshold
	}
	return estimateMedians(frames, tau)
}

// Median estimates the background as the per-pixel temporal median. It is a
// strong classical baseline used in ablation A2.
type Median struct{}

var _ Estimator = (*Median)(nil)

// Estimate implements Estimator.
func (Median) Estimate(frames []*imaging.Image) (*imaging.Image, error) {
	// No pair changes by less than zero, so under tau = -1 every pixel
	// takes ChangeDetection's all-frames fallback: the temporal median.
	return estimateMedians(frames, -1)
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

// estimateMedians is Step 1's one kernel. Per pixel and channel it
// selects the lower median, the ((n+1)/2)-th smallest, of the n stable
// observations under tau, or of all frames when no pair is stable.
func estimateMedians(frames []*imaging.Image, tau int) (*imaging.Image, error) {
	if len(frames) == 0 {
		return nil, ErrNoFrames
	}
	if err := checkSameSize(frames); err != nil {
		return nil, err
	}
	bg := imaging.NewImage(frames[0].W, frames[0].H)
	out := bg.Bytes()
	s := newSelector(frames, tau)
	var med [groupBytes]byte
	for off := 0; off < len(out); off += groupBytes {
		s.group(off, &med)
		copy(out[off:], med[:])
	}
	return bg, nil
}

// The selector works on groups of 8 pixels: 24 interleaved RGB bytes, read
// as 3 lane words of 8 channel samples, one per byte. A sample is one
// channel of one pixel; byte q of lane word w is sample 8w+q of the group,
// channel (8w+q)%3 of pixel (8w+q)/3.
const (
	groupBytes = 24

	lsbs    = 0x0101_0101_0101_0101 // bit 0 of each byte
	lanes16 = 0x0001_0001_0001_0001 // bit 0 of each 16-bit lane
	lanes32 = 0x0000_0001_0000_0001 // bit 0 of each 32-bit lane
	byte16  = 0xff * lanes16        // the low byte of each 16-bit lane
	byte32  = 0xff * lanes32        // the low byte of each 32-bit lane
	top16   = 0x8000 * lanes16      // the top bit of each 16-bit lane
	top32   = 0x8000_0000 * lanes32 // the top bit of each 32-bit lane
)

// selector selects a group's medians by bit-plane radix select, 8 samples
// at a time. Frame k of row g = k/8 is bit k%8 of every sample's byte in
// that row's candidate mask and bit planes. An estimator makes one per call
// and reuses it for every group, so the per-group work allocates nothing
// and branches on no sample value.
type selector struct {
	src  [][]byte // each frame's RGB bytes
	rows int      // 8-frame rows
	// stableK, stableLo and stableHi are stableFlags' 16-bit lane
	// constants for tau.
	stableK, stableLo, stableHi uint64
	// all[g] sets, in every byte, the bits of row g's frames.
	all []uint64
	// planes[(w*rows+g)*8+b]: byte q is the bit-b plane of row g's
	// frames for sample q of lane word w.
	planes []uint64
	// cand[w*rows+g]: byte q is the row-g frames that may still hold the
	// median of sample q of lane word w.
	cand []uint64
}

func newSelector(frames []*imaging.Image, tau int) *selector {
	tau = min(max(tau, -1), 255) // a change is at most 255
	rows := (len(frames) + 7) / 8
	s := &selector{
		src:      make([][]byte, len(frames)),
		rows:     rows,
		stableK:  uint64(256+tau) * lanes16,
		stableLo: uint64(0x8000-256) * lanes16,
		stableHi: uint64(0x8000-257-2*tau) * lanes16,
		all:      make([]uint64, rows),
		planes:   make([]uint64, 3*rows*8),
		cand:     make([]uint64, 3*rows),
	}
	for k, f := range frames {
		s.src[k] = f.Bytes()
		s.all[k/8] |= lsbs << (k % 8)
	}
	return s
}

// load returns frame k's group at byte offset off as 3 lane words, the
// bytes past the end of the frame zero.
func (s *selector) load(k, off int) (w0, w1, w2 uint64) {
	b := s.src[k][off:]
	if len(b) < groupBytes {
		var tail [groupBytes]byte
		copy(tail[:], b)
		b = tail[:]
	}
	return binary.LittleEndian.Uint64(b), binary.LittleEndian.Uint64(b[8:]), binary.LittleEndian.Uint64(b[16:])
}

// group writes the lower medians of the 24 samples at byte offset off to
// med. Per 8-frame row it marks each pixel's stable frames, the later
// frame of each pair whose every channel changes by at most tau, and
// transposes the samples into bit planes; then selectLane picks each lane
// word's medians.
func (s *selector) group(off int, med *[groupBytes]byte) {
	rows, nf := s.rows, len(s.src)
	p0, p1, p2 := s.load(0, off) // frame 0 closes no pair: its flags go below
	for g := 0; g < rows; g++ {
		var x [3][8]uint64
		var st0, st1, st2 uint64
		for j := range min(8, nf-8*g) {
			w0, w1, w2 := s.load(8*g+j, off)
			x[0][j], x[1][j], x[2][j] = w0, w1, w2
			st0 |= s.stableFlags(w0, p0) >> (7 - j) & (lsbs << j)
			st1 |= s.stableFlags(w1, p1) >> (7 - j) & (lsbs << j)
			st2 |= s.stableFlags(w2, p2) >> (7 - j) & (lsbs << j)
			p0, p1, p2 = w0, w1, w2
		}
		if g == 0 {
			st0, st1, st2 = st0&^lsbs, st1&^lsbs, st2&^lsbs
		}
		c0, c1, c2 := pixelAnd(st0, st1, st2)
		s.cand[g], s.cand[rows+g], s.cand[2*rows+g] = c0, c1, c2
		for w := range x {
			transposeLanes(&x[w], (*[8]uint64)(s.planes[(w*rows+g)*8:]))
		}
	}
	for w := range 3 {
		binary.LittleEndian.PutUint64(med[8*w:], s.selectLane(w))
	}
}

// stableFlags sets bit 7 of byte q when bytes q of x and y differ by at
// most tau. It works on the even and the odd bytes at once, each widened
// to a 16-bit lane: u = x-y+256+tau lies in [256, 256+2tau] exactly when
// |x-y| ≤ tau, and no lane borrows from its neighbour.
func (s *selector) stableFlags(x, y uint64) uint64 {
	ue := x&byte16 + s.stableK - y&byte16
	uo := x>>8&byte16 + s.stableK - y>>8&byte16
	// + stableLo sets a lane's top bit iff u ≥ 256, + stableHi iff
	// u > 256+2tau.
	fe := (ue + s.stableLo) &^ (ue + s.stableHi) & top16
	fo := (uo + s.stableLo) &^ (uo + s.stableHi) & top16
	return fe>>8 | fo
}

// pixelAnd ANDs the 3 sample bytes of each pixel of a group, given as its
// 3 lane words, and writes the result back to all 3.
func pixelAnd(a0, a1, a2 uint64) (c0, c1, c2 uint64) {
	// Byte 3p of the 192-bit a0|a1<<64|a2<<128 ANDed with the next two.
	b0 := a0 & (a0>>8 | a1<<56) & (a0>>16 | a1<<48) & 0x00ff_0000_ff00_00ff
	b1 := a1 & (a1>>8 | a2<<56) & (a1>>16 | a2<<48) & 0xff00_00ff_0000_ff00
	b2 := a2 & (a2 >> 8) & (a2 >> 16) & 0x0000_ff00_00ff_0000
	return b0 | b0<<8 | b0<<16,
		b1 | b1<<8 | b1<<16 | b0>>48,
		b2 | b2<<8 | b1>>56 | b2<<16 | b1>>48
}

// transposeLanes transposes the 8×8 bit matrix in each byte position of x,
// row j in x[j], into p: bit b of byte q of x[j] becomes bit j of byte q
// of p[b]. Round d swaps the off-diagonal d×d blocks (Hacker's Delight,
// §7-3, with words as the rows of every byte's matrix).
func transposeLanes(x *[8]uint64, p *[8]uint64) {
	x0, x1, x2, x3, x4, x5, x6, x7 := x[0], x[1], x[2], x[3], x[4], x[5], x[6], x[7]
	const m1, m2, m4 = 0x55 * lsbs, 0x33 * lsbs, 0x0f * lsbs
	x0, x1 = swapBlocks(x0, x1, 1, m1)
	x2, x3 = swapBlocks(x2, x3, 1, m1)
	x4, x5 = swapBlocks(x4, x5, 1, m1)
	x6, x7 = swapBlocks(x6, x7, 1, m1)
	x0, x2 = swapBlocks(x0, x2, 2, m2)
	x1, x3 = swapBlocks(x1, x3, 2, m2)
	x4, x6 = swapBlocks(x4, x6, 2, m2)
	x5, x7 = swapBlocks(x5, x7, 2, m2)
	x0, x4 = swapBlocks(x0, x4, 4, m4)
	x1, x5 = swapBlocks(x1, x5, 4, m4)
	x2, x6 = swapBlocks(x2, x6, 4, m4)
	x3, x7 = swapBlocks(x3, x7, 4, m4)
	*p = [8]uint64{x0, x1, x2, x3, x4, x5, x6, x7}
}

// swapBlocks exchanges, in every byte, the bits of a at positions b+d with
// those of b at positions b, for the b that m selects.
func swapBlocks(a, b uint64, d uint, m uint64) (uint64, uint64) {
	t := (a>>d ^ b) & m
	return a ^ t<<d, b ^ t
}

// selectLane returns the lower medians of lane word w's 8 samples, one
// per byte. It counts each sample's candidates n, falls back to all
// frames where n is 0, and sets k = (n+1)/2. Then it fixes the medians'
// bits from the most significant down: if fewer than k candidates have a
// 0 in this bit, the median has a 1 there, and the zeros, all smaller,
// drop out with their count; otherwise the ones drop out. Counts live in
// 32-bit lanes, samples q and q+4 in lane accumulator q%4.
func (s *selector) selectLane(w int) uint64 {
	rows := s.rows
	cand := s.cand[w*rows : (w+1)*rows]
	planes := s.planes[w*rows*8 : (w+1)*rows*8]

	na, nb, nc, nd := countLanes(cand, planes, -1)
	za, zb, zc, zd := below(na, lanes32), below(nb, lanes32), below(nc, lanes32), below(nd, lanes32)
	none := combineLanes(za, zb, zc, zd) // bytes of the samples with no stable frame
	for g, all := range s.all {
		cand[g] |= all & none
	}
	nf := uint64(len(s.src)) * lanes32
	half := func(n uint64) uint64 { return (n + lanes32) >> 1 & (0x7fff_ffff * lanes32) }
	ka, kb, kc, kd := half(na|nf&za), half(nb|nf&zb), half(nc|nf&zc), half(nd|nf&zd)

	var med uint64
	for b := 7; b >= 0; b-- {
		za, zb, zc, zd := countLanes(cand, planes, b)
		ma, mb, mc, md := below(za, ka), below(zb, kb), below(zc, kc), below(zd, kd)
		ka, kb, kc, kd = ka-za&ma, kb-zb&mb, kc-zc&mc, kd-zd&md
		one := combineLanes(ma, mb, mc, md) // bytes whose median has a 1 here
		med |= one & (lsbs << b)
		keep := ^one
		for g := range cand {
			cand[g] &= planes[g*8+b] ^ keep
		}
	}
	return med
}

// countLanes counts, per sample, the candidates of every row, or with
// b ≥ 0 those that have a 0 in bit b. Byte counts add up for 31 rows at
// most (31·8 < 256) before they widen into the four 32-bit lane
// accumulators.
func countLanes(cand, planes []uint64, b int) (a, bb, c, d uint64) {
	planes = planes[:len(cand)*8]
	for lo := 0; lo < len(cand); lo += 31 {
		var acc uint64
		for g := lo; g < min(lo+31, len(cand)); g++ {
			x := cand[g]
			if b >= 0 {
				x &^= planes[g*8+b]
			}
			acc += popBytes(x)
		}
		a += acc & byte32
		bb += acc >> 8 & byte32
		c += acc >> 16 & byte32
		d += acc >> 24 & byte32
	}
	return a, bb, c, d
}

// popBytes returns the population count of each byte of x in that byte.
func popBytes(x uint64) uint64 {
	x -= x >> 1 & (0x55 * lsbs)
	x = x&(0x33*lsbs) + x>>2&(0x33*lsbs)
	return (x + x>>4) & (0x0f * lsbs)
}

// below sets each 32-bit lane where z < k to all ones, z, k < 2³¹.
func below(z, k uint64) uint64 { return laneMask(((z|top32)-k)&top32 ^ top32) }

// laneMask widens the top bit of each 32-bit lane to the whole lane.
func laneMask(top uint64) uint64 { return top >> 31 * 0xffff_ffff }

// combineLanes gathers the 32-bit lane masks of the four accumulators
// back into sample order, a byte each: accumulator q%4 holds samples q and
// q+4.
func combineLanes(a, b, c, d uint64) uint64 {
	return a&byte32 | b&byte32<<8 | c&byte32<<16 | d&byte32<<24
}
