package background

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/sljmotion/sljmotion/internal/imaging"
	"github.com/sljmotion/sljmotion/internal/synth"
)

// referenceChangeDetection is the original Step 1 estimator, kept as the
// oracle for ChangeDetection.Estimate: per-pixel slices of stable colours,
// a 256-bin median per channel, and referenceMedian's temporal median for
// pixels that are never stable.
func referenceChangeDetection(frames []*imaging.Image, tau int) *imaging.Image {
	if len(frames) == 1 {
		return frames[0].Clone()
	}
	if tau <= 0 {
		tau = DefaultStabilityThreshold
	}
	w, h := frames[0].W, frames[0].H
	n := w * h
	stable := make([][]imaging.Color, n)
	for k := 0; k+1 < len(frames); k++ {
		a, b := frames[k], frames[k+1]
		for i := 0; i < n; i++ {
			if a.Pix[i].MaxChanDiff(b.Pix[i]) <= tau {
				stable[i] = append(stable[i], b.Pix[i])
			}
		}
	}
	bg := referenceMedian(frames)
	for i := 0; i < n; i++ {
		if len(stable[i]) > 0 {
			bg.Pix[i] = referenceMedianColor(stable[i])
		}
	}
	return bg
}

// referenceMedian is the original temporal-median estimator, the oracle
// for Median.Estimate.
func referenceMedian(frames []*imaging.Image) *imaging.Image {
	bg := imaging.NewImage(frames[0].W, frames[0].H)
	for i := range bg.Pix {
		var obs []imaging.Color
		for _, f := range frames {
			obs = append(obs, f.Pix[i])
		}
		bg.Pix[i] = referenceMedianColor(obs)
	}
	return bg
}

func referenceMedianColor(obs []imaging.Color) imaging.Color {
	var rs, gs, bs []uint8
	for _, c := range obs {
		rs = append(rs, c.R)
		gs = append(gs, c.G)
		bs = append(bs, c.B)
	}
	return imaging.Color{R: referenceMedianU8(rs), G: referenceMedianU8(gs), B: referenceMedianU8(bs)}
}

// referenceMedianU8 is the original 256-bin lower median.
func referenceMedianU8(v []uint8) uint8 {
	var hist [256]int
	for _, x := range v {
		hist[x]++
	}
	half := (len(v) + 1) / 2
	run := 0
	for i, c := range hist {
		run += c
		if run >= half {
			return uint8(i)
		}
	}
	return 0
}

// histogramEstimate is the per-pixel histogram Step 1 that the bit-plane
// select replaced, kept as a second oracle and as the baseline of
// BenchmarkStep1: tau < 0 gives the temporal median.
func histogramEstimate(frames []*imaging.Image, tau int) *imaging.Image {
	bg := imaging.NewImage(frames[0].W, frames[0].H)
	s := newPixelSamples(len(frames))
	for i := range bg.Pix {
		// Gather pixel i's stable observations: the later colour of every
		// consecutive pair that agrees within tau.
		n := 0
		prev := frames[0].Pix[i]
		for _, f := range frames[1:] {
			cur := f.Pix[i]
			if prev.MaxChanDiff(cur) <= tau {
				s.r[n], s.g[n], s.b[n] = cur.R, cur.G, cur.B
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
	return bg
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

func assertSameImage(t *testing.T, name string, got, want *imaging.Image) {
	t.Helper()
	if !got.SameSize(want) {
		t.Fatalf("%s: size %dx%d, want %dx%d", name, got.W, got.H, want.W, want.H)
	}
	for i := range want.Pix {
		if got.Pix[i] != want.Pix[i] {
			t.Fatalf("%s: pixel %d = %v, want %v", name, i, got.Pix[i], want.Pix[i])
		}
	}
}

func TestChangeDetectionMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		p := synth.DefaultJumpParams()
		p.Seed = seed
		v, err := synth.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		// The whole clip plus the prefixes an ingest session estimates
		// while chunks arrive.
		for _, k := range []int{2, 4, 8, len(v.Frames)} {
			got, err := (&ChangeDetection{}).Estimate(v.Frames[:k])
			if err != nil {
				t.Fatal(err)
			}
			assertSameImage(t, "synth", got, referenceChangeDetection(v.Frames[:k], 0))
			med, err := Median{}.Estimate(v.Frames[:k])
			if err != nil {
				t.Fatal(err)
			}
			assertSameImage(t, "median", med, referenceMedian(v.Frames[:k]))
		}
	}
}

func TestChangeDetectionMatchesReferenceEdgeCases(t *testing.T) {
	// Four pixels over a handful of frames, tau 6:
	//   0: always stable at the extremes, 0 and 255 per channel;
	//   1: never stable (alternates 0/255), so it takes the fallback;
	//   2: stable on some pairs only, with varying values;
	//   3: all samples equal.
	rgb := func(r, g, b uint8) imaging.Color { return imaging.Color{R: r, G: g, B: b} }
	seq := [][4]imaging.Color{
		{rgb(0, 255, 0), rgb(0, 0, 0), rgb(10, 20, 30), rgb(7, 7, 7)},
		{rgb(0, 255, 0), rgb(255, 255, 255), rgb(12, 24, 28), rgb(7, 7, 7)},
		{rgb(0, 255, 1), rgb(0, 0, 0), rgb(90, 90, 90), rgb(7, 7, 7)},
		{rgb(0, 254, 0), rgb(255, 255, 255), rgb(94, 85, 91), rgb(7, 7, 7)},
		{rgb(1, 255, 0), rgb(0, 0, 0), rgb(92, 88, 95), rgb(7, 7, 7)},
		{rgb(0, 255, 255), rgb(255, 255, 255), rgb(30, 30, 30), rgb(7, 7, 7)},
	}
	for n := 1; n <= len(seq); n++ {
		var frames []*imaging.Image
		for _, row := range seq[:n] {
			f := imaging.NewImage(2, 2)
			copy(f.Pix, row[:])
			frames = append(frames, f)
		}
		got, err := (&ChangeDetection{}).Estimate(frames)
		if err != nil {
			t.Fatal(err)
		}
		assertSameImage(t, "edge", got, referenceChangeDetection(frames, 0))
		if n >= 2 && got.Pix[3] != (imaging.Color{R: 7, G: 7, B: 7}) {
			t.Errorf("%d frames: all-equal pixel = %v", n, got.Pix[3])
		}
	}

	// Random clips on a 9×7 image, which ends in a partial group of 7
	// pixels. Most pixels are noisy around a base colour, so every stable
	// count occurs, even and odd; a few alternate between 0 and 255 (never
	// stable) or sit at an extreme.
	rng := rand.New(rand.NewSource(7))
	check := func(nf, tau int, median bool) {
		t.Helper()
		base := imaging.NewImage(9, 7)
		for i := range base.Pix {
			base.Pix[i] = imaging.Color{R: uint8(rng.Intn(256)), G: uint8(rng.Intn(256)), B: uint8(rng.Intn(256))}
		}
		var frames []*imaging.Image
		for k := 0; k < nf; k++ {
			f := base.Clone()
			for i := range f.Pix {
				d := rng.Intn(17) - 8
				c := f.Pix[i]
				switch i % 9 {
				case 3:
					f.Pix[i] = imaging.Color{R: uint8(k % 2 * 255), G: uint8(k % 2 * 255), B: uint8((k + 1) % 2 * 255)}
				case 5:
					f.Pix[i] = imaging.Color{R: 255, G: 0, B: 255}
				default:
					f.Pix[i] = imaging.Color{R: clamp8(int(c.R) + d), G: clamp8(int(c.G) - d), B: clamp8(int(c.B) + 2*d)}
				}
			}
			frames = append(frames, f)
		}
		want := referenceChangeDetection(frames, tau)
		got, err := (&ChangeDetection{StabilityThreshold: tau}).Estimate(frames)
		if err != nil {
			t.Fatal(err)
		}
		assertSameImage(t, fmt.Sprintf("%d frames, tau %d", nf, tau), got, want)
		if tau > 0 {
			assertSameImage(t, fmt.Sprintf("histogram, %d frames, tau %d", nf, tau), histogramEstimate(frames, tau), want)
		}
		if median {
			med, err := Median{}.Estimate(frames)
			if err != nil {
				t.Fatal(err)
			}
			assertSameImage(t, fmt.Sprintf("median, %d frames", nf), med, referenceMedian(frames))
		}
	}

	// Short clips under small thresholds.
	for trial := 0; trial < 40; trial++ {
		check(2+rng.Intn(12), rng.Intn(12), false)
	}
	// Every threshold over counts across the select's boundaries: 8-frame
	// rows, 64 frames, and the 31 rows (248 frames) that byte counts add
	// up over before a byte could wrap at 256.
	counts := []int{1, 2, 3, 7, 8, 9, 16, 17, 31, 32, 33, 63, 64, 65, 247, 248, 249, 256, 257}
	taus := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 254, 255, 300}
	for _, nf := range counts {
		for i, tau := range taus {
			check(nf, tau, i == 0)
		}
	}
}

// BenchmarkStep1 times the bit-plane select against the histogram oracle
// it replaced, on the canonical 20-frame clip, in one binary so the two
// can be compared run for run.
func BenchmarkStep1(b *testing.B) {
	v, err := synth.Generate(synth.DefaultJumpParams())
	if err != nil {
		b.Fatal(err)
	}
	b.Run("select", func(b *testing.B) {
		est := &ChangeDetection{}
		for i := 0; i < b.N; i++ {
			if _, err := est.Estimate(v.Frames); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("histogram", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			histogramEstimate(v.Frames, DefaultStabilityThreshold)
		}
	})
}
