package background

import (
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

	// Random short clips with small noise: every stable count from 1 to
	// len-1 occurs, even and odd, under several thresholds.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		nf := 2 + rng.Intn(12)
		tau := rng.Intn(12)
		var frames []*imaging.Image
		base := imaging.NewImage(9, 7)
		for i := range base.Pix {
			base.Pix[i] = imaging.Color{R: uint8(rng.Intn(256)), G: uint8(rng.Intn(256)), B: uint8(rng.Intn(256))}
		}
		for k := 0; k < nf; k++ {
			f := base.Clone()
			for i := range f.Pix {
				d := rng.Intn(17) - 8
				c := f.Pix[i]
				f.Pix[i] = imaging.Color{R: clamp8(int(c.R) + d), G: clamp8(int(c.G) - d), B: clamp8(int(c.B) + 2*d)}
			}
			frames = append(frames, f)
		}
		got, err := (&ChangeDetection{StabilityThreshold: tau}).Estimate(frames)
		if err != nil {
			t.Fatal(err)
		}
		assertSameImage(t, "random", got, referenceChangeDetection(frames, tau))
	}
}
