package stickmodel

import (
	"math"
	"math/rand"
	"testing"

	"github.com/sljmotion/sljmotion/internal/imaging"
)

func TestRasterizeCoversJoints(t *testing.T) {
	d := ChildDimensions(60)
	p := standingPose(48, 48)
	m := p.Rasterize(d, 96, 96)
	if m.Empty() {
		t.Fatal("rasterized pose empty")
	}
	for id, j := range p.Joints(d) {
		x, y := int(j.X+0.5), int(j.Y+0.5)
		if m.In(x, y) && !m.At(x, y) {
			t.Errorf("joint %v at (%d,%d) outside silhouette", id, x, y)
		}
	}
}

func TestRasterizeScalesWithDims(t *testing.T) {
	small := standingPose(48, 48).Rasterize(ChildDimensions(30), 96, 96)
	large := standingPose(48, 48).Rasterize(ChildDimensions(60), 96, 96)
	if small.Count() >= large.Count() {
		t.Errorf("larger body must cover more pixels: %d vs %d", small.Count(), large.Count())
	}
}

func TestContainmentFraction(t *testing.T) {
	d := ChildDimensions(50)
	p := standingPose(40, 40)
	own := p.Rasterize(d, 80, 80)
	if got := p.ContainmentFraction(d, own); got < 0.999 {
		t.Errorf("pose inside own silhouette: containment %.3f, want ~1", got)
	}
	if got := p.ContainmentFraction(d, imaging.NewMask(80, 80)); got != 0 {
		t.Errorf("empty mask containment = %v, want 0", got)
	}
	// A pose shifted far away is mostly outside.
	far := p.Translate(40, 0)
	if got := far.ContainmentFraction(d, own); got > 0.5 {
		t.Errorf("shifted pose containment = %.3f, want < 0.5", got)
	}
}

// TestContainedAtLeastMatchesFraction pins the early-exit containment
// check to the full fraction at every threshold where the verdict can
// flip: each exact k/total, its neighbouring floats, and the ends.
func TestContainedAtLeastMatchesFraction(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := ChildDimensions(50)
	randomPose := func() Pose {
		p := Pose{X: 20 + 40*rng.Float64(), Y: 20 + 40*rng.Float64()}
		for l := range p.Rho {
			p.Rho[l] = 360 * rng.Float64()
		}
		return p
	}
	noise := imaging.NewMask(80, 80)
	for i := range noise.Bits {
		noise.Bits[i] = rng.Intn(2) == 0
	}
	masks := []*imaging.Mask{imaging.NewMask(80, 80), noise}
	for i := 0; i < 4; i++ {
		masks = append(masks, randomPose().Rasterize(d, 80, 80))
	}
	for i := 0; i < 40; i++ {
		p := randomPose()
		if i == 0 {
			p.X = math.NaN() // no stick yields a sample: the fraction is 0
		}
		total := 0
		for _, seg := range p.Segments(d) {
			if n := int(seg.Len()/2) + 2; n >= 0 {
				total += n + 1
			}
		}
		mins := []float64{0, 1, -1, 2, math.Inf(-1), math.Inf(1), math.NaN()}
		for k := 0; k <= total; k++ {
			x := float64(k) / float64(total)
			mins = append(mins, x, math.Nextafter(x, -1), math.Nextafter(x, 2))
		}
		for mi, m := range masks {
			frac := p.ContainmentFraction(d, m)
			for _, min := range mins {
				if got, want := p.ContainedAtLeast(d, m, min), frac >= min; got != want {
					t.Fatalf("pose %d mask %d min %v: ContainedAtLeast %v, fraction %v >= min is %v",
						i, mi, min, got, frac, want)
				}
			}
		}
	}
}

func TestDrawSkeleton(t *testing.T) {
	d := ChildDimensions(50)
	p := standingPose(40, 40)
	img := imaging.NewImage(80, 80)
	p.DrawSkeleton(img, d, imaging.Red, imaging.Green)
	red, green := 0, 0
	for _, px := range img.Pix {
		switch px {
		case imaging.Red:
			red++
		case imaging.Green:
			green++
		}
	}
	if red == 0 || green == 0 {
		t.Errorf("skeleton drawing missing sticks (%d red) or joints (%d green)", red, green)
	}
}

func TestEstimateThicknessRecoversTrueThickness(t *testing.T) {
	d := ChildDimensions(64)
	p := standingPose(60, 60)
	sil := p.Rasterize(d, 120, 120)

	// Start from a prior with wrong thicknesses and recover.
	prior := d
	for i := 0; i < NumSticks; i++ {
		prior.Thick[i] *= 1.4
	}
	est := EstimateThickness(p, prior, sil)
	// The trunk is wide and unobstructed below the arms; its estimate must
	// approach the true thickness much closer than the prior.
	trueT := d.Thick[Trunk]
	priorErr := math.Abs(prior.Thick[Trunk] - trueT)
	estErr := math.Abs(est.Thick[Trunk] - trueT)
	if estErr > priorErr*0.75 {
		t.Errorf("trunk thickness estimate %.2f (true %.2f, prior %.2f) did not improve",
			est.Thick[Trunk], trueT, prior.Thick[Trunk])
	}
	for i := 0; i < NumSticks; i++ {
		if est.Thick[i] <= 0 {
			t.Fatalf("stick %d thickness non-positive", i)
		}
	}
}

func TestEstimateThicknessEmptyMaskKeepsPrior(t *testing.T) {
	d := ChildDimensions(40)
	p := standingPose(30, 30)
	est := EstimateThickness(p, d, imaging.NewMask(60, 60))
	if est != d {
		t.Error("empty mask must keep the prior")
	}
}

func TestEstimateLengths(t *testing.T) {
	d := ChildDimensions(60)
	p := standingPose(60, 60)
	sil := p.Rasterize(d, 120, 120)

	// A prior that is 20% too small gets rescaled toward the silhouette.
	prior := d.Scale(0.8)
	est := EstimateLengths(p, prior, sil)
	if est.Length[Trunk] <= prior.Length[Trunk] {
		t.Errorf("lengths not scaled up: %v <= %v", est.Length[Trunk], prior.Length[Trunk])
	}
	// A wildly wrong prior is left alone rather than amplified.
	tiny := d.Scale(0.2)
	if got := EstimateLengths(p, tiny, sil); got != tiny {
		t.Error("out-of-range scale must keep the prior")
	}
	if got := EstimateLengths(p, d, imaging.NewMask(120, 120)); got != d {
		t.Error("empty mask must keep the prior")
	}
}
