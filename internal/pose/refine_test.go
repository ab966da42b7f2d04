package pose

import (
	"math"
	"testing"

	"github.com/sljmotion/sljmotion/internal/stickmodel"
)

func TestRefineEscapesArmFlip(t *testing.T) {
	// Plant the coordinated local optimum seen in tracking: the arm flipped
	// ~170° with the rest of the pose correct. Group-coordinate refinement
	// must recover the generating pose.
	d := stickmodel.ChildDimensions(60)
	truth := crouchPose(70, 70)
	sil := cleanSilhouette(t, truth, d, 140, 140)

	est, err := NewEstimator(d, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	pts, err := est.silhouettePoints(sil)
	if err != nil {
		t.Fatal(err)
	}
	fit := fitnessOver(pts, d)
	valid := func(p stickmodel.Pose) bool {
		return p.ContainmentFraction(d, sil.Mask) >= 0.6
	}

	stuck := truth
	stuck.Rho[stickmodel.UpperArm] = stickmodel.NormalizeAngle(truth.Rho[stickmodel.UpperArm] + 170)
	stuck.Rho[stickmodel.Forearm] = stickmodel.NormalizeAngle(truth.Rho[stickmodel.Forearm] + 150)

	refined := refinePose(stuck, fullScans(fit), valid, 3)
	armErr := math.Abs(stickmodel.AngleDiff(truth.Rho[stickmodel.UpperArm], refined.Rho[stickmodel.UpperArm]))
	if armErr > 30 {
		t.Errorf("refinement left arm error %.1f°", armErr)
	}
	if fit(refined) >= fit(stuck) {
		t.Error("refinement did not improve fitness")
	}
}

func TestRefineNeverWorsens(t *testing.T) {
	d := stickmodel.ChildDimensions(60)
	truth := crouchPose(70, 70)
	sil := cleanSilhouette(t, truth, d, 140, 140)
	est, err := NewEstimator(d, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	pts, err := est.silhouettePoints(sil)
	if err != nil {
		t.Fatal(err)
	}
	fit := fitnessOver(pts, d)
	valid := func(p stickmodel.Pose) bool { return true }

	for _, start := range []stickmodel.Pose{truth, truth.Translate(2, 2)} {
		refined := refinePose(start, fullScans(fit), valid, 2)
		if fit(refined) > fit(start) {
			t.Error("refine increased fitness")
		}
	}
}

func TestRefineZeroRoundsIdentity(t *testing.T) {
	d := stickmodel.ChildDimensions(60)
	truth := crouchPose(70, 70)
	sil := cleanSilhouette(t, truth, d, 140, 140)
	est, err := NewEstimator(d, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	pts, err := est.silhouettePoints(sil)
	if err != nil {
		t.Fatal(err)
	}
	fit := fitnessOver(pts, d)
	got := refinePose(truth, fullScans(fit), func(stickmodel.Pose) bool { return true }, 0)
	if got != truth {
		t.Error("0 rounds must return the input pose")
	}
}

func TestRefineRespectsValidity(t *testing.T) {
	// With a validity predicate that rejects everything but the start, the
	// start must be returned unchanged.
	d := stickmodel.ChildDimensions(60)
	truth := crouchPose(70, 70)
	sil := cleanSilhouette(t, truth, d, 140, 140)
	est, err := NewEstimator(d, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	pts, err := est.silhouettePoints(sil)
	if err != nil {
		t.Fatal(err)
	}
	fit := fitnessOver(pts, d)
	got := refinePose(truth, fullScans(fit), func(stickmodel.Pose) bool { return false }, 2)
	if got != truth {
		t.Error("all-invalid predicate must freeze the pose")
	}
}

// fullScans is refinement with full, unbounded evaluation: every scan
// scores all eight sticks with fit and ignores its bound.
func fullScans(fit func(stickmodel.Pose) float64) scanObjective {
	return func(stickmodel.Pose, stickSet) boundedFit {
		return func(p stickmodel.Pose, _ float64) float64 { return fit(p) }
	}
}

// refinePriors are the prior terms the refinement pins run under: the
// anatomical prior alone, and the temporal window prior around an anchor
// with uneven stick confidences on top of it, as estimateTemporal prices
// candidates.
func refinePriors(anchor stickmodel.Pose) map[string]priorTerms {
	deltaRho := DefaultConfig().DeltaRho
	conf := [stickmodel.NumSticks]float64{1, 0.25, 0.6, 1, 0.25, 0.4, 0.9, 0.3}
	return map[string]priorTerms{
		"anatomy": func(p stickmodel.Pose) (a, b float64) {
			return 0, 0.02 * anatomyPenalty(p)
		},
		"temporal+anatomy": func(p stickmodel.Pose) (a, b float64) {
			return 0.03 * softWindowPenalty(p, anchor, deltaRho, conf), 0.02 * anatomyPenalty(p)
		},
	}
}

// withPriorTerms adds priors to an Eq. (3) evaluator the way
// estimateTemporal composed them before the terms moved into the kernel:
// f := eq; f += a; f += b.
func withPriorTerms(eq func(stickmodel.Pose) float64, priors priorTerms) func(stickmodel.Pose) float64 {
	return func(p stickmodel.Pose) float64 {
		a, b := priors(p)
		f := eq(p)
		f += a
		f += b
		return f
	}
}

// TestRefineIncrementalMatchesFull pins refinePose on the bounded
// incremental scan evaluators (priced with priors, as estimateTemporal
// does) to refinement with the full, unbounded reference evaluation
// fitnessOver: same pose, same fitness, at point strides 2 and 4, under
// the anatomical and the temporal prior.
func TestRefineIncrementalMatchesFull(t *testing.T) {
	d := stickmodel.ChildDimensions(60)
	truth := crouchPose(70, 70)
	sil := cleanSilhouette(t, truth, d, 140, 140)
	valid := func(p stickmodel.Pose) bool { return p.ContainmentFraction(d, sil.Mask) >= 0.6 }
	armFlip := truth
	armFlip.Rho[stickmodel.UpperArm] = stickmodel.NormalizeAngle(truth.Rho[stickmodel.UpperArm] + 170)
	armFlip.Rho[stickmodel.Forearm] = stickmodel.NormalizeAngle(truth.Rho[stickmodel.Forearm] + 150)
	legOff := truth.Translate(2, -1)
	legOff.Rho[stickmodel.Thigh] += 40
	legOff.Rho[stickmodel.Foot] -= 30
	legOff.Rho[stickmodel.Neck] += 20

	for name, priors := range refinePriors(truth.Translate(1, 1)) {
		for _, stride := range []int{2, 4} {
			pts := maskPoints(sil.Mask, stride)
			k := newFitKernel(pts, d)
			ref := withPriorTerms(fitnessOver(pts, d), priors)
			fit := withPriorTerms(k.Eval, priors)
			for i, start := range []stickmodel.Pose{truth, armFlip, legOff} {
				want := refinePose(start, fullScans(ref), valid, 2)
				got := refinePose(start, k.objective(priors), valid, 2)
				if got != want {
					t.Errorf("%s stride %d start %d: bounded incremental refine %+v, full %+v", name, stride, i, got, want)
				}
				if fit(got) != ref(want) {
					t.Errorf("%s stride %d start %d: fitness %.17g, full %.17g", name, stride, i, fit(got), ref(want))
				}
			}
		}
	}
}

// scan2SinglePartial is scan2 with one evaluator for the whole scan, the
// partial over every stick either angle moves: the reference the nested
// per-outer-angle evaluators of scan2 are pinned against.
func scan2SinglePartial(best *stickmodel.Pose, bestFit *float64, scanFit scanObjective,
	valid func(stickmodel.Pose) bool, a, b stickmodel.StickID, span, step float64) {

	base := *best
	fit := scanFit(base, movedBy(a, b))
	for da := -span; da <= span; da += step {
		for db := -span; db <= span; db += step {
			if da == 0 && db == 0 {
				continue
			}
			p := base
			p.Rho[a] = stickmodel.NormalizeAngle(base.Rho[a] + da)
			p.Rho[b] = stickmodel.NormalizeAngle(base.Rho[b] + db)
			if f := fit(p, *bestFit); f < *bestFit && valid(p) {
				*best, *bestFit = p, f
			}
		}
	}
}

// TestRefineNestedScan2MatchesSinglePartial pins every joint scan of
// refinePose, run with a fresh partial per outer angle, to the same scan
// on a single partial over both sticks: same pose, same fitness bits, at
// point strides 2 and 4 with a prior wrapped around them.
func TestRefineNestedScan2MatchesSinglePartial(t *testing.T) {
	d := stickmodel.ChildDimensions(60)
	truth := crouchPose(70, 70)
	sil := cleanSilhouette(t, truth, d, 140, 140)
	valid := func(p stickmodel.Pose) bool { return p.ContainedAtLeast(d, sil.Mask, 0.6) }
	priors := refinePriors(truth)["anatomy"]
	armFlip := truth
	armFlip.Rho[stickmodel.UpperArm] = stickmodel.NormalizeAngle(truth.Rho[stickmodel.UpperArm] + 170)
	armFlip.Rho[stickmodel.Forearm] = stickmodel.NormalizeAngle(truth.Rho[stickmodel.Forearm] + 150)
	legOff := truth.Translate(2, -1)
	legOff.Rho[stickmodel.Thigh] += 40
	legOff.Rho[stickmodel.Foot] -= 30
	legOff.Rho[stickmodel.Neck] += 20
	scans := []struct {
		a, b       stickmodel.StickID
		span, step float64
	}{
		{stickmodel.Neck, stickmodel.Head, 45, 9},
		{stickmodel.UpperArm, stickmodel.Forearm, 180, 12},
		{stickmodel.Thigh, stickmodel.Shank, 180, 12},
	}

	for _, stride := range []int{2, 4} {
		k := newFitKernel(maskPoints(sil.Mask, stride), d)
		fit := withPriorTerms(k.Eval, priors)
		scanFit := k.objective(priors)
		for i, start := range []stickmodel.Pose{truth, armFlip, legOff} {
			for _, sc := range scans {
				want, wantFit := start, fit(start)
				scan2SinglePartial(&want, &wantFit, scanFit, valid, sc.a, sc.b, sc.span, sc.step)
				got, gotFit := start, fit(start)
				scan2(&got, &gotFit, scanFit, valid, sc.a, sc.b, sc.span, sc.step)
				if got != want || math.Float64bits(gotFit) != math.Float64bits(wantFit) {
					t.Errorf("stride %d start %d scan %v×%v: nested %+v (%.17g), single partial %+v (%.17g)",
						stride, i, sc.a, sc.b, got, gotFit, want, wantFit)
				}
			}
		}
	}
}

// BenchmarkRefineScans is one frame's refinement (two rounds, as
// DefaultConfig) on the crouch silhouette from an arm-flipped start: the
// refine layer of estimateTemporal measured directly.
func BenchmarkRefineScans(b *testing.B) {
	d := stickmodel.ChildDimensions(60)
	truth := crouchPose(70, 70)
	mask := truth.Rasterize(d, 140, 140)
	k := newFitKernel(maskPoints(mask, 2), d)
	valid := func(p stickmodel.Pose) bool { return p.ContainmentFraction(d, mask) >= 0.85 }
	start := truth.Translate(1.5, -1.5)
	start.Rho[stickmodel.UpperArm] = stickmodel.NormalizeAngle(truth.Rho[stickmodel.UpperArm] + 170)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		refinePose(start, k.objective(nil), valid, DefaultConfig().RefineRounds)
	}
}
