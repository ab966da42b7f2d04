package pose

import (
	"math"
	"math/rand"
	"testing"

	"github.com/sljmotion/sljmotion/internal/imaging"
	"github.com/sljmotion/sljmotion/internal/stickmodel"
)

// maskPoints replicates the estimator's silhouette sampling: row-major
// stride×stride grid points that are foreground.
func maskPoints(m *imaging.Mask, stride int) []imaging.Vec2 {
	var pts []imaging.Vec2
	for y := 0; y < m.H; y += stride {
		for x := 0; x < m.W; x += stride {
			if m.At(x, y) {
				pts = append(pts, imaging.Vec2{X: float64(x), Y: float64(y)})
			}
		}
	}
	return pts
}

func randomPose(rng *rand.Rand, w, h float64) stickmodel.Pose {
	var p stickmodel.Pose
	p.X = rng.Float64() * w
	p.Y = rng.Float64() * h
	for l := 0; l < stickmodel.NumSticks; l++ {
		p.Rho[l] = rng.Float64() * 360
	}
	return p
}

// TestKernelMatchesReferenceBitExact is the bit-identity contract of the
// fast evaluator: over random silhouettes and random candidate poses
// (including poses far off the silhouette, where pruning is most
// aggressive), fitKernel.Eval must return the exact float64 the naive
// reference produces.
func TestKernelMatchesReferenceBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	dims := stickmodel.ChildDimensions(60)
	for trial := 0; trial < 30; trial++ {
		sil := randomPose(rng, 80, 80).Rasterize(dims, 140, 140)
		stride := 1 + rng.Intn(3)
		pts := maskPoints(sil, stride)
		if len(pts) == 0 {
			continue
		}
		k := newFitKernel(pts, dims)
		ref := fitnessOver(pts, dims)
		if k.NumPoints() != len(pts) {
			t.Fatalf("NumPoints = %d, want %d", k.NumPoints(), len(pts))
		}
		for c := 0; c < 40; c++ {
			p := randomPose(rng, 160, 160)
			got, want := k.Eval(p), ref(p)
			if got != want {
				t.Fatalf("trial %d cand %d: kernel %.17g != reference %.17g (pose %+v)",
					trial, c, got, want, p)
			}
		}
	}
}

// TestKernelDegenerateSticks covers zero-length segments (l2 == 0), where
// the closest point collapses to the segment origin.
func TestKernelDegenerateSticks(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var dims stickmodel.Dimensions
	for l := 0; l < stickmodel.NumSticks; l++ {
		dims.Thick[l] = 4 // lengths all zero
	}
	pts := []imaging.Vec2{{X: 3, Y: 4}, {X: 10, Y: 0}, {X: 0, Y: 0}}
	k := newFitKernel(pts, dims)
	ref := fitnessOver(pts, dims)
	for c := 0; c < 20; c++ {
		p := randomPose(rng, 20, 20)
		if got, want := k.Eval(p), ref(p); got != want {
			t.Fatalf("degenerate sticks: kernel %.17g != reference %.17g", got, want)
		}
	}
}

func TestKernelEvalZeroAllocs(t *testing.T) {
	dims := stickmodel.ChildDimensions(60)
	truth := crouchPose(70, 70)
	sil := truth.Rasterize(dims, 140, 140)
	k := newFitKernel(maskPoints(sil, 2), dims)
	p := crouchPose(72, 69)
	allocs := testing.AllocsPerRun(50, func() { k.Eval(p) })
	if allocs != 0 {
		t.Errorf("fitKernel.Eval allocates %v/op, want 0", allocs)
	}
}

func BenchmarkFitKernelEval(b *testing.B) {
	dims := stickmodel.ChildDimensions(60)
	sil := crouchPose(70, 70).Rasterize(dims, 140, 140)
	k := newFitKernel(maskPoints(sil, 2), dims)
	p := crouchPose(72, 69)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Eval(p)
	}
}

// BenchmarkFitnessReference is the naive evaluator the kernel replaced;
// keep both benchmarks so the speedup stays visible in CI output.
func BenchmarkFitnessReference(b *testing.B) {
	dims := stickmodel.ChildDimensions(60)
	sil := crouchPose(70, 70).Rasterize(dims, 140, 140)
	ref := fitnessOver(maskPoints(sil, 2), dims)
	p := crouchPose(72, 69)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ref(p)
	}
}

// scanGroups are the stick groups the refinement scans vary, as refinePose
// passes them to scan1/scan2.
var scanGroups = [][]stickmodel.StickID{
	{stickmodel.Trunk},
	{stickmodel.Neck, stickmodel.Head},
	{stickmodel.UpperArm, stickmodel.Forearm},
	{stickmodel.Thigh, stickmodel.Shank},
	{stickmodel.Foot},
}

func TestKinematicDepsFollowChain(t *testing.T) {
	set := func(ids ...stickmodel.StickID) stickSet {
		var s stickSet
		for _, id := range ids {
			s |= 1 << id
		}
		return s
	}
	cases := []struct {
		ids  []stickmodel.StickID
		want stickSet
	}{
		{[]stickmodel.StickID{stickmodel.Trunk}, allSticks},
		{[]stickmodel.StickID{stickmodel.Neck, stickmodel.Head}, set(stickmodel.Neck, stickmodel.Head)},
		{[]stickmodel.StickID{stickmodel.UpperArm, stickmodel.Forearm}, set(stickmodel.UpperArm, stickmodel.Forearm)},
		{[]stickmodel.StickID{stickmodel.Thigh, stickmodel.Shank}, set(stickmodel.Thigh, stickmodel.Shank, stickmodel.Foot)},
		{[]stickmodel.StickID{stickmodel.Shank}, set(stickmodel.Shank, stickmodel.Foot)},
		{[]stickmodel.StickID{stickmodel.Foot}, set(stickmodel.Foot)},
	}
	for _, c := range cases {
		if got := movedBy(c.ids...); got != c.want {
			t.Errorf("movedBy(%v) = %08b, want %08b", c.ids, got, c.want)
		}
	}
}

// TestPartialKernelMatchesReferenceBitExact is the bit-identity contract of
// the incremental scan evaluator: for every scan group, at a random stride
// and at twice it, a candidate that changes exactly the
// scan's angles must score the exact float64 of the naive reference.
func TestPartialKernelMatchesReferenceBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	dims := stickmodel.ChildDimensions(60)
	compared := 0
	for trial := 0; trial < 20; trial++ {
		gen := randomPose(rng, 80, 80)
		gen.X += 30
		gen.Y += 30
		sil := gen.Rasterize(dims, 140, 140)
		stride := 1 + rng.Intn(3)
		for _, s := range []int{stride, 2 * stride} {
			pts := maskPoints(sil, s)
			if len(pts) == 0 {
				continue
			}
			k := newFitKernel(pts, dims)
			ref := fitnessOver(pts, dims)
			for _, group := range scanGroups {
				// Bases on the silhouette (where pruning against the fixed
				// minima bites) and anywhere on the canvas.
				base := randomPose(rng, 160, 160)
				if rng.Intn(2) == 0 {
					base = gen.Translate(rng.NormFloat64()*2, rng.NormFloat64()*2)
					for l := range base.Rho {
						base.Rho[l] = stickmodel.NormalizeAngle(base.Rho[l] + rng.NormFloat64()*15)
					}
				}
				eval := k.scanEval(base, movedBy(group...))
				for c := 0; c < 16; c++ {
					p := base
					for _, id := range group {
						p.Rho[id] = stickmodel.NormalizeAngle(base.Rho[id] + rng.Float64()*360)
					}
					if got, want := eval(p, 0, 0, math.Inf(1)), ref(p); got != want {
						t.Fatalf("trial %d stride %d group %v: partial %.17g != reference %.17g (base %+v, pose %+v)",
							trial, s, group, got, want, base, p)
					}
					compared++
				}
			}
		}
	}
	if compared < 1000 {
		t.Fatalf("only %d comparisons ran", compared)
	}
	t.Logf("%d partial-vs-reference comparisons", compared)
}

func TestPartialKernelEvalZeroAllocs(t *testing.T) {
	dims := stickmodel.ChildDimensions(60)
	truth := crouchPose(70, 70)
	k := newFitKernel(maskPoints(truth.Rasterize(dims, 140, 140), 2), dims)
	pk := k.partial(truth, movedBy(stickmodel.Thigh, stickmodel.Shank))
	p := truth
	p.Rho[stickmodel.Thigh] += 24
	if allocs := testing.AllocsPerRun(50, func() { pk.EvalBounded(p, 0, 0, math.Inf(1)) }); allocs != 0 {
		t.Errorf("partialKernel.EvalBounded allocates %v/op, want 0", allocs)
	}
}

// BenchmarkPartialKernelEval is one leg-scan candidate on the crouch
// silhouette; compare with BenchmarkFitKernelEval for the per-candidate
// saving of the incremental scans.
func BenchmarkPartialKernelEval(b *testing.B) {
	dims := stickmodel.ChildDimensions(60)
	truth := crouchPose(70, 70)
	k := newFitKernel(maskPoints(truth.Rasterize(dims, 140, 140), 2), dims)
	pk := k.partial(crouchPose(72, 69), movedBy(stickmodel.Thigh, stickmodel.Shank))
	p := crouchPose(72, 69)
	p.Rho[stickmodel.Thigh] += 24
	p.Rho[stickmodel.Shank] -= 12
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkFitness = pk.EvalBounded(p, 0, 0, math.Inf(1))
	}
}

var sinkFitness float64

// boundsAround returns the bounds the bounded-evaluation contract is
// checked at for a pose whose exact value is exact: both infinities, 0,
// NaN, the exact value and its float neighbours, and fractions of it that
// stop the sum part-way through.
func boundsAround(exact float64) []float64 {
	return []float64{
		math.Inf(-1), 0, math.Inf(1), math.NaN(),
		exact, math.Nextafter(exact, math.Inf(-1)), math.Nextafter(exact, math.Inf(1)),
		exact * 0.25, exact * 0.9, exact * 0.999,
	}
}

// checkBounded asserts the bounded-evaluation contract of eval at pose p
// under prior terms a, b: the unbounded value equals want bit for bit;
// under any bound it comes back exactly when it is below the bound (or the
// bound is NaN), and otherwise the result lies in [bound, exact].
func checkBounded(t *testing.T, label string, eval boundedEval, p stickmodel.Pose, a, b, want float64) (stopped int) {
	t.Helper()
	exact := eval(p, a, b, math.Inf(1))
	if math.Float64bits(exact) != math.Float64bits(want) {
		t.Fatalf("%s: unbounded %.17g != reference %.17g", label, exact, want)
	}
	for _, bound := range boundsAround(exact) {
		got := eval(p, a, b, bound)
		if exact < bound || math.IsNaN(bound) {
			if math.Float64bits(got) != math.Float64bits(exact) {
				t.Fatalf("%s bound %.17g: got %.17g, want the exact %.17g", label, bound, got, exact)
			}
			continue
		}
		if !(got >= bound && got <= exact) {
			t.Fatalf("%s bound %.17g: got %.17g, want a value in [bound, %.17g]", label, bound, got, exact)
		}
		if got != exact {
			stopped++
		}
	}
	return stopped
}

// TestEvalBoundedContract is the contract the refinement scans rely on,
// for the full and the partial kernels: over random silhouettes at strides
// 1–3 and the zero-length-stick case, with no priors, random prior terms
// and the temporal and anatomical priors, the unbounded value is the
// reference's priced value, and a bounded evaluation returns it exactly
// when it beats the bound and a value between the bound and it otherwise.
func TestEvalBoundedContract(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	deltaRho := DefaultConfig().DeltaRho
	var conf [stickmodel.NumSticks]float64
	for l := range conf {
		conf[l] = confFloor + rng.Float64()*(1-confFloor)
	}
	anchor := randomPose(rng, 160, 160)
	priorSets := map[string]priorTerms{
		"none": func(stickmodel.Pose) (a, b float64) { return 0, 0 },
		"random": func(stickmodel.Pose) (a, b float64) {
			return rng.Float64() * 0.2, rng.ExpFloat64() * 0.05
		},
		"temporal+anatomy": func(p stickmodel.Pose) (a, b float64) {
			return 0.03 * softWindowPenalty(p, anchor, deltaRho, conf), 0.02 * anatomyPenalty(p)
		},
	}
	check := func(label string, k *fitKernel, ref func(stickmodel.Pose) float64, base stickmodel.Pose, group []stickmodel.StickID, stopped *int) {
		full := k.scanEval(base, allSticks)
		part := k.scanEval(base, movedBy(group...))
		for name, priors := range priorSets {
			for c := 0; c < 4; c++ {
				p := base
				for _, id := range group {
					p.Rho[id] = stickmodel.NormalizeAngle(base.Rho[id] + rng.Float64()*360)
				}
				a, b := priors(p)
				want := ref(p)
				want += a
				want += b
				*stopped += checkBounded(t, label+" full "+name, full, p, a, b, want)
				*stopped += checkBounded(t, label+" partial "+name, part, p, a, b, want)
			}
		}
	}

	dims := stickmodel.ChildDimensions(60)
	stopped := 0
	for trial := 0; trial < 12; trial++ {
		gen := randomPose(rng, 80, 80).Translate(30, 30)
		pts := maskPoints(gen.Rasterize(dims, 140, 140), 1+trial%3)
		if len(pts) == 0 {
			continue
		}
		k := newFitKernel(pts, dims)
		ref := fitnessOver(pts, dims)
		for _, group := range scanGroups {
			base := gen.Translate(rng.NormFloat64()*2, rng.NormFloat64()*2)
			if rng.Intn(2) == 0 {
				base = randomPose(rng, 160, 160)
			}
			check("random silhouette", k, ref, base, group, &stopped)
		}
	}

	var flat stickmodel.Dimensions
	for l := range flat.Thick {
		flat.Thick[l] = 4 // every stick has zero length
	}
	pts := []imaging.Vec2{{X: 3, Y: 4}, {X: 10, Y: 0}, {X: 0, Y: 0}, {X: 7, Y: 9}}
	k := newFitKernel(pts, flat)
	for _, group := range scanGroups {
		check("zero-length sticks", k, fitnessOver(pts, flat), randomPose(rng, 20, 20), group, &stopped)
	}
	if stopped == 0 {
		t.Fatal("no bounded evaluation stopped before the last cell")
	}
	t.Logf("%d bounded evaluations stopped early", stopped)
}
