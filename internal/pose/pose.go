// Package pose implements the paper's GA-based pose estimation (Section 3):
// the silhouette-fit fitness of Eq. (3), temporal seeding of the initial
// population from the preceding frame (the paper's modification of Shoji et
// al. [5]), a cold-start estimator reproducing [5] as the baseline, and
// first-frame calibration from a human-drawn stick figure.
package pose

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strconv"

	"github.com/sljmotion/sljmotion/internal/ga"
	"github.com/sljmotion/sljmotion/internal/imaging"
	"github.com/sljmotion/sljmotion/internal/obs"
	"github.com/sljmotion/sljmotion/internal/segmentation"
	"github.com/sljmotion/sljmotion/internal/stickmodel"
)

// Config parameterises the estimator. Use DefaultConfig as the base.
type Config struct {
	// DeltaXY is the half-size of the rectangle around the silhouette
	// centroid from which initial trunk centres are drawn ("points from the
	// rectangle {(xc-Δx, yc-Δy), (xc+Δx, yc+Δy)}").
	DeltaXY float64
	// DeltaRho is the per-stick angular seeding window ±Δρl around the
	// previous frame's angle, "determined by the nature of connected joints".
	DeltaRho [stickmodel.NumSticks]float64
	// MinContainment is the fraction of stick samples that must fall inside
	// the silhouette for a chromosome to be valid (temporal mode).
	MinContainment float64
	// ColdMinContainment is the laxer validity bound used when seeding with
	// no temporal prior, where most random chromosomes are far off.
	ColdMinContainment float64
	// PointStride subsamples silhouette points for the fitness sum
	// (1 = every pixel). Eq. (3) averages, so subsampling preserves scale.
	PointStride int
	// Population, Generations, CrossoverRate, MutationRate, EliteFraction
	// configure the GA (paper: crossover 0.2, mutation 0.01, elitism).
	Population    int
	Generations   int
	CrossoverRate float64
	MutationRate  float64
	EliteFraction float64
	// Patience stops evolution after this many generations without
	// improvement; 0 disables.
	Patience int
	// ColdGenerations is the budget for the no-temporal-information
	// baseline (paper [5]: "a proper stick model ... in 200 generations").
	ColdGenerations int
	// ClampToWindow keeps the whole temporal search — not only the initial
	// population — hard-inside prev±Δρ (and the ±Δx,Δy rectangle). The
	// paper only seeds inside the window. Clamping suppresses flips of
	// momentarily unobservable sticks but also prevents re-locking once the
	// chain falls behind a fast swing, so the default uses the soft
	// quadratic prior (TemporalLambda) instead. Ablation benches quantify
	// both choices.
	ClampToWindow bool
	// UseVelocity seeds part of the initial population around a
	// constant-velocity extrapolation of the two preceding poses, letting
	// the tracker keep up with the fast arm swing at takeoff. Extension to
	// the paper's single-previous-frame seeding; ablatable.
	UseVelocity bool
	// TemporalLambda weights the soft temporal prior added to Eq. (3)
	// during temporal estimation: λ · mean_l c_l·min(Δl/Δρl, 2.5)², where Δl
	// is the shortest-arc change of stick l from the anchor pose and c_l its
	// observability weight (stickConfidence). Motion within the
	// joint-mobility window is nearly free; flips are expensive but not
	// impossible, so a strong silhouette signal can still win.
	// 0 reproduces the paper's pure silhouette fitness.
	TemporalLambda float64
	// ExploreFraction is the fraction of initial seeds whose limb angles
	// (arms and legs) are drawn uniformly from the full circle instead of
	// the temporal window. These keep the alternative interpretation of an
	// ambiguous silhouette represented in the population, allowing
	// recovery after tracking loss.
	ExploreFraction float64
	// RefineRounds is the number of group-coordinate refinement rounds run
	// on the GA result during temporal estimation. 0 reproduces the
	// paper's pure GA output; small values escape coordinated local optima
	// (trunk-lean + arm-flip) that grouped crossover cannot assemble.
	RefineRounds int
	// Parallelism is the fitness-evaluation worker count handed to the GA.
	// The evolution stays deterministic (genome construction is serial);
	// only Eq. (3) evaluations fan out. <= 1 evaluates sequentially.
	Parallelism int
	// AnatomyLambda weights two weak anatomical priors: the head should
	// roughly continue the neck (|ρ1−ρ4| small) and the elbow should not
	// hyper-extend (ρ5 should not exceed ρ2 by much). Both resolve
	// assignment ambiguities of short or collinear sticks that the
	// silhouette alone cannot disambiguate. 0 disables (paper-pure).
	AnatomyLambda float64
	// RandSeed makes runs reproducible.
	RandSeed int64
}

// DefaultConfig returns the calibrated configuration (DESIGN.md §7).
func DefaultConfig() Config {
	return Config{
		DeltaXY: 6,
		DeltaRho: [stickmodel.NumSticks]float64{
			stickmodel.Trunk:    20,
			stickmodel.Neck:     20,
			stickmodel.UpperArm: 60, // arms swing fastest during the drive
			stickmodel.Thigh:    35,
			stickmodel.Head:     20,
			stickmodel.Forearm:  60,
			stickmodel.Shank:    35,
			stickmodel.Foot:     25,
		},
		MinContainment:     0.85,
		ColdMinContainment: 0.55,
		PointStride:        2,
		Population:         80,
		Generations:        100,
		CrossoverRate:      0.2,
		MutationRate:       0.01,
		EliteFraction:      0.15,
		Patience:           20,
		ColdGenerations:    200,
		ClampToWindow:      false,
		UseVelocity:        true,
		TemporalLambda:     0.03,
		ExploreFraction:    0.25,
		RefineRounds:       2,
		AnatomyLambda:      0.02,
		RandSeed:           1,
	}
}

// Validate rejects unusable configurations.
func (c Config) Validate() error {
	// Comparisons are negated so that NaN, which fails every comparison,
	// is rejected too.
	if !(c.DeltaXY > 0) {
		return fmt.Errorf("pose: DeltaXY must be > 0, got %v", c.DeltaXY)
	}
	for l, d := range c.DeltaRho {
		if !(d > 0) {
			return fmt.Errorf("pose: DeltaRho[%d] must be > 0, got %v", l, d)
		}
	}
	if !(c.MinContainment >= 0 && c.MinContainment <= 1) {
		return fmt.Errorf("pose: MinContainment must be in [0,1], got %v", c.MinContainment)
	}
	if !(c.ColdMinContainment >= 0 && c.ColdMinContainment <= 1) {
		return fmt.Errorf("pose: ColdMinContainment must be in [0,1], got %v", c.ColdMinContainment)
	}
	if c.PointStride < 1 {
		return fmt.Errorf("pose: PointStride must be >= 1, got %d", c.PointStride)
	}
	if c.Population < 2 {
		return fmt.Errorf("pose: Population must be >= 2, got %d", c.Population)
	}
	if c.Generations < 1 || c.ColdGenerations < 1 {
		return fmt.Errorf("pose: generation budgets must be >= 1")
	}
	if !(c.TemporalLambda >= 0) {
		return fmt.Errorf("pose: TemporalLambda must be >= 0, got %v", c.TemporalLambda)
	}
	if !(c.ExploreFraction >= 0 && c.ExploreFraction <= 1) {
		return fmt.Errorf("pose: ExploreFraction must be in [0,1], got %v", c.ExploreFraction)
	}
	if c.RefineRounds < 0 {
		return fmt.Errorf("pose: RefineRounds must be >= 0, got %d", c.RefineRounds)
	}
	if !(c.AnatomyLambda >= 0) {
		return fmt.Errorf("pose: AnatomyLambda must be >= 0, got %v", c.AnatomyLambda)
	}
	if c.Parallelism < 0 {
		return fmt.Errorf("pose: Parallelism must be >= 0, got %d", c.Parallelism)
	}
	return nil
}

// Estimate is the outcome of fitting one frame.
type Estimate struct {
	Pose    stickmodel.Pose
	Fitness float64
	// GA carries convergence details (history, BestFoundAt, evaluations).
	GA *ga.Result
}

// Estimator fits stick models to silhouettes. An Estimator is not safe for
// concurrent use: it owns scratch rasterization buffers (the GA itself may
// still fan fitness evaluations across goroutines via Config.Parallelism).
type Estimator struct {
	cfg   Config
	dims  stickmodel.Dimensions
	arena stickmodel.Arena
}

// ErrEmptySilhouette is returned when a frame contains no foreground.
var ErrEmptySilhouette = errors.New("pose: empty silhouette")

// NewEstimator builds an estimator with the given body dimensions prior.
func NewEstimator(dims stickmodel.Dimensions, cfg Config) (*Estimator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Estimator{cfg: cfg, dims: dims}, nil
}

// Dimensions returns the current body dimensions.
func (e *Estimator) Dimensions() stickmodel.Dimensions { return e.dims }

// Config returns the estimator configuration.
func (e *Estimator) Config() Config { return e.cfg }

// Calibrate implements the paper's first-frame step: "a trained person is
// asked to draw the stick figure for the human object in the first frame",
// from which stick lengths and the per-stick area thicknesses tl of Eq. (3)
// are estimated. It updates the estimator's dimensions and returns them.
func (e *Estimator) Calibrate(sil segmentation.Silhouette, manual stickmodel.Pose) (stickmodel.Dimensions, error) {
	if sil.Mask == nil || sil.Area == 0 {
		return e.dims, ErrEmptySilhouette
	}
	d := stickmodel.EstimateLengthsArena(manual, e.dims, sil.Mask, &e.arena)
	d = stickmodel.EstimateThickness(manual, d, sil.Mask)
	e.dims = d
	return d, nil
}

// Fitness evaluates Eq. (3) for an arbitrary pose against a silhouette:
// FS = (Σ_points min_l d(point, Sl)/tl) / N.
func (e *Estimator) Fitness(p stickmodel.Pose, sil segmentation.Silhouette) (float64, error) {
	pts, err := e.silhouettePoints(sil)
	if err != nil {
		return 0, err
	}
	return newFitKernel(pts, e.dims).Eval(p), nil
}

// EstimateNext fits the silhouette with the initial population derived from
// the preceding frame's pose — the paper's temporal seeding. prev is the
// estimated (or manually drawn) pose of frame k-1.
func (e *Estimator) EstimateNext(sil segmentation.Silhouette, prev stickmodel.Pose) (*Estimate, error) {
	return e.estimateTemporal(sil, prev, nil)
}

// EstimateNextTracked is EstimateNext with an additional frame of history:
// prev2 is the pose at frame k-2, enabling constant-velocity extrapolation
// when Config.UseVelocity is set.
func (e *Estimator) EstimateNextTracked(sil segmentation.Silhouette, prev, prev2 stickmodel.Pose) (*Estimate, error) {
	if !e.cfg.UseVelocity {
		return e.estimateTemporal(sil, prev, nil)
	}
	pred := extrapolate(prev2, prev)
	return e.estimateTemporal(sil, prev, &pred)
}

// estimateTemporal implements the temporally seeded GA. pred, when non-nil,
// is a constant-velocity prediction used as a second seeding anchor.
func (e *Estimator) estimateTemporal(sil segmentation.Silhouette, prev stickmodel.Pose, pred *stickmodel.Pose) (*Estimate, error) {
	pts, err := e.silhouettePoints(sil)
	if err != nil {
		return nil, err
	}
	kern := newFitKernel(pts, e.dims)
	anchor := prev
	if pred != nil {
		anchor = *pred
	}
	lambda := e.cfg.TemporalLambda
	anatomy := e.cfg.AnatomyLambda
	// priors returns a candidate's temporal and anatomical prior terms,
	// which every evaluator adds to Eq. (3) in this order: the full kernel
	// for the GA, the partial kernels for the refinement scans.
	var priors priorTerms
	if lambda > 0 || anatomy > 0 {
		deltaRho := e.cfg.DeltaRho
		// Observability weighting: a stick whose angle barely affects
		// Eq. (3) at the anchor (it is buried inside the silhouette) gets a
		// weak prior so the tracker can re-lock once it emerges; a clearly
		// observable stick keeps the full prior. The floor keeps hidden
		// sticks from random-walking.
		var conf [stickmodel.NumSticks]float64
		if lambda > 0 {
			conf = e.stickConfidence(kern.Eval, anchor)
		}
		priors = func(p stickmodel.Pose) (a, b float64) {
			if lambda > 0 {
				a = lambda * softWindowPenalty(p, anchor, deltaRho, conf)
			}
			if anatomy > 0 {
				b = anatomy * anatomyPenalty(p)
			}
			return a, b
		}
	}
	objective := kern.objective(priors)
	full := objective(prev, allSticks)
	fit := func(p stickmodel.Pose) float64 { return full(p, math.Inf(1)) }

	// Seed centres around the centroid corrected by the model-based offset
	// between the previous pose centre and its own silhouette centroid, so
	// a trunk centre that sits off-centroid (crouched poses) is predicted
	// correctly.
	cx, cy := sil.Centroid.X, sil.Centroid.Y
	if off, ok := e.centroidOffset(prev, sil.Mask.W, sil.Mask.H); ok {
		cx += off.X
		cy += off.Y
	}

	anchors := []stickmodel.Pose{prev}
	if pred != nil {
		anchors = append(anchors, *pred)
	}

	seed := func(rng *rand.Rand) ga.Genome {
		base := anchors[rng.Intn(len(anchors))]
		// Multi-scale seeding: each draw uses a scale in (0,1], so seeds
		// arbitrarily close to the anchors always occur and rejection
		// sampling terminates even for tight silhouettes.
		s := rng.Float64()
		var p stickmodel.Pose
		p.X = cx + (rng.Float64()*2-1)*e.cfg.DeltaXY*s
		p.Y = cy + (rng.Float64()*2-1)*e.cfg.DeltaXY*s
		for l := 0; l < stickmodel.NumSticks; l++ {
			p.Rho[l] = stickmodel.NormalizeAngle(base.Rho[l] + (rng.Float64()*2-1)*e.cfg.DeltaRho[l]*s)
		}
		// Exploration seeds re-aim exactly one kinematic chain at a random
		// silhouette point (a cheap inverse-kinematics hypothesis), keeping
		// the rest anchored. This keeps alternative interpretations of an
		// ambiguous silhouette represented in the population, so the
		// tracker can recover after losing a fast-swinging limb.
		if rng.Float64() < e.cfg.ExploreFraction {
			e.aimChainAtSilhouette(rng, &p, pts)
		}
		return p.Genome()
	}

	var window *searchWindow
	if e.cfg.ClampToWindow {
		window = &searchWindow{
			anchors: anchors, cx: cx, cy: cy,
			deltaXY: e.cfg.DeltaXY, deltaRho: e.cfg.DeltaRho,
		}
	}
	est, err := e.run(sil, fit, seed, e.cfg.MinContainment, e.cfg.Generations, window)
	if err != nil {
		return nil, err
	}
	if e.cfg.RefineRounds > 0 {
		dims, mask, minContain := e.dims, sil.Mask, e.cfg.MinContainment
		valid := func(p stickmodel.Pose) bool {
			return p.ContainedAtLeast(dims, mask, minContain)
		}
		// Each scan scores only the sticks it moves against the rest of
		// the pose, precomputed once per scan or, in a joint scan, once
		// per outer angle (fitKernel.scanEval), and stops scoring a
		// candidate once it provably loses to the best so far.
		refined := refinePose(est.Pose, objective, valid, e.cfg.RefineRounds)
		est.Pose = refined.Normalize()
		est.Fitness = fit(refined)
	}
	return est, nil
}

// centroidOffset computes (pose centre − rasterised-silhouette centroid) for
// the previous pose, the model-based correction applied to the current
// centroid when predicting the new trunk centre.
func (e *Estimator) centroidOffset(prev stickmodel.Pose, w, h int) (imaging.Vec2, bool) {
	m := e.arena.Mask(w, h)
	prev.RasterizeInto(e.dims, m)
	mx, my, ok := m.Centroid()
	if !ok {
		return imaging.Vec2{}, false
	}
	return imaging.Vec2{X: prev.X - mx, Y: prev.Y - my}, true
}

// extrapolate predicts the next pose under damped constant velocity.
func extrapolate(prev2, prev stickmodel.Pose) stickmodel.Pose {
	const damping = 0.8
	out := stickmodel.Pose{
		X: prev.X + damping*(prev.X-prev2.X),
		Y: prev.Y + damping*(prev.Y-prev2.Y),
	}
	for l := 0; l < stickmodel.NumSticks; l++ {
		vel := stickmodel.AngleDiff(prev2.Rho[l], prev.Rho[l])
		out.Rho[l] = stickmodel.NormalizeAngle(prev.Rho[l] + damping*vel)
	}
	return out
}

// searchWindow bounds the temporal search around the seeding anchors.
type searchWindow struct {
	anchors  []stickmodel.Pose
	cx, cy   float64
	deltaXY  float64
	deltaRho [stickmodel.NumSticks]float64
}

// contains reports whether the pose stays within the temporal window of at
// least one anchor. A small slack on the centre rectangle keeps mutation
// from being rejected at the boundary too aggressively.
func (w *searchWindow) contains(p stickmodel.Pose) bool {
	const slack = 1.5
	if math.Abs(p.X-w.cx) > w.deltaXY*slack || math.Abs(p.Y-w.cy) > w.deltaXY*slack {
		return false
	}
anchors:
	for _, a := range w.anchors {
		for l := 0; l < stickmodel.NumSticks; l++ {
			if math.Abs(stickmodel.AngleDiff(a.Rho[l], p.Rho[l])) > w.deltaRho[l] {
				continue anchors
			}
		}
		return true
	}
	return false
}

// softWindowPenalty is the quadratic temporal prior: the confidence-weighted
// mean over sticks of min(Δl/Δρl, 2.5)², where Δl is the shortest-arc change
// from the anchor and Δρl the joint-mobility window. Motion inside the
// window is nearly free; flips are expensive but recoverable.
func softWindowPenalty(p, anchor stickmodel.Pose, deltaRho, conf [stickmodel.NumSticks]float64) float64 {
	var sum float64
	for l := 0; l < stickmodel.NumSticks; l++ {
		r := math.Abs(stickmodel.AngleDiff(anchor.Rho[l], p.Rho[l])) / deltaRho[l]
		if r > 2.5 {
			r = 2.5 // cap so a recoverable flip is expensive, not fatal
		}
		sum += conf[l] * r * r
	}
	return sum / stickmodel.NumSticks
}

// anatomyPenalty encodes two weak joint-limit priors, each normalised to
// roughly [0, 4]: the head continues the neck within ±25°, and the elbow
// does not hyper-extend (forearm angle should not exceed the upper-arm angle
// by more than 10° in the clockwise-from-vertical convention).
func anatomyPenalty(p stickmodel.Pose) float64 {
	var sum float64
	if d := math.Abs(stickmodel.AngleDiff(p.Rho[stickmodel.Neck], p.Rho[stickmodel.Head])); d > 12 {
		r := (d - 12) / 90
		sum += r * r
	}
	// Hyper-extension: ρ5 rotated past ρ2 by more than 10° against the
	// natural flexion direction (flexion is ρ2−ρ5 > 0 in this convention).
	if d := stickmodel.AngleDiff(p.Rho[stickmodel.UpperArm], p.Rho[stickmodel.Forearm]); d > 10 {
		r := (d - 10) / 90
		sum += r * r
	}
	return sum
}

// Confidence weighting constants: sensitivityRef is the Eq. (3) increase
// (when a stick is perturbed by its mobility window) that counts as fully
// observable; confFloor keeps some prior on unobservable sticks.
const (
	sensitivityRef = 0.02
	confFloor      = 0.25
)

// stickConfidence probes the observability of each stick at the anchor:
// perturb the stick by ±Δρl and measure how much Eq. (3) worsens. The
// result is normalised to [confFloor, 1].
func (e *Estimator) stickConfidence(eq3 func(stickmodel.Pose) float64, anchor stickmodel.Pose) [stickmodel.NumSticks]float64 {
	base := eq3(anchor)
	var conf [stickmodel.NumSticks]float64
	for l := 0; l < stickmodel.NumSticks; l++ {
		up := anchor
		up.Rho[l] = stickmodel.NormalizeAngle(up.Rho[l] + e.cfg.DeltaRho[l])
		down := anchor
		down.Rho[l] = stickmodel.NormalizeAngle(down.Rho[l] - e.cfg.DeltaRho[l])
		sens := (eq3(up)+eq3(down))/2 - base
		c := sens / sensitivityRef
		if c < confFloor {
			c = confFloor
		}
		if c > 1 {
			c = 1
		}
		conf[l] = c
	}
	return conf
}

// aimChainAtSilhouette rewrites one kinematic chain of p so it points from
// its proximal joint toward a randomly chosen silhouette point within reach,
// with small angular jitter. Chains: the arm (shoulder→wrist) or the leg
// (hip→ankle).
func (e *Estimator) aimChainAtSilhouette(rng *rand.Rand, p *stickmodel.Pose, pts []imaging.Vec2) {
	segs := p.Segments(e.dims)
	arm := rng.Float64() < 0.5
	var origin imaging.Vec2
	var reach float64
	if arm {
		origin = segs[stickmodel.UpperArm].A // shoulder
		reach = e.dims.Length[stickmodel.UpperArm] + e.dims.Length[stickmodel.Forearm]
	} else {
		origin = segs[stickmodel.Thigh].A // hip
		reach = e.dims.Length[stickmodel.Thigh] + e.dims.Length[stickmodel.Shank]
	}
	// A handful of tries to find a target within the chain's reach annulus.
	for try := 0; try < 8; try++ {
		q := pts[rng.Intn(len(pts))]
		d := q.Dist(origin)
		if d < reach*0.45 || d > reach*1.15 {
			continue
		}
		angle := stickmodel.AngleOf(q.Sub(origin))
		if arm {
			p.Rho[stickmodel.UpperArm] = stickmodel.NormalizeAngle(angle + rng.NormFloat64()*10)
			p.Rho[stickmodel.Forearm] = stickmodel.NormalizeAngle(angle + rng.NormFloat64()*20)
		} else {
			p.Rho[stickmodel.Thigh] = stickmodel.NormalizeAngle(angle + rng.NormFloat64()*10)
			p.Rho[stickmodel.Shank] = stickmodel.NormalizeAngle(angle + rng.NormFloat64()*20)
		}
		return
	}
}

// EstimateCold reproduces the baseline of Shoji et al. [5]: no temporal
// information, the trunk centre drawn near the silhouette centroid and all
// angles drawn uniformly from [0°, 360°).
func (e *Estimator) EstimateCold(sil segmentation.Silhouette) (*Estimate, error) {
	pts, err := e.silhouettePoints(sil)
	if err != nil {
		return nil, err
	}
	fit := newFitKernel(pts, e.dims).Eval
	cx, cy := sil.Centroid.X, sil.Centroid.Y
	spread := 3 * e.cfg.DeltaXY

	seed := func(rng *rand.Rand) ga.Genome {
		var p stickmodel.Pose
		p.X = cx + (rng.Float64()*2-1)*spread
		p.Y = cy + (rng.Float64()*2-1)*spread
		for l := 0; l < stickmodel.NumSticks; l++ {
			p.Rho[l] = rng.Float64() * 360
		}
		return p.Genome()
	}

	return e.run(sil, fit, seed, e.cfg.ColdMinContainment, e.cfg.ColdGenerations, nil)
}

// EstimateSequence runs temporal estimation across a silhouette sequence.
// first is the (calibrated) pose for frame 0; the result has one estimate
// per silhouette, with index 0 echoing the first pose.
func (e *Estimator) EstimateSequence(sils []segmentation.Silhouette, first stickmodel.Pose) ([]Estimate, error) {
	return e.EstimateSequenceContext(context.Background(), sils, first)
}

// EstimateSequenceContext is EstimateSequence with cooperative cancellation:
// ctx is checked before each frame's GA fit, so a cancelled context aborts
// the sequence between frames. The temporal chain itself stays sequential —
// frame k seeds from k-1 as the paper requires.
func (e *Estimator) EstimateSequenceContext(ctx context.Context, sils []segmentation.Silhouette, first stickmodel.Pose) ([]Estimate, error) {
	if len(sils) == 0 {
		return nil, errors.New("pose: no silhouettes")
	}
	out := make([]Estimate, len(sils))
	f0, err := e.Fitness(first, sils[0])
	if err != nil {
		return nil, fmt.Errorf("frame 0: %w", err)
	}
	out[0] = Estimate{Pose: first, Fitness: f0}
	prev := first
	havePrev2 := false
	var prev2 stickmodel.Pose
	for k := 1; k < len(sils); k++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		_, span := obs.StartSpan(ctx, "ga_fit")
		span.SetAttr("frame", strconv.Itoa(k))
		var est *Estimate
		if havePrev2 {
			est, err = e.EstimateNextTracked(sils[k], prev, prev2)
		} else {
			est, err = e.EstimateNext(sils[k], prev)
		}
		span.End()
		if errors.Is(err, ga.ErrNoValidSeed) {
			// Not even the most relaxed containment bound admits a seed
			// (segmentation lost much of the jumper): hold the previous
			// pose, marked like frame 0 — no GA detail, Eq. (3) of the
			// held pose.
			var f float64
			if f, err = e.Fitness(prev, sils[k]); err == nil {
				est = &Estimate{Pose: prev, Fitness: f}
			}
		}
		if err != nil {
			return nil, fmt.Errorf("frame %d: %w", k, err)
		}
		out[k] = *est
		prev2, prev = prev, est.Pose
		havePrev2 = true
	}
	return out, nil
}

func (e *Estimator) run(sil segmentation.Silhouette, fit func(stickmodel.Pose) float64,
	seed func(*rand.Rand) ga.Genome, minContain float64, generations int,
	window *searchWindow) (*Estimate, error) {

	// Violent inter-frame motion (short clips, missed frames) can make the
	// full containment requirement unseedable; progressively relaxing it
	// yields a degraded estimate instead of a hard failure.
	var lastErr error
	for _, relax := range []float64{1, 0.85, 0.7, 0.5} {
		est, err := e.runOnce(sil, fit, seed, minContain*relax, generations, window)
		if err == nil {
			return est, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

// runOnce performs one GA fit at the containment bound minContain.
func (e *Estimator) runOnce(sil segmentation.Silhouette, fit func(stickmodel.Pose) float64,
	seed func(*rand.Rand) ga.Genome, minContain float64, generations int,
	window *searchWindow) (*Estimate, error) {

	dims := e.dims
	mask := sil.Mask
	valid := func(g ga.Genome) bool {
		p, err := stickmodel.PoseFromGenome(g)
		if err != nil {
			return false
		}
		if window != nil && !window.contains(p) {
			return false
		}
		return p.ContainedAtLeast(dims, mask, minContain)
	}
	eng, err := ga.New(ga.Spec{
		Fitness: func(g ga.Genome) float64 {
			p, err := stickmodel.PoseFromGenome(g)
			if err != nil {
				return 1e18 // unreachable for engine-produced genomes
			}
			return fit(p)
		},
		Seed:   seed,
		Valid:  valid,
		Groups: stickmodel.CrossoverGroups(),
		Mutate: e.mutateGroup,
	},
		ga.WithPopulationSize(e.cfg.Population),
		ga.WithGenerations(generations),
		ga.WithEliteFraction(e.cfg.EliteFraction),
		ga.WithCrossoverRate(e.cfg.CrossoverRate),
		ga.WithMutationRate(e.cfg.MutationRate),
		ga.WithPatience(e.cfg.Patience),
		ga.WithRandSeed(e.cfg.RandSeed),
		ga.WithMaxSeedTries(600),
		ga.WithImmigrantRate(0.08),
		ga.WithParallelism(e.cfg.Parallelism),
		ga.WithMemoization(true),
	)
	if err != nil {
		return nil, err
	}
	res, err := eng.Run()
	if err != nil {
		return nil, err
	}
	recordMemoStats(res)
	p, err := stickmodel.PoseFromGenome(res.Best)
	if err != nil {
		return nil, err
	}
	return &Estimate{Pose: p.Normalize(), Fitness: res.BestFitness, GA: res}, nil
}

// mutateGroup perturbs one crossover group: positions with sigma 2 px,
// angles with sigma Δρl/3 so mutation respects joint mobility.
func (e *Estimator) mutateGroup(rng *rand.Rand, g ga.Genome, group []int) {
	for _, gi := range group {
		switch {
		case gi < 2:
			g[gi] += rng.NormFloat64() * 2
		default:
			sigma := e.cfg.DeltaRho[gi-2] / 3
			g[gi] = stickmodel.NormalizeAngle(g[gi] + rng.NormFloat64()*sigma)
		}
	}
}

// silhouettePoints extracts silhouette pixel coordinates sampled on a
// PointStride×PointStride grid, in row-major order (the order the fitness
// kernel preserves).
func (e *Estimator) silhouettePoints(sil segmentation.Silhouette) ([]imaging.Vec2, error) {
	if sil.Mask == nil {
		return nil, ErrEmptySilhouette
	}
	m := sil.Mask
	stride := e.cfg.PointStride
	// Capacity bound: the sampling grid has ceil(W/s)·ceil(H/s) sites and
	// at most Area of them are foreground. The former Area/s²+1 estimate
	// under-allocates whenever the foreground is elongated along one axis
	// (a vertical bar of Area=H yields ceil(H/s) points, not H/s²).
	hint := ((m.W + stride - 1) / stride) * ((m.H + stride - 1) / stride)
	if sil.Area < hint {
		hint = sil.Area
	}
	pts := make([]imaging.Vec2, 0, hint)
	for y := 0; y < m.H; y += stride {
		row := y * m.W
		for x := 0; x < m.W; x += stride {
			if m.Bits[row+x] {
				pts = append(pts, imaging.Vec2{X: float64(x), Y: float64(y)})
			}
		}
	}
	if len(pts) == 0 {
		return nil, ErrEmptySilhouette
	}
	return pts, nil
}
