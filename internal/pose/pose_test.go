package pose

import (
	"math"
	"testing"

	"github.com/sljmotion/sljmotion/internal/segmentation"
	"github.com/sljmotion/sljmotion/internal/stickmodel"
)

// fastConfig shrinks the GA for unit-test speed while keeping behaviour.
func fastConfig() Config {
	cfg := DefaultConfig()
	cfg.Population = 40
	cfg.Generations = 40
	cfg.Patience = 10
	cfg.RefineRounds = 1
	return cfg
}

// cleanSilhouette rasterises a pose into a noise-free silhouette — the
// idealised segmentation output.
func cleanSilhouette(t *testing.T, p stickmodel.Pose, d stickmodel.Dimensions, w, h int) segmentation.Silhouette {
	t.Helper()
	m := p.Rasterize(d, w, h)
	if m.Empty() {
		t.Fatal("test pose rasterised empty")
	}
	return segmentation.NewSilhouette(0, m)
}

func crouchPose(cx, cy float64) stickmodel.Pose {
	p := stickmodel.Pose{X: cx, Y: cy}
	p.Rho[stickmodel.Trunk] = 40
	p.Rho[stickmodel.Neck] = 35
	p.Rho[stickmodel.Head] = 28
	p.Rho[stickmodel.UpperArm] = 280
	p.Rho[stickmodel.Forearm] = 225
	p.Rho[stickmodel.Thigh] = 140
	p.Rho[stickmodel.Shank] = 210
	p.Rho[stickmodel.Foot] = 95
	return p
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.DeltaXY = 0 },
		func(c *Config) { c.MinContainment = 1.1 },
		func(c *Config) { c.ColdMinContainment = -0.1 },
		func(c *Config) { c.PointStride = 0 },
		func(c *Config) { c.Population = 1 },
		func(c *Config) { c.Generations = 0 },
		func(c *Config) { c.TemporalLambda = -1 },
		func(c *Config) { c.ExploreFraction = 2 },
		func(c *Config) { c.RefineRounds = -1 },
		func(c *Config) { c.AnatomyLambda = -0.5 },
		func(c *Config) { c.DeltaXY = math.NaN() },
		func(c *Config) { c.MinContainment = math.NaN() },
		func(c *Config) { c.ColdMinContainment = math.NaN() },
		func(c *Config) { c.TemporalLambda = math.NaN() },
		func(c *Config) { c.ExploreFraction = math.NaN() },
		func(c *Config) { c.AnatomyLambda = math.NaN() },
	}
	for l := range stickmodel.NumSticks {
		bad = append(bad,
			func(c *Config) { c.DeltaRho[l] = 0 },
			func(c *Config) { c.DeltaRho[l] = math.NaN() })
	}
	for i, mod := range bad {
		cfg := DefaultConfig()
		mod(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d should be invalid", i)
		}
	}
}

func TestFitnessPrefersTruePose(t *testing.T) {
	d := stickmodel.ChildDimensions(60)
	truth := crouchPose(70, 70)
	sil := cleanSilhouette(t, truth, d, 140, 140)
	est, err := NewEstimator(d, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	fTrue, err := est.Fitness(truth, sil)
	if err != nil {
		t.Fatal(err)
	}
	wrong := truth
	wrong.Rho[stickmodel.UpperArm] += 120
	wrong.Rho[stickmodel.Thigh] += 60
	fWrong, err := est.Fitness(wrong, sil)
	if err != nil {
		t.Fatal(err)
	}
	if fTrue >= fWrong {
		t.Errorf("Eq.3 fitness must prefer the generating pose: true %.4f vs wrong %.4f", fTrue, fWrong)
	}
}

func TestFitnessEmptySilhouette(t *testing.T) {
	d := stickmodel.ChildDimensions(60)
	est, err := NewEstimator(d, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	empty := segmentation.NewSilhouette(0, crouchPose(0, 0).Rasterize(d, 10, 10))
	// Pose far off-canvas yields an empty mask.
	if empty.Area != 0 {
		t.Skip("unexpectedly non-empty")
	}
	if _, err := est.Fitness(crouchPose(5, 5), empty); err == nil {
		t.Error("empty silhouette must error")
	}
}

func TestCalibrateAdjustsDimensions(t *testing.T) {
	trueDims := stickmodel.ChildDimensions(64)
	truth := crouchPose(70, 80)
	sil := cleanSilhouette(t, truth, trueDims, 150, 150)

	// Prior with wrong thicknesses.
	prior := trueDims
	for i := 0; i < stickmodel.NumSticks; i++ {
		prior.Thick[i] *= 1.5
	}
	est, err := NewEstimator(prior, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	calibrated, err := est.Calibrate(sil, truth)
	if err != nil {
		t.Fatal(err)
	}
	trunkErrBefore := math.Abs(prior.Thick[stickmodel.Trunk] - trueDims.Thick[stickmodel.Trunk])
	trunkErrAfter := math.Abs(calibrated.Thick[stickmodel.Trunk] - trueDims.Thick[stickmodel.Trunk])
	if trunkErrAfter >= trunkErrBefore {
		t.Errorf("calibration did not improve trunk thickness: %.2f -> %.2f", trunkErrBefore, trunkErrAfter)
	}
	if est.Dimensions() != calibrated {
		t.Error("estimator must adopt calibrated dimensions")
	}
}

func TestCalibrateEmptySilhouette(t *testing.T) {
	d := stickmodel.ChildDimensions(60)
	est, err := NewEstimator(d, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	empty := segmentation.Silhouette{}
	if _, err := est.Calibrate(empty, crouchPose(0, 0)); err == nil {
		t.Error("empty silhouette must error")
	}
}

func TestEstimateNextTracksSmallMotion(t *testing.T) {
	d := stickmodel.ChildDimensions(60)
	prev := crouchPose(70, 70)
	next := prev
	next.X += 4
	next.Rho[stickmodel.UpperArm] += 18
	next.Rho[stickmodel.Thigh] -= 10
	next.Rho[stickmodel.Shank] += 8
	sil := cleanSilhouette(t, next, d, 140, 140)

	est, err := NewEstimator(d, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	got, err := est.EstimateNext(sil, prev)
	if err != nil {
		t.Fatal(err)
	}
	for l := 0; l < stickmodel.NumSticks; l++ {
		diff := math.Abs(stickmodel.AngleDiff(next.Rho[l], got.Pose.Rho[l]))
		if diff > 25 {
			t.Errorf("stick %v error %.1f° > 25°", stickmodel.StickID(l), diff)
		}
	}
	if got.GA == nil || got.GA.Evaluations == 0 {
		t.Error("GA result missing")
	}
}

func TestEstimateNextEmptySilhouette(t *testing.T) {
	d := stickmodel.ChildDimensions(60)
	est, err := NewEstimator(d, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	empty := segmentation.NewSilhouette(0, crouchPose(500, 500).Rasterize(d, 20, 20))
	if _, err := est.EstimateNext(empty, crouchPose(10, 10)); err == nil {
		t.Error("empty silhouette must error")
	}
}

func TestEstimateSequenceChainsFrames(t *testing.T) {
	d := stickmodel.ChildDimensions(56)
	p0 := crouchPose(60, 70)
	p1 := p0.Translate(5, -2)
	p1.Rho[stickmodel.UpperArm] -= 25
	p2 := p1.Translate(5, -2)
	p2.Rho[stickmodel.UpperArm] -= 25

	sils := []segmentation.Silhouette{
		cleanSilhouette(t, p0, d, 160, 140),
		cleanSilhouette(t, p1, d, 160, 140),
		cleanSilhouette(t, p2, d, 160, 140),
	}
	est, err := NewEstimator(d, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	out, err := est.EstimateSequence(sils, p0)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("got %d estimates", len(out))
	}
	if out[0].Pose != p0 {
		t.Error("frame 0 must echo the manual pose")
	}
	var evals, hits, misses int
	for _, e := range out[1:] {
		evals += e.GA.Evaluations
		hits += e.GA.MemoHits
		misses += e.GA.MemoMisses
	}
	if hits+misses != evals {
		t.Errorf("memo accounting broken: hits %d + misses %d != evals %d", hits, misses, evals)
	}
	if hits == 0 {
		t.Error("memoization produced no hits on a tracked sequence")
	}
	for k, truth := range []stickmodel.Pose{p0, p1, p2} {
		diff := math.Abs(stickmodel.AngleDiff(truth.Rho[stickmodel.UpperArm], out[k].Pose.Rho[stickmodel.UpperArm]))
		if diff > 25 {
			t.Errorf("frame %d arm error %.1f°", k, diff)
		}
	}
	if _, err := est.EstimateSequence(nil, p0); err == nil {
		t.Error("empty sequence must error")
	}
}

func TestEstimateColdFindsPose(t *testing.T) {
	d := stickmodel.ChildDimensions(60)
	truth := crouchPose(70, 70)
	sil := cleanSilhouette(t, truth, d, 140, 140)
	cfg := fastConfig()
	cfg.ColdGenerations = 120
	est, err := NewEstimator(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := est.EstimateCold(sil)
	if err != nil {
		t.Fatal(err)
	}
	// Cold start only needs to land a plausible fit: centre near the
	// silhouette and fitness comparable to the generating pose's.
	fTrue, err := est.Fitness(truth, sil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Fitness > fTrue*2.5 {
		t.Errorf("cold fitness %.4f far above truth %.4f", got.Fitness, fTrue)
	}
	if math.Hypot(got.Pose.X-truth.X, got.Pose.Y-truth.Y) > 25 {
		t.Errorf("cold centre (%f,%f) far from truth (%f,%f)",
			got.Pose.X, got.Pose.Y, truth.X, truth.Y)
	}
}

func TestTemporalBeatsColdInConvergence(t *testing.T) {
	// The paper's headline: with temporal seeding the best model appears
	// within the first few generations; cold start needs far longer.
	d := stickmodel.ChildDimensions(60)
	prev := crouchPose(70, 70)
	cur := prev.Translate(3, -1)
	cur.Rho[stickmodel.UpperArm] += 10
	sil := cleanSilhouette(t, cur, d, 140, 140)

	cfg := fastConfig()
	cfg.RefineRounds = 0 // compare pure GA convergence
	est, err := NewEstimator(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := est.EstimateNext(sil, prev)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := est.EstimateCold(sil)
	if err != nil {
		t.Fatal(err)
	}
	// Temporal seeding starts from an almost-correct population: its
	// initial best must already be better than the cold start's.
	if warm.GA.History[0] >= cold.GA.History[0] {
		t.Errorf("temporal initial population %.4f not better than cold %.4f",
			warm.GA.History[0], cold.GA.History[0])
	}
}

func TestExtrapolate(t *testing.T) {
	a := crouchPose(10, 10)
	b := a.Translate(5, 2)
	b.Rho[stickmodel.UpperArm] = stickmodel.NormalizeAngle(a.Rho[stickmodel.UpperArm] + 20)
	pred := extrapolate(a, b)
	if math.Abs(pred.X-(b.X+4)) > 1e-9 { // damping 0.8 × velocity 5
		t.Errorf("pred.X = %v", pred.X)
	}
	wantArm := stickmodel.NormalizeAngle(b.Rho[stickmodel.UpperArm] + 16)
	if math.Abs(stickmodel.AngleDiff(pred.Rho[stickmodel.UpperArm], wantArm)) > 1e-9 {
		t.Errorf("pred arm = %v, want %v", pred.Rho[stickmodel.UpperArm], wantArm)
	}
}

func TestAnatomyPenalty(t *testing.T) {
	p := crouchPose(0, 0)
	p.Rho[stickmodel.Neck] = 30
	p.Rho[stickmodel.Head] = 30
	p.Rho[stickmodel.UpperArm] = 200
	p.Rho[stickmodel.Forearm] = 180 // flexion +20, natural
	if got := anatomyPenalty(p); got != 0 {
		t.Errorf("natural pose penalty = %v, want 0", got)
	}
	p.Rho[stickmodel.Head] = 80 // 50° head-neck mismatch
	if got := anatomyPenalty(p); got <= 0 {
		t.Error("head-neck mismatch not penalised")
	}
	q := crouchPose(0, 0)
	q.Rho[stickmodel.UpperArm] = 180
	q.Rho[stickmodel.Forearm] = 230 // hyper-extension
	if got := anatomyPenalty(q); got <= 0 {
		t.Error("elbow hyper-extension not penalised")
	}
}

func TestSoftWindowPenalty(t *testing.T) {
	anchor := crouchPose(0, 0)
	var conf [stickmodel.NumSticks]float64
	for i := range conf {
		conf[i] = 1
	}
	deltaRho := DefaultConfig().DeltaRho
	if got := softWindowPenalty(anchor, anchor, deltaRho, conf); got != 0 {
		t.Errorf("identical poses penalty = %v", got)
	}
	moved := anchor
	moved.Rho[stickmodel.UpperArm] += 60 // exactly one window
	got := softWindowPenalty(moved, anchor, deltaRho, conf)
	want := 1.0 / stickmodel.NumSticks
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("one-window move penalty = %v, want %v", got, want)
	}
	flipped := anchor
	flipped.Rho[stickmodel.UpperArm] += 180
	if softWindowPenalty(flipped, anchor, deltaRho, conf) <= got {
		t.Error("flip must cost more than a window move")
	}
}

func TestStickConfidenceObservability(t *testing.T) {
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
	conf := est.stickConfidence(fitnessOver(pts, d), truth)
	for l := 0; l < stickmodel.NumSticks; l++ {
		if conf[l] < confFloor || conf[l] > 1 {
			t.Errorf("conf[%d] = %v outside [%v,1]", l, conf[l], confFloor)
		}
	}
	// The trunk (large, defining the torso) must be clearly observable in a
	// crouch silhouette.
	if conf[stickmodel.Trunk] < 0.9 {
		t.Errorf("trunk confidence %v unexpectedly low", conf[stickmodel.Trunk])
	}
}

func TestPointStrideSubsampling(t *testing.T) {
	d := stickmodel.ChildDimensions(60)
	truth := crouchPose(70, 70)
	sil := cleanSilhouette(t, truth, d, 140, 140)
	cfg := fastConfig()
	cfg.PointStride = 1
	est1, err := NewEstimator(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.PointStride = 3
	est3, err := NewEstimator(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := est1.silhouettePoints(sil)
	if err != nil {
		t.Fatal(err)
	}
	p3, err := est3.silhouettePoints(sil)
	if err != nil {
		t.Fatal(err)
	}
	if len(p3) >= len(p1) {
		t.Errorf("stride 3 points %d not fewer than stride 1 %d", len(p3), len(p1))
	}
	// Eq. (3) is an average: values with different strides stay close.
	f1 := fitnessOver(p1, d)(truth)
	f3 := fitnessOver(p3, d)(truth)
	if math.Abs(f1-f3) > 0.05 {
		t.Errorf("stride changed the fitness scale: %.4f vs %.4f", f1, f3)
	}
}
