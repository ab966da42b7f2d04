package core

import (
	"math/rand"
	"strconv"
	"testing"

	"github.com/sljmotion/sljmotion/internal/imaging"
	"github.com/sljmotion/sljmotion/internal/pose"
	"github.com/sljmotion/sljmotion/internal/synth"
)

// TestAnalyzeSurvivesDroppedFrames simulates a camera hiccup: two frames
// missing from the middle of the clip. The pipeline must still produce a
// full analysis (poses chain over the gap thanks to the seeding windows and
// the containment relaxation fallback).
func TestAnalyzeSurvivesDroppedFrames(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline")
	}
	v, err := synth.Generate(synth.DefaultJumpParams())
	if err != nil {
		t.Fatal(err)
	}
	frames := make([]*imaging.Image, 0, len(v.Frames)-2)
	frames = append(frames, v.Frames[:7]...)
	frames = append(frames, v.Frames[9:]...) // drop frames 7 and 8

	an, err := New(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	manual := v.ManualAnnotation(synth.DefaultAnnotationError(), 5)
	res, err := an.Analyze(frames, manual)
	if err != nil {
		t.Fatalf("dropped-frame clip failed: %v", err)
	}
	if len(res.Poses) != len(frames) {
		t.Error("missing poses")
	}
	if res.Report == nil {
		t.Error("missing report")
	}
}

// TestAnalyzeSurvivesCorruptedFrame blasts one frame with heavy noise — a
// transmission glitch. Segmentation of that frame degrades but the clip
// analysis must complete.
func TestAnalyzeSurvivesCorruptedFrame(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline")
	}
	v, err := synth.Generate(synth.DefaultJumpParams())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	corrupt := v.Frames[11].Clone()
	for i := range corrupt.Pix {
		if rng.Float64() < 0.15 {
			corrupt.Pix[i] = imaging.Color{
				R: uint8(rng.Intn(256)), G: uint8(rng.Intn(256)), B: uint8(rng.Intn(256)),
			}
		}
	}
	frames := append([]*imaging.Image(nil), v.Frames...)
	frames[11] = corrupt

	an, err := New(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	manual := v.ManualAnnotation(synth.DefaultAnnotationError(), 5)
	res, err := an.Analyze(frames, manual)
	if err != nil {
		t.Fatalf("corrupted-frame clip failed: %v", err)
	}
	if len(res.Poses) != len(frames) {
		t.Error("missing poses")
	}
}

// TestAnalyzePartialOcclusion erases a vertical strip from every frame (a
// pole between camera and jumper). Segmentation loses those columns; the
// analysis must still complete with sane output.
func TestAnalyzePartialOcclusion(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline")
	}
	v, err := synth.Generate(synth.DefaultJumpParams())
	if err != nil {
		t.Fatal(err)
	}
	pole := imaging.Rect{X0: 88, Y0: 0, X1: 92, Y1: v.Params.H - 1}
	frames := make([]*imaging.Image, len(v.Frames))
	for k, f := range v.Frames {
		c := f.Clone()
		imaging.FillRect(c, pole, imaging.Color{R: 90, G: 88, B: 86})
		frames[k] = c
	}

	an, err := New(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	manual := v.ManualAnnotation(synth.DefaultAnnotationError(), 5)
	res, err := an.Analyze(frames, manual)
	if err != nil {
		t.Fatalf("occluded clip failed: %v", err)
	}
	// The jump still moves rightward past the pole.
	if res.Track.JumpDistancePx < v.Params.JumpPx*0.5 {
		t.Errorf("distance %.1f px collapsed under occlusion", res.Track.JumpDistancePx)
	}
}

// TestAnalyzeHoldsPoseOnUnseedableFrame is a clip whose segmentation keeps
// only about half the jumper on frames 5 and 7 (area ~300 px against
// ~550-600), so no GA seed meets even the most relaxed containment bound on
// frame 7. The clip must still be analysed: that frame holds the previous
// pose, marked like frame 0 (no GA detail, Eq. (3) of the held pose).
func TestAnalyzeHoldsPoseOnUnseedableFrame(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline")
	}
	p := synth.DefaultJumpParams()
	p.Defects.NoKneeBend = true
	p.BodyHeight = 69.60651141194393
	p.Seed = 7746114969739454977
	v, err := synth.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	// The annotation as a two-decimal truth file carries it.
	manual := v.ManualAnnotation(synth.DefaultAnnotationError(), 1)
	round2 := func(x float64) float64 {
		r, _ := strconv.ParseFloat(strconv.FormatFloat(x, 'f', 2, 64), 64)
		return r
	}
	manual.X, manual.Y = round2(manual.X), round2(manual.Y)
	for l := range manual.Rho {
		manual.Rho[l] = round2(manual.Rho[l])
	}

	an, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := an.Analyze(v.Frames, manual)
	if err != nil {
		t.Fatalf("clip failed: %v", err)
	}
	held := res.Estimates[7]
	if held.GA != nil {
		t.Fatal("frame 7 was fitted; this clip is meant to exercise the held-pose fallback")
	}
	if held.Pose != res.Estimates[6].Pose {
		t.Errorf("frame 7 pose %+v, want frame 6's %+v", held.Pose, res.Estimates[6].Pose)
	}
	est, err := pose.NewEstimator(res.Dimensions, DefaultConfig().Pose)
	if err != nil {
		t.Fatal(err)
	}
	want, err := est.Fitness(held.Pose, res.Silhouettes[7])
	if err != nil {
		t.Fatal(err)
	}
	if held.Fitness != want {
		t.Errorf("frame 7 fitness %v, want Eq. (3) of the held pose %v", held.Fitness, want)
	}
	if res.Report == nil {
		t.Error("missing report")
	}
}
