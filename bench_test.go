// Benchmarks: one target per figure and table of the paper's evaluation
// (DESIGN.md §4). Each bench times the hot path of its experiment on the
// canonical synthetic workload; cmd/slj-bench regenerates the full
// paper-vs-measured reports built on the same code.
package sljmotion_test

import (
	"testing"

	"github.com/sljmotion/sljmotion/internal/background"
	"github.com/sljmotion/sljmotion/internal/core"
	"github.com/sljmotion/sljmotion/internal/hsv"
	"github.com/sljmotion/sljmotion/internal/pose"
	"github.com/sljmotion/sljmotion/internal/scoring"
	"github.com/sljmotion/sljmotion/internal/segmentation"
	"github.com/sljmotion/sljmotion/internal/shadow"
	"github.com/sljmotion/sljmotion/internal/stickmodel"
	"github.com/sljmotion/sljmotion/internal/synth"
	"github.com/sljmotion/sljmotion/internal/track"
)

// benchVideo renders the canonical clip once per benchmark.
func benchVideo(b *testing.B) *synth.Video {
	b.Helper()
	v, err := synth.Generate(synth.DefaultJumpParams())
	if err != nil {
		b.Fatal(err)
	}
	return v
}

func benchSilhouettes(b *testing.B, v *synth.Video) []segmentation.Silhouette {
	b.Helper()
	pipe, err := segmentation.New(segmentation.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	sils, err := pipe.Run(v.Frames)
	if err != nil {
		b.Fatal(err)
	}
	return sils
}

// BenchmarkFigure1BackgroundEstimation times Step 1 (change detection) over
// the 20-frame clip — the workload behind Figure 1.
func BenchmarkFigure1BackgroundEstimation(b *testing.B) {
	v := benchVideo(b)
	est := &background.ChangeDetection{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := est.Estimate(v.Frames); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure2ForegroundStages times Steps 2-5 on a single frame
// against a known background — the per-frame cost behind Figure 2.
func BenchmarkFigure2ForegroundStages(b *testing.B) {
	v := benchVideo(b)
	pipe, err := segmentation.New(segmentation.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pipe.SegmentFrame(v.Frames[8], v.Background); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure3ShadowRemoval times the Eq. (1) shadow test on the
// landing frame's foreground (body and cast shadow) — the workload behind
// Figure 3 — as Step 5 runs it: IsShadow on each foreground pixel's HSV
// pair.
func BenchmarkFigure3ShadowRemoval(b *testing.B) {
	v := benchVideo(b)
	det, err := shadow.NewDetector(shadow.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	frame := v.Frames[14]
	var fg []int
	for i, body := range v.BodyMasks[14].Bits {
		if body || v.ShadowMasks[14].Bits[i] {
			fg = append(fg, i)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		for _, p := range fg {
			if det.IsShadow(hsv.FromRGB(frame.Pix[p]), hsv.FromRGB(v.Background.Pix[p])) {
				n++
			}
		}
		if n == 0 {
			b.Fatal("no shadow pixel detected")
		}
	}
}

// BenchmarkFigure4StickModel times forward kinematics plus capsule
// rasterisation of the stick model of Figure 4.
func BenchmarkFigure4StickModel(b *testing.B) {
	d := stickmodel.ChildDimensions(66)
	var p stickmodel.Pose
	p.X, p.Y = 96, 72
	p.Rho = [stickmodel.NumSticks]float64{5, 10, 185, 178, 8, 178, 182, 95}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := p.Rasterize(d, 192, 144)
		if m.Empty() {
			b.Fatal("empty raster")
		}
	}
}

// BenchmarkFigure5AngleConvention times the Dir/AngleOf round-trip sweep of
// the Figure 5 angle convention.
func BenchmarkFigure5AngleConvention(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for deg := 0.0; deg < 360; deg++ {
			if stickmodel.AngleOf(stickmodel.Dir(deg)) < 0 {
				b.Fatal("negative angle")
			}
		}
	}
}

// BenchmarkFigure6SilhouetteSequence times the full five-step segmentation
// of the whole clip — the workload behind Figure 6.
func BenchmarkFigure6SilhouetteSequence(b *testing.B) {
	v := benchVideo(b)
	pipe, err := segmentation.New(segmentation.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pipe.Run(v.Frames); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure7GAPoseEstimation times one temporally seeded GA fit
// (frame 2 from the manual first frame) — the workload behind Figure 7.
func BenchmarkFigure7GAPoseEstimation(b *testing.B) {
	v := benchVideo(b)
	sils := benchSilhouettes(b, v)
	manual := v.ManualAnnotation(synth.DefaultAnnotationError(), 1)
	est, err := pose.NewEstimator(v.Dims, pose.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	if _, err := est.Calibrate(sils[0], manual); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := est.EstimateNext(sils[1], manual); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1Standards times the construction and cross-validation of
// the Table 1 standards against the Table 2 rules.
func BenchmarkTable1Standards(b *testing.B) {
	for i := 0; i < b.N; i++ {
		std := scoring.Standards()
		rules := scoring.Rules()
		if len(std) != 7 || len(rules) != 7 {
			b.Fatal("tables wrong")
		}
	}
}

// BenchmarkTable2ScoringRules times rule evaluation over a 20-frame pose
// sequence — the workload behind Table 2.
func BenchmarkTable2ScoringRules(b *testing.B) {
	v := benchVideo(b)
	scorer := scoring.NewScorer()
	initW, airW := track.FixedWindows(len(v.Truth))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := scorer.Score(v.Truth, initW, airW); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationSeeding times the cold-start GA baseline of [5]
// (experiment A1's expensive arm).
func BenchmarkAblationSeeding(b *testing.B) {
	v := benchVideo(b)
	sils := benchSilhouettes(b, v)
	est, err := pose.NewEstimator(v.Dims, pose.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	manual := v.ManualAnnotation(synth.DefaultAnnotationError(), 1)
	if _, err := est.Calibrate(sils[0], manual); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := est.EstimateCold(sils[1]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationBackground times the temporal-median estimator
// (experiment A2's strongest alternative).
func BenchmarkAblationBackground(b *testing.B) {
	v := benchVideo(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (background.Median{}).Estimate(v.Frames); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationShadow times Steps 2-4 without shadow removal
// (experiment A3's ablated pipeline) for contrast with Figure 2's bench.
func BenchmarkAblationShadow(b *testing.B) {
	v := benchVideo(b)
	cfg := segmentation.DefaultConfig()
	cfg.DisableShadowRemoval = true
	pipe, err := segmentation.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pipe.SegmentFrame(v.Frames[8], v.Background); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEq3Fitness times a single evaluation of the paper's fitness
// function (Eq. 3) — the innermost hot path of pose estimation: mean over
// silhouette points of the thickness-normalised distance to the nearest
// stick.
func BenchmarkEq3Fitness(b *testing.B) {
	v := benchVideo(b)
	sils := benchSilhouettes(b, v)
	est, err := pose.NewEstimator(v.Dims, pose.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := est.Fitness(v.Truth[8], sils[8]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkContainment times the chromosome validity check ("not in the
// boundary of the silhouette") that gates every GA offspring.
func BenchmarkContainment(b *testing.B) {
	v := benchVideo(b)
	mask := v.BodyMasks[8]
	p := v.Truth[8]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if p.ContainmentFraction(v.Dims, mask) <= 0 {
			b.Fatal("containment broken")
		}
	}
}

// BenchmarkEndToEndAnalyze times the complete system (Sections 2-4) on one
// clip: segmentation, calibrated GA tracking of all frames, phase
// detection, scoring.
func BenchmarkEndToEndAnalyze(b *testing.B) {
	v := benchVideo(b)
	manual := v.ManualAnnotation(synth.DefaultAnnotationError(), 1)
	an, err := core.New(core.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := an.Analyze(v.Frames, manual); err != nil {
			b.Fatal(err)
		}
	}
}
