package segmentation

import (
	"math"
	"testing"

	"github.com/sljmotion/sljmotion/internal/background"
	"github.com/sljmotion/sljmotion/internal/imaging"
	"github.com/sljmotion/sljmotion/internal/metrics"
	"github.com/sljmotion/sljmotion/internal/synth"
)

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.NoiseMinNeighbors = 9 },
		func(c *Config) { c.NoiseMinNeighbors = -1 },
		func(c *Config) { c.SpotFraction = 1.5 },
		func(c *Config) { c.SpotFraction = math.NaN() },
		func(c *Config) { c.SpotFloor = -1 },
		func(c *Config) { c.Shadow.TauS = math.NaN() },
		func(c *Config) { c.Shadow.TauH = math.NaN() },
		func(c *Config) { c.HoleFillPasses = -1 },
		func(c *Config) { c.Shadow.Alpha = 2; c.Shadow.Beta = 1 },
	}
	for i, mod := range bad {
		cfg := DefaultConfig()
		mod(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d should be invalid", i)
		}
	}
	// Disabling shadow removal skips shadow param validation.
	cfg := DefaultConfig()
	cfg.Shadow.Alpha = 2
	cfg.DisableShadowRemoval = true
	if err := cfg.Validate(); err != nil {
		t.Errorf("shadow params must be ignored when disabled: %v", err)
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SpotFraction = -1
	if _, err := New(cfg); err == nil {
		t.Fatal("expected error")
	}
}

func TestRunRejectsEmptyInput(t *testing.T) {
	p, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(nil); err == nil {
		t.Error("expected error for empty sequence")
	}
}

// testVideo generates one small synthetic clip shared by the pipeline tests.
func testVideo(t *testing.T) *synth.Video {
	t.Helper()
	params := synth.DefaultJumpParams()
	v, err := synth.Generate(params)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestPipelineSilhouetteQuality(t *testing.T) {
	v := testVideo(t)
	p, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sils, err := p.Run(v.Frames)
	if err != nil {
		t.Fatal(err)
	}
	if len(sils) != len(v.Frames) {
		t.Fatalf("%d silhouettes for %d frames", len(sils), len(v.Frames))
	}
	for k, s := range sils {
		sc, err := metrics.CompareMasks(s.Mask, v.BodyMasks[k])
		if err != nil {
			t.Fatal(err)
		}
		if sc.IoU < 0.80 {
			t.Errorf("frame %d IoU = %.3f, want >= 0.80", k, sc.IoU)
		}
		if s.Frame != k {
			t.Errorf("silhouette %d has frame %d", k, s.Frame)
		}
		if s.Area == 0 {
			t.Errorf("frame %d empty silhouette", k)
		}
	}
}

func TestPipelineStagesImprovePrecision(t *testing.T) {
	// Figure 2's narrative: each cleanup stage raises precision against the
	// true body mask (noise → spots → holes).
	v := testVideo(t)
	p, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	_, stages, _, err := p.RunDetailed(v.Frames)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{2, 8, 15} {
		st := stages[k]
		truth := v.BodyMasks[k]
		sub, _ := metrics.CompareMasks(st.Subtracted, truth)
		den, _ := metrics.CompareMasks(st.Denoised, truth)
		spt, _ := metrics.CompareMasks(st.SpotsRemoved, truth)
		obj, _ := metrics.CompareMasks(st.Object, truth)
		if den.Precision < sub.Precision {
			t.Errorf("frame %d: denoise lowered precision %.3f -> %.3f", k, sub.Precision, den.Precision)
		}
		if spt.Precision < den.Precision {
			t.Errorf("frame %d: spot removal lowered precision %.3f -> %.3f", k, den.Precision, spt.Precision)
		}
		if obj.IoU < spt.IoU {
			t.Errorf("frame %d: final object IoU %.3f below spot stage %.3f", k, obj.IoU, spt.IoU)
		}
	}
}

func TestPipelineShadowRemovalReducesShadowPixels(t *testing.T) {
	v := testVideo(t)
	withShadow, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfgOff := DefaultConfig()
	cfgOff.DisableShadowRemoval = true
	withoutShadow, err := New(cfgOff)
	if err != nil {
		t.Fatal(err)
	}
	_, stOn, silsOn, err := withShadow.RunDetailed(v.Frames)
	if err != nil {
		t.Fatal(err)
	}
	_, _, silsOff, err := withoutShadow.RunDetailed(v.Frames)
	if err != nil {
		t.Fatal(err)
	}
	// Over the clip, the shadow detector must fire on a meaningful number
	// of pixels and the resulting objects must not be larger than the
	// shadow-blind ones on average.
	totalShadow, onArea, offArea := 0, 0, 0
	for k := range v.Frames {
		totalShadow += stOn[k].ShadowMask.Count()
		onArea += silsOn[k].Area
		offArea += silsOff[k].Area
	}
	if totalShadow == 0 {
		t.Error("shadow detector never fired on a clip with rendered shadows")
	}
	if onArea > offArea {
		t.Errorf("shadow removal grew the object: %d > %d", onArea, offArea)
	}
}

func TestPipelineCustomEstimator(t *testing.T) {
	v := testVideo(t)
	p, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	p.WithEstimator(background.Median{})
	bg, err := p.EstimateBackground(v.Frames)
	if err != nil {
		t.Fatal(err)
	}
	rmse, err := background.RMSE(bg, v.Background)
	if err != nil {
		t.Fatal(err)
	}
	if rmse > 12 {
		t.Errorf("median-estimated background RMSE %.2f too high", rmse)
	}
}

func TestSegmentFrameAgainstKnownBackground(t *testing.T) {
	v := testVideo(t)
	p, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Using the *true* background isolates Steps 2-5 from Step 1.
	st, err := p.SegmentFrame(v.Frames[10], v.Background)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := metrics.CompareMasks(st.Object, v.BodyMasks[10])
	if err != nil {
		t.Fatal(err)
	}
	if sc.IoU < 0.85 {
		t.Errorf("IoU vs true background = %.3f, want >= 0.85", sc.IoU)
	}
}

func TestNewSilhouetteStats(t *testing.T) {
	m := imaging.NewMask(10, 10)
	imaging.FillRectMask(m, imaging.Rect{X0: 2, Y0: 3, X1: 4, Y1: 5})
	s := NewSilhouette(7, m)
	if s.Frame != 7 || s.Area != 9 {
		t.Errorf("frame/area = %d/%d", s.Frame, s.Area)
	}
	if s.Centroid.X != 3 || s.Centroid.Y != 4 {
		t.Errorf("centroid = %+v", s.Centroid)
	}
	if s.BBox.W() != 3 || s.BBox.H() != 3 {
		t.Errorf("bbox = %+v", s.BBox)
	}
	empty := NewSilhouette(0, imaging.NewMask(4, 4))
	if empty.Area != 0 {
		t.Error("empty silhouette area wrong")
	}
}

// TestSegmentFramePaperRules runs hand-drawn frames through SegmentFrame and
// checks one stage's mask pixel for pixel. Each case starts from
// DefaultConfig with noise and spot removal, shadow removal and
// keep-largest off, then applies its own settings. In the drawings '#' and
// 'x' are painted in a colour far from the flat background, 's' and 'S'
// are the background darkened as a cast shadow darkens it, and '.' and '+'
// are left as background. The checked stage must set exactly the '#', '+'
// and 'S' pixels.
func TestSegmentFramePaperRules(t *testing.T) {
	denoised := func(s *StageMasks) *imaging.Mask { return s.Denoised }
	spots := func(s *StageMasks) *imaging.Mask { return s.SpotsRemoved }
	holes := func(s *StageMasks) *imaging.Mask { return s.HolesFilled }
	shadowMask := func(s *StageMasks) *imaging.Mask { return s.ShadowMask }
	object := func(s *StageMasks) *imaging.Mask { return s.Object }
	cases := []struct {
		name  string
		cfg   func(*Config)
		stage func(*StageMasks) *imaging.Mask
		rows  []string
	}{
		{"noise drops isolated pixels at a corner and an edge", func(c *Config) { c.NoiseMinNeighbors = 3 }, denoised, []string{
			"x........",
			"...###...",
			"...###..x",
			"...###...",
		}},
		{"noise threshold 0 keeps everything", nil, denoised, []string{
			"...",
			".#.",
			"...",
		}},
		{"one pass fills a 1-pixel hole", nil, holes, []string{
			".......",
			".#####.",
			".##+##.",
			".#####.",
			".......",
		}},
		{"no number of passes fills a 2x2 hole", func(c *Config) { c.HoleFillPasses = 10 }, holes, []string{
			"......",
			".####.",
			".#..#.",
			".#..#.",
			".####.",
			"......",
		}},
		{"a concavity and a frame-edge pixel stay clear", nil, holes, []string{
			"#...#....",
			".#.#.#...",
			"#........",
		}},
		{"spot bound is a fraction of the largest component", func(c *Config) { c.SpotFraction = 0.2 }, spots, []string{
			"#####.###...",
			"#####.##..xx",
			"#####.....xx",
			"#####.......",
			"#####.......",
		}},
		{"a smaller largest component lowers the spot bound", func(c *Config) { c.SpotFraction = 0.2 }, spots, []string{
			"#####.###...",
			"#####.##..##",
			"#####.....##",
			"#####.......",
		}},
		{"spot floor overrides a lower fraction bound", func(c *Config) { c.SpotFraction, c.SpotFloor = 0.2, 6 }, spots, []string{
			"#####.xxx...",
			"#####.xx..xx",
			"#####.....xx",
			"#####.......",
			"#####.......",
		}},
		{"keep-largest tie goes to the first component in raster order", func(c *Config) { c.KeepLargestOnly = true }, object, []string{
			".....##",
			"xx...##",
			"xx.....",
		}},
		{"shadow rectangle cleared, object rectangle kept", func(c *Config) { c.DisableShadowRemoval = false }, object, []string{
			"..........",
			".sss..###.",
			".sss..###.",
			".sss..###.",
			"..........",
		}},
		{"shadow mask is the shadow rectangle", func(c *Config) { c.DisableShadowRemoval = false }, shadowMask, []string{
			"..........",
			".SSS..xxx.",
			".SSS..xxx.",
			".SSS..xxx.",
			"..........",
		}},
	}
	ground := imaging.Color{R: 180, G: 150, B: 110}
	paint := imaging.Color{R: 40, G: 60, B: 140}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.NoiseMinNeighbors, cfg.SpotFraction, cfg.SpotFloor = 0, 0, 0
			cfg.DisableShadowRemoval, cfg.KeepLargestOnly = true, false
			if tc.cfg != nil {
				tc.cfg(&cfg)
			}
			p, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			w, h := len(tc.rows[0]), len(tc.rows)
			bg := imaging.NewImageFilled(w, h, ground)
			frame, want := bg.Clone(), imaging.NewMask(w, h)
			for y, row := range tc.rows {
				for x, g := range row {
					switch g {
					case '#', 'x':
						frame.Set(x, y, paint)
					case 's', 'S':
						frame.Set(x, y, ground.Scale(0.6))
					}
					want.Set(x, y, g == '#' || g == '+' || g == 'S')
				}
			}
			st, err := p.SegmentFrame(frame, bg)
			if err != nil {
				t.Fatal(err)
			}
			if d := maskDiff(tc.stage(st), want); d != "" {
				t.Fatalf("stage mask: %s", d)
			}
		})
	}
}

// TestRunWorkersMatchesSequential verifies the acceptance bar of the
// concurrent pipeline: fanning Steps 2-5 out over a worker pool must produce
// byte-identical silhouettes to the sequential path.
func TestRunWorkersMatchesSequential(t *testing.T) {
	v, err := synth.Generate(synth.DefaultJumpParams())
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	seq, err := pipe.Run(v.Frames)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2, 4} {
		par, err := pipe.RunWorkers(v.Frames, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(par) != len(seq) {
			t.Fatalf("workers=%d: %d silhouettes, want %d", workers, len(par), len(seq))
		}
		for i := range seq {
			if par[i].Frame != seq[i].Frame || par[i].Area != seq[i].Area {
				t.Fatalf("workers=%d frame %d: stats differ", workers, i)
			}
			for b, bit := range seq[i].Mask.Bits {
				if par[i].Mask.Bits[b] != bit {
					t.Fatalf("workers=%d frame %d: mask differs at pixel %d", workers, i, b)
				}
			}
		}
	}
}

// TestRunDetailedWorkersPropagatesStages checks the detailed variant keeps
// per-frame intermediate stages under the worker pool.
func TestRunDetailedWorkersPropagatesStages(t *testing.T) {
	v, err := synth.Generate(synth.DefaultJumpParams())
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	bg, stages, sils, err := pipe.RunDetailedWorkers(v.Frames, 3)
	if err != nil {
		t.Fatal(err)
	}
	if bg == nil || len(stages) != len(v.Frames) || len(sils) != len(v.Frames) {
		t.Fatalf("bg=%v stages=%d sils=%d", bg != nil, len(stages), len(sils))
	}
	for i, st := range stages {
		if st.Object == nil || st.Subtracted == nil {
			t.Fatalf("frame %d: missing stage masks", i)
		}
		if st.Object.Count() != sils[i].Area {
			t.Fatalf("frame %d: object/silhouette mismatch", i)
		}
	}
}
