package segmentation

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/sljmotion/sljmotion/internal/background"
	"github.com/sljmotion/sljmotion/internal/imaging"
	"github.com/sljmotion/sljmotion/internal/morphology"
	"github.com/sljmotion/sljmotion/internal/synth"
)

// denseSegment is Steps 2-5 composed from the dense whole-frame operators,
// the reference the pipeline's sparse path must match bit for bit.
func denseSegment(t *testing.T, p *Pipeline, k int, frame, bg *imaging.Image) (StageMasks, Silhouette) {
	t.Helper()
	cfg := p.Config()
	sub, err := background.Subtract(frame, bg, cfg.SubtractThreshold)
	if err != nil {
		t.Fatal(err)
	}
	den := morphology.RemoveNoise(sub, cfg.NoiseMinNeighbors)
	spots := morphology.RemoveSmallSpots(den, cfg.SpotFraction, cfg.SpotFloor, morphology.Conn8)
	holes := morphology.FillHolesN(spots, cfg.HoleFillPasses)
	if cfg.FillEnclosed {
		holes = morphology.FillEnclosed(spots)
	}
	st := StageMasks{Subtracted: sub, Denoised: den, SpotsRemoved: spots, HolesFilled: holes}
	object, sm := holes.Clone(), imaging.NewMask(frame.W, frame.H)
	if p.detector != nil {
		if object, sm, err = p.detector.Remove(frame, bg, holes); err != nil {
			t.Fatal(err)
		}
	}
	st.ShadowMask = sm
	object = morphology.FillHolesN(object, 1)
	if cfg.KeepLargestOnly {
		object = morphology.KeepLargest(object, morphology.Conn8)
	}
	st.Object = object
	return st, NewSilhouette(k, object)
}

// checkAgainstDense compares one frame's sparse result with the dense
// reference: every stage mask bit for bit, and the silhouette statistics
// (centroid by float bits).
func checkAgainstDense(t *testing.T, what string, p *Pipeline, k int, frame, bg *imaging.Image, got StageMasks, gotSil Silhouette) {
	t.Helper()
	want, wantSil := denseSegment(t, p, k, frame, bg)
	stages := []struct {
		name      string
		got, want *imaging.Mask
	}{
		{"subtracted", got.Subtracted, want.Subtracted},
		{"denoised", got.Denoised, want.Denoised},
		{"spots", got.SpotsRemoved, want.SpotsRemoved},
		{"holes", got.HolesFilled, want.HolesFilled},
		{"shadow", got.ShadowMask, want.ShadowMask},
		{"object", got.Object, want.Object},
		{"silhouette", gotSil.Mask, want.Object},
	}
	for _, s := range stages {
		if i := maskDiff(s.got, s.want); i != "" {
			t.Fatalf("%s frame %d: %s mask differs from the dense reference: %s", what, k, s.name, i)
		}
	}
	if gotSil.Frame != wantSil.Frame || gotSil.Area != wantSil.Area || gotSil.BBox != wantSil.BBox ||
		math.Float64bits(gotSil.Centroid.X) != math.Float64bits(wantSil.Centroid.X) ||
		math.Float64bits(gotSil.Centroid.Y) != math.Float64bits(wantSil.Centroid.Y) {
		t.Fatalf("%s frame %d: silhouette %+v, dense reference %+v", what, k,
			Silhouette{Frame: gotSil.Frame, Area: gotSil.Area, Centroid: gotSil.Centroid, BBox: gotSil.BBox},
			Silhouette{Frame: wantSil.Frame, Area: wantSil.Area, Centroid: wantSil.Centroid, BBox: wantSil.BBox})
	}
}

// maskDiff describes the first difference between two masks, or returns "".
func maskDiff(a, b *imaging.Mask) string {
	if a == nil || b == nil {
		return fmt.Sprintf("missing mask (got %v, want %v)", a != nil, b != nil)
	}
	if !a.SameSize(b) {
		return fmt.Sprintf("size %dx%d, want %dx%d", a.W, a.H, b.W, b.H)
	}
	for i := range a.Bits {
		if a.Bits[i] != b.Bits[i] {
			return fmt.Sprintf("pixel (%d,%d) is %v, want %v", i%a.W, i/a.W, a.Bits[i], b.Bits[i])
		}
	}
	return ""
}

// variantConfig draws clip i's configuration so the runs cover shadow
// removal on and off, FillEnclosed, every HoleFillPasses in 0-3 and
// NoiseMinNeighbors in 0-8, KeepLargestOnly off, and random spot bounds.
func variantConfig(i int, rng *rand.Rand) Config {
	cfg := DefaultConfig()
	cfg.DisableShadowRemoval = i%2 == 1
	cfg.FillEnclosed = i%5 == 2
	cfg.HoleFillPasses = i % 4
	cfg.NoiseMinNeighbors = i % 9
	cfg.KeepLargestOnly = i%3 != 0
	if i%4 != 0 { // a quarter keep the calibrated spot bounds
		cfg.SpotFraction = rng.Float64()
		cfg.SpotFloor = rng.Intn(120)
	}
	return cfg
}

// TestSparseMatchesDenseReference holds the pipeline's Steps 2-5 to the
// dense operators on 40 synthetic clips, each under its own configuration
// variant, through both the staged and the unstaged entry points.
func TestSparseMatchesDenseReference(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for i := 0; i < 40; i++ {
		params := synth.DefaultJumpParams()
		params.Frames = 6 + rng.Intn(8)
		params.BodyHeight = 50 + 30*rng.Float64()
		params.StartX = 30 + 30*rng.Float64()
		params.Seed = rng.Int63()
		params.Defects.StraightArms = i%3 == 1
		v, err := synth.Generate(params)
		if err != nil {
			t.Fatal(err)
		}
		cfg := variantConfig(i, rng)
		p, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		what := fmt.Sprintf("clip %d (%+v)", i, cfg)
		bg, stages, sils, err := p.RunDetailedWorkers(v.Frames, 1+i%3)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := p.RunWorkers(v.Frames, 1+i%2)
		if err != nil {
			t.Fatal(err)
		}
		for k, f := range v.Frames {
			checkAgainstDense(t, what, p, k, f, bg, stages[k], sils[k])
			checkAgainstDense(t, what+" unstaged", p, k, f, bg, stages[k], plain[k])
		}
	}
}

// TestSparseMatchesDenseOnRandomFrames covers what the synthetic jumper
// never does: foreground touching every edge, frames one pixel wide or
// high, speckle and shadow-like darkening anywhere. One scratch runs all
// frames, so a plane left dirty by one frame would corrupt the next.
func TestSparseMatchesDenseOnRandomFrames(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := new(frameScratch)
	for i := 0; i < 300; i++ {
		w, h := 1+rng.Intn(40), 1+rng.Intn(30)
		if i%10 == 0 {
			w, h = 48, 36 // repeat a size so the scratch is reused as is
		}
		bg := imaging.NewImage(w, h)
		base := imaging.Color{R: uint8(60 + rng.Intn(160)), G: uint8(60 + rng.Intn(160)), B: uint8(60 + rng.Intn(160))}
		for j := range bg.Pix {
			bg.Pix[j] = base.Lerp(imaging.Color{R: uint8(rng.Intn(256)), G: uint8(rng.Intn(256)), B: uint8(rng.Intn(256))}, 0.1)
		}
		frame := bg.Clone()
		for b := rng.Intn(6); b > 0; b-- { // blobs, often clipped by an edge
			x0, y0 := rng.Intn(w+4)-2, rng.Intn(h+4)-2
			x1, y1 := x0+rng.Intn(w), y0+rng.Intn(h)
			paint := imaging.Color{R: uint8(rng.Intn(256)), G: uint8(rng.Intn(256)), B: uint8(rng.Intn(256))}
			shade := rng.Intn(2) == 0
			for y := max(y0, 0); y <= min(y1, h-1); y++ {
				for x := max(x0, 0); x <= min(x1, w-1); x++ {
					if rng.Intn(8) == 0 { // holes and ragged edges
						continue
					}
					if shade {
						frame.Set(x, y, bg.At(x, y).Scale(0.5+0.4*rng.Float64()))
					} else {
						frame.Set(x, y, paint)
					}
				}
			}
		}
		for n := rng.Intn(w*h/4 + 1); n > 0; n-- { // speckle
			frame.Set(rng.Intn(w), rng.Intn(h), imaging.Color{R: uint8(rng.Intn(256)), G: uint8(rng.Intn(256)), B: uint8(rng.Intn(256))})
		}
		cfg := variantConfig(i, rng)
		p, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var st StageMasks
		sil, err := p.segment(s, i, frame, bg, &st)
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstDense(t, fmt.Sprintf("random frame %dx%d (%+v)", w, h, cfg), p, i, frame, bg, st, sil)
	}
}

// TestSegmentFrameRejectsSizeMismatch checks Step 2's size check.
func TestSegmentFrameRejectsSizeMismatch(t *testing.T) {
	p, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.SegmentFrame(imaging.NewImage(8, 8), imaging.NewImage(8, 9)); err == nil {
		t.Fatal("SegmentFrame accepted a background of another size")
	}
}
