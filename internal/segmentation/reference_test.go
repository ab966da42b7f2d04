package segmentation

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/sljmotion/sljmotion/internal/background"
	"github.com/sljmotion/sljmotion/internal/hsv"
	"github.com/sljmotion/sljmotion/internal/imaging"
	"github.com/sljmotion/sljmotion/internal/shadow"
	"github.com/sljmotion/sljmotion/internal/synth"
)

// The dense reference: each of Steps 2-5 in its simplest form, a scan of
// the whole frame that reads neighbours through the bounds-checked
// imaging.Mask.At, so pixels outside the frame read clear.

// neigh8 and neigh4 are the 8- and 4-neighbourhood offsets.
var (
	neigh8 = [8][2]int{{-1, -1}, {0, -1}, {1, -1}, {-1, 0}, {1, 0}, {-1, 1}, {0, 1}, {1, 1}}
	neigh4 = [4][2]int{{0, -1}, {-1, 0}, {1, 0}, {0, 1}}
)

// denseSubtract is Step 2: a pixel is set when its max-channel difference
// from the background exceeds threshold; threshold <= 0 selects
// background.DefaultSubtractThreshold, as Config.SubtractThreshold documents.
func denseSubtract(frame, bg *imaging.Image, threshold int) *imaging.Mask {
	if threshold <= 0 {
		threshold = background.DefaultSubtractThreshold
	}
	m := imaging.NewMask(frame.W, frame.H)
	for i := range frame.Pix {
		m.Bits[i] = frame.Pix[i].MaxChanDiff(bg.Pix[i]) > threshold
	}
	return m
}

// denseRemoveNoise is Step 3's filter: a set pixel stays when at least
// minNeighbors of its 8 neighbours are set.
func denseRemoveNoise(m *imaging.Mask, minNeighbors int) *imaging.Mask {
	out := imaging.NewMask(m.W, m.H)
	for y := 0; y < m.H; y++ {
		for x := 0; x < m.W; x++ {
			if !m.At(x, y) {
				continue
			}
			n := 0
			for _, d := range neigh8 {
				if m.At(x+d[0], y+d[1]) {
					n++
				}
			}
			out.Set(x, y, n >= minNeighbors)
		}
	}
	return out
}

// denseLabels labels the 8-connected components of m in the raster order
// of each component's first pixel and returns the label plane (0 = clear)
// and the area of each label (index 0 unused).
func denseLabels(m *imaging.Mask) (plane []int, area []int) {
	plane, area = make([]int, len(m.Bits)), []int{0}
	for i, set := range m.Bits {
		if !set || plane[i] != 0 {
			continue
		}
		l := len(area)
		area = append(area, 0)
		plane[i] = l
		stack := []imaging.Point{{X: i % m.W, Y: i / m.W}}
		for len(stack) > 0 {
			p := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			area[l]++
			for _, d := range neigh8 {
				x, y := p.X+d[0], p.Y+d[1]
				if m.At(x, y) && plane[y*m.W+x] == 0 {
					plane[y*m.W+x] = l
					stack = append(stack, imaging.Point{X: x, Y: y})
				}
			}
		}
	}
	return plane, area
}

// denseKeep keeps the pixels of the components keep selects by label.
func denseKeep(m *imaging.Mask, plane []int, keep func(label int) bool) *imaging.Mask {
	out := imaging.NewMask(m.W, m.H)
	for i, l := range plane {
		out.Bits[i] = l != 0 && keep(l)
	}
	return out
}

// denseRemoveSmallSpots is Step 3's spot removal: components smaller than
// max(fraction × the largest component's area, floor) are erased.
func denseRemoveSmallSpots(m *imaging.Mask, fraction float64, floor int) *imaging.Mask {
	plane, area := denseLabels(m)
	largest := 0
	for _, a := range area {
		largest = max(largest, a)
	}
	minArea := max(int(fraction*float64(largest)), floor)
	return denseKeep(m, plane, func(l int) bool { return area[l] >= minArea })
}

// denseKeepLargest keeps the largest component; among equal areas the one
// whose first pixel comes first in raster order.
func denseKeepLargest(m *imaging.Mask) *imaging.Mask {
	plane, area := denseLabels(m)
	best := 1
	for l := range area {
		if l > 0 && area[l] > area[best] {
			best = l
		}
	}
	return denseKeep(m, plane, func(l int) bool { return l == best })
}

// denseFillHoles runs up to passes passes of Step 4's rule, stopping after
// a pass that sets nothing: a clear pixel whose four 4-neighbours are all
// set becomes set.
func denseFillHoles(m *imaging.Mask, passes int) *imaging.Mask {
	for ; passes > 0; passes-- {
		out, changed := m.Clone(), false
		for y := 0; y < m.H; y++ {
			for x := 0; x < m.W; x++ {
				if m.At(x, y) {
					continue
				}
				all := true
				for _, d := range neigh4 {
					all = all && m.At(x+d[0], y+d[1])
				}
				if all {
					out.Set(x, y, true)
					changed = true
				}
			}
		}
		if m = out; !changed {
			break
		}
	}
	return m
}

// denseRemoveShadow is Step 5: it splits fg into the pixels det does not
// classify as shadow (Eq. 1-2) and those it does.
func denseRemoveShadow(det *shadow.Detector, frame, bg *imaging.Image, fg *imaging.Mask) (object, shadowMask *imaging.Mask) {
	object, shadowMask = fg.Clone(), imaging.NewMask(fg.W, fg.H)
	for i, set := range fg.Bits {
		if set && det.IsShadow(hsv.FromRGB(frame.Pix[i]), hsv.FromRGB(bg.Pix[i])) {
			object.Bits[i], shadowMask.Bits[i] = false, true
		}
	}
	return object, shadowMask
}

// denseSegment is Steps 2-5 composed from the dense reference, which the
// pipeline's sparse path must match bit for bit.
func denseSegment(p *Pipeline, k int, frame, bg *imaging.Image) (StageMasks, Silhouette) {
	cfg := p.Config()
	st := StageMasks{Subtracted: denseSubtract(frame, bg, cfg.SubtractThreshold)}
	st.Denoised = denseRemoveNoise(st.Subtracted, cfg.NoiseMinNeighbors)
	st.SpotsRemoved = denseRemoveSmallSpots(st.Denoised, cfg.SpotFraction, cfg.SpotFloor)
	st.HolesFilled = denseFillHoles(st.SpotsRemoved, cfg.HoleFillPasses)
	object, sm := st.HolesFilled, imaging.NewMask(frame.W, frame.H)
	if p.detector != nil {
		object, sm = denseRemoveShadow(p.detector, frame, bg, st.HolesFilled)
	}
	st.ShadowMask = sm
	object = denseFillHoles(object, 1)
	if cfg.KeepLargestOnly {
		object = denseKeepLargest(object)
	}
	st.Object = object
	return st, NewSilhouette(k, object)
}

// checkAgainstDense compares one frame's sparse result with the dense
// reference: every stage mask bit for bit, and the silhouette statistics
// (centroid by float bits).
func checkAgainstDense(t *testing.T, what string, p *Pipeline, k int, frame, bg *imaging.Image, got StageMasks, gotSil Silhouette) {
	t.Helper()
	want, wantSil := denseSegment(p, k, frame, bg)
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
// removal on and off, every HoleFillPasses in 0-3 and NoiseMinNeighbors in
// 0-8, KeepLargestOnly off, SubtractThreshold at and beyond both ends of
// its range (0 and -5 select the default), and random spot bounds.
func variantConfig(i int, rng *rand.Rand) Config {
	cfg := DefaultConfig()
	cfg.DisableShadowRemoval = i%2 == 1
	cfg.SubtractThreshold = [...]int{background.DefaultSubtractThreshold, 0, -5, 1, 255}[i%5]
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
