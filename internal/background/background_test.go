package background

import (
	"math/rand"
	"testing"

	"github.com/sljmotion/sljmotion/internal/imaging"
)

// movingBoxSequence renders a static scene with a box marching across it,
// the canonical workload for background estimation.
func movingBoxSequence(n, w, h int, noise float64, seed int64) (frames []*imaging.Image, scene *imaging.Image) {
	rng := rand.New(rand.NewSource(seed))
	scene = imaging.NewImage(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			scene.Set(x, y, imaging.Color{R: uint8(100 + x%20), G: uint8(120 + y%10), B: 90})
		}
	}
	for k := 0; k < n; k++ {
		f := scene.Clone()
		bx := 4 + k*3
		imaging.FillRect(f, imaging.Rect{X0: bx, Y0: h / 3, X1: bx + 8, Y1: h/3 + 12}, imaging.Red)
		if noise > 0 {
			for i := range f.Pix {
				d := int(rng.NormFloat64() * noise)
				c := f.Pix[i]
				f.Pix[i] = imaging.Color{
					R: clamp8(int(c.R) + d), G: clamp8(int(c.G) + d), B: clamp8(int(c.B) + d),
				}
			}
		}
		frames = append(frames, f)
	}
	return frames, scene
}

func clamp8(v int) uint8 {
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return uint8(v)
}

func TestChangeDetectionRecoversScene(t *testing.T) {
	frames, scene := movingBoxSequence(16, 64, 48, 1.2, 1)
	est := &ChangeDetection{}
	bg, err := est.Estimate(frames)
	if err != nil {
		t.Fatal(err)
	}
	rmse, err := RMSE(bg, scene)
	if err != nil {
		t.Fatal(err)
	}
	if rmse > 8 {
		t.Errorf("background RMSE = %.2f, want <= 8", rmse)
	}
}

func TestChangeDetectionGhostResistance(t *testing.T) {
	// The box sits still for the first 5 frames, then moves away. The
	// median-of-stable estimator must not keep the box (ghost) in the
	// background.
	scene := imaging.NewImageFilled(40, 30, imaging.Color{R: 100, G: 100, B: 100})
	var frames []*imaging.Image
	for k := 0; k < 14; k++ {
		f := scene.Clone()
		if k < 5 {
			imaging.FillRect(f, imaging.Rect{X0: 10, Y0: 10, X1: 18, Y1: 20}, imaging.Red)
		}
		frames = append(frames, f)
	}
	bg, err := (&ChangeDetection{}).Estimate(frames)
	if err != nil {
		t.Fatal(err)
	}
	if bg.At(14, 15).MaxChanDiff(scene.At(14, 15)) > 10 {
		t.Errorf("ghost in background: %v", bg.At(14, 15))
	}
}

func TestChangeDetectionSingleFrame(t *testing.T) {
	frames, _ := movingBoxSequence(1, 16, 16, 0, 1)
	bg, err := (&ChangeDetection{}).Estimate(frames)
	if err != nil {
		t.Fatal(err)
	}
	if !bg.SameSize(frames[0]) {
		t.Error("single-frame estimate must echo the frame")
	}
}

func TestEstimatorsRejectEmptyAndMismatched(t *testing.T) {
	ests := []Estimator{&ChangeDetection{}, Median{}, &RunningMean{}}
	for _, est := range ests {
		if _, err := est.Estimate(nil); err == nil {
			t.Errorf("%T: expected error for empty input", est)
		}
		frames := []*imaging.Image{imaging.NewImage(4, 4), imaging.NewImage(5, 4)}
		if _, err := est.Estimate(frames); err == nil {
			t.Errorf("%T: expected size mismatch error", est)
		}
	}
}

func TestMedianEstimator(t *testing.T) {
	frames, scene := movingBoxSequence(15, 48, 36, 0, 2)
	bg, err := Median{}.Estimate(frames)
	if err != nil {
		t.Fatal(err)
	}
	rmse, err := RMSE(bg, scene)
	if err != nil {
		t.Fatal(err)
	}
	if rmse > 6 {
		t.Errorf("median RMSE = %.2f, want <= 6", rmse)
	}
}

func TestRunningMeanSmearsMovingObject(t *testing.T) {
	// The running mean is the weak baseline: it must show a higher error
	// than the median on the same sequence (the ablation A2 shape).
	frames, scene := movingBoxSequence(15, 48, 36, 0, 3)
	mean, err := (&RunningMean{Alpha: 0.3}).Estimate(frames)
	if err != nil {
		t.Fatal(err)
	}
	med, err := Median{}.Estimate(frames)
	if err != nil {
		t.Fatal(err)
	}
	rmseMean, _ := RMSE(mean, scene)
	rmseMed, _ := RMSE(med, scene)
	if rmseMean <= rmseMed {
		t.Errorf("running mean RMSE %.2f should exceed median %.2f", rmseMean, rmseMed)
	}
}

func TestRMSE(t *testing.T) {
	a := imaging.NewImageFilled(2, 2, imaging.Color{R: 10, G: 10, B: 10})
	b := imaging.NewImageFilled(2, 2, imaging.Color{R: 13, G: 6, B: 10})
	got, err := RMSE(a, b)
	if err != nil {
		t.Fatal(err)
	}
	// per-pixel squared error = 9 + 16 + 0 = 25; mean over 3 channels.
	want := 2.886751 // sqrt(25/3)
	if diff := got - want; diff > 1e-4 || diff < -1e-4 {
		t.Errorf("RMSE = %v, want %v", got, want)
	}
	if _, err := RMSE(a, imaging.NewImage(3, 3)); err == nil {
		t.Error("expected size mismatch error")
	}
}

func TestMedianU8(t *testing.T) {
	// Lower medians on both sides of the select's 8-frame rows and up to
	// 130 frames, the extremes 0 and 255 included.
	ramp := func(n int, f func(k int) uint8) []uint8 {
		v := make([]uint8, n)
		for k := range v {
			v[k] = f(k)
		}
		return v
	}
	tests := []struct {
		in   []uint8
		want uint8
	}{
		{[]uint8{5}, 5},
		{[]uint8{1, 2, 3}, 2},
		{[]uint8{1, 2, 3, 4}, 2},
		{[]uint8{9, 9, 0, 0, 9}, 9},
		{[]uint8{255, 0, 128}, 128},
		{[]uint8{255, 255}, 255},
		{[]uint8{0, 255}, 0},
		{ramp(8, func(k int) uint8 { return uint8(7 - k) }), 3},
		{ramp(9, func(k int) uint8 { return uint8(255 - k) }), 251},
		{ramp(64, func(k int) uint8 { return uint8(k * 4) }), 31 * 4},
		{ramp(65, func(k int) uint8 { return uint8(k % 2 * 255) }), 0},
		{ramp(66, func(k int) uint8 { return uint8(k % 2 * 255) }), 0},
		{ramp(67, func(k int) uint8 { return uint8(min(k%3, 1) * 255) }), 255},
		{ramp(130, func(k int) uint8 { return uint8(129 - k) }), 64},
	}
	for _, tt := range tests {
		// A 3×3 image, a group of 8 pixels and a partial one, with the
		// samples in every pixel and channel but in a different frame
		// order each, so every lane of the select must agree.
		frames := make([]*imaging.Image, len(tt.in))
		for k := range frames {
			frames[k] = imaging.NewImage(3, 3)
			for i := range frames[k].Pix {
				x := func(c int) uint8 { return tt.in[(k+3*i+c)%len(tt.in)] }
				frames[k].Pix[i] = imaging.Color{R: x(0), G: x(1), B: x(2)}
			}
		}
		med, err := Median{}.Estimate(frames)
		if err != nil {
			t.Fatal(err)
		}
		want := imaging.Color{R: tt.want, G: tt.want, B: tt.want}
		for i, got := range med.Pix {
			if got != want {
				t.Errorf("median(%v) at pixel %d = %v, want %v", tt.in, i, got, want)
			}
		}
		if want.R != referenceMedianU8(tt.in) {
			t.Errorf("median(%v): table says %d, the histogram oracle %d", tt.in, want.R, referenceMedianU8(tt.in))
		}
	}
}

func TestTransposeLanes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		var x, p [8]uint64
		for j := range x {
			x[j] = rng.Uint64()
		}
		transposeLanes(&x, &p)
		for j := range x {
			for q := 0; q < 8; q++ {
				for b := 0; b < 8; b++ {
					if x[j]>>(8*q+b)&1 != p[b]>>(8*q+j)&1 {
						t.Fatalf("bit %d of byte %d of row %d did not move to bit %d of byte %d of plane %d", b, q, j, j, q, b)
					}
				}
			}
		}
	}
}
