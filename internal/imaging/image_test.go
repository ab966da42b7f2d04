package imaging

import (
	"testing"
	"testing/quick"
)

func TestColorLuma(t *testing.T) {
	tests := []struct {
		name string
		c    Color
		want uint8
	}{
		{"black", Black, 0},
		{"white", White, 255},
		{"pure red", Color{255, 0, 0}, 76},
		{"pure green", Color{0, 255, 0}, 149},
		{"pure blue", Color{0, 0, 255}, 29},
		{"mid gray", Color{128, 128, 128}, 128},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.c.Luma(); got != tt.want {
				t.Errorf("Luma(%v) = %d, want %d", tt.c, got, tt.want)
			}
		})
	}
}

func TestColorMaxChanDiff(t *testing.T) {
	tests := []struct {
		name string
		a, b Color
		want int
	}{
		{"identical", Color{10, 20, 30}, Color{10, 20, 30}, 0},
		{"red dominates", Color{200, 20, 30}, Color{10, 25, 35}, 190},
		{"green dominates", Color{10, 200, 30}, Color{12, 20, 35}, 180},
		{"blue dominates", Color{10, 20, 200}, Color{12, 25, 30}, 170},
		{"symmetric", Color{0, 0, 0}, Color{5, 10, 15}, 15},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.a.MaxChanDiff(tt.b); got != tt.want {
				t.Errorf("MaxChanDiff = %d, want %d", got, tt.want)
			}
			if got := tt.b.MaxChanDiff(tt.a); got != tt.want {
				t.Errorf("MaxChanDiff reversed = %d, want %d (must be symmetric)", got, tt.want)
			}
		})
	}
}

func TestColorMaxChanDiffSymmetryProperty(t *testing.T) {
	f := func(r1, g1, b1, r2, g2, b2 uint8) bool {
		a := Color{r1, g1, b1}
		b := Color{r2, g2, b2}
		d := a.MaxChanDiff(b)
		return d == b.MaxChanDiff(a) && d >= 0 && d <= 255
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestColorScale(t *testing.T) {
	c := Color{100, 200, 50}
	if got := c.Scale(0.5); got != (Color{50, 100, 25}) {
		t.Errorf("Scale(0.5) = %v", got)
	}
	if got := c.Scale(2); got != (Color{200, 255, 100}) {
		t.Errorf("Scale(2) should clamp: %v", got)
	}
	if got := c.Scale(0); got != Black {
		t.Errorf("Scale(0) = %v, want black", got)
	}
	if got := c.Scale(-1); got != Black {
		t.Errorf("Scale(-1) = %v, want black", got)
	}
}

func TestColorLerp(t *testing.T) {
	a, b := Black, White
	if got := a.Lerp(b, 0); got != a {
		t.Errorf("Lerp(0) = %v, want %v", got, a)
	}
	if got := a.Lerp(b, 1); got != b {
		t.Errorf("Lerp(1) = %v, want %v", got, b)
	}
	mid := a.Lerp(b, 0.5)
	if mid.R < 127 || mid.R > 128 {
		t.Errorf("Lerp(0.5).R = %d, want ~127", mid.R)
	}
}

func TestNewImagePanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewImage(0, 5) should panic")
		}
	}()
	NewImage(0, 5)
}

func TestImageSetAtClipping(t *testing.T) {
	img := NewImage(4, 3)
	img.Set(2, 1, Red)
	if img.At(2, 1) != Red {
		t.Error("Set/At roundtrip failed")
	}
	// Out-of-bounds writes are silently ignored.
	img.Set(-1, 0, Red)
	img.Set(4, 0, Red)
	img.Set(0, 3, Red)
	for i, p := range img.Pix {
		if p == Red && i != 1*4+2 {
			t.Errorf("out-of-bounds write leaked to index %d", i)
		}
	}
}

func TestImageCloneIndependence(t *testing.T) {
	img := NewImageFilled(3, 3, Blue)
	cl := img.Clone()
	cl.Set(0, 0, Red)
	if img.At(0, 0) != Blue {
		t.Error("Clone shares storage with original")
	}
	if !img.SameSize(cl) {
		t.Error("clone size mismatch")
	}
}

func TestImageGray(t *testing.T) {
	img := NewImageFilled(2, 2, White)
	img.Set(0, 0, Black)
	g := img.Gray()
	if g.At(0, 0) != 0 || g.At(1, 1) != 255 {
		t.Errorf("Gray conversion wrong: %v", g.Pix)
	}
}

func TestAbsDiff(t *testing.T) {
	a := NewGray(2, 2)
	b := NewGray(2, 2)
	a.Pix = []uint8{10, 200, 0, 255}
	b.Pix = []uint8{20, 100, 0, 0}
	d, err := AbsDiff(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := []uint8{10, 100, 0, 255}
	for i := range want {
		if d.Pix[i] != want[i] {
			t.Errorf("AbsDiff[%d] = %d, want %d", i, d.Pix[i], want[i])
		}
	}
}

func TestAbsDiffSizeMismatch(t *testing.T) {
	if _, err := AbsDiff(NewGray(2, 2), NewGray(3, 2)); err == nil {
		t.Fatal("expected size mismatch error")
	}
}

func TestGraySetOutOfBoundsIgnored(t *testing.T) {
	g := NewGray(2, 2)
	g.Set(5, 5, 9)
	for _, v := range g.Pix {
		if v != 0 {
			t.Error("out-of-bounds gray write leaked")
		}
	}
}

// TestImageBytesView pins the byte view's layout (interleaved RGB,
// row-major, as PPM stores it) and that it aliases Pix rather than copying.
func TestImageBytesView(t *testing.T) {
	img := NewImage(2, 1)
	img.Pix[0] = Color{1, 2, 3}
	img.Pix[1] = Color{4, 5, 6}
	b := img.Bytes()
	if want := []byte{1, 2, 3, 4, 5, 6}; string(b) != string(want) {
		t.Fatalf("Bytes() = %v, want %v", b, want)
	}
	b[4] = 50
	if img.Pix[1].G != 50 {
		t.Fatal("Bytes() is a copy, want a view of Pix")
	}
	if (&Image{}).Bytes() != nil {
		t.Fatal("empty image must view as nil")
	}
}
