package imaging

import (
	"bytes"
	"io"
	"math/rand"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
)

func TestPPMRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	img := NewImage(17, 9)
	for i := range img.Pix {
		img.Pix[i] = Color{uint8(rng.Intn(256)), uint8(rng.Intn(256)), uint8(rng.Intn(256))}
	}
	var buf bytes.Buffer
	if err := EncodePPM(&buf, img); err != nil {
		t.Fatal(err)
	}
	got, err := DecodePPM(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.W != img.W || got.H != img.H {
		t.Fatalf("size %dx%d, want %dx%d", got.W, got.H, img.W, img.H)
	}
	for i := range img.Pix {
		if got.Pix[i] != img.Pix[i] {
			t.Fatalf("pixel %d = %v, want %v", i, got.Pix[i], img.Pix[i])
		}
	}
}

func TestPGMRoundTrip(t *testing.T) {
	g := NewGray(5, 4)
	for i := range g.Pix {
		g.Pix[i] = uint8(i * 13)
	}
	var buf bytes.Buffer
	if err := EncodePGM(&buf, g); err != nil {
		t.Fatal(err)
	}
	got, err := DecodePGM(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.W != 5 || got.H != 4 {
		t.Fatalf("size %dx%d", got.W, got.H)
	}
	for i := range g.Pix {
		if got.Pix[i] != g.Pix[i] {
			t.Fatalf("pixel %d mismatch", i)
		}
	}
}

// TestDecodePNMGrowsPastInitialCapacity round-trips rasters larger than
// the capacity the decoders start from, so the rows land correctly after
// the raster grows.
func TestDecodePNMGrowsPastInitialCapacity(t *testing.T) {
	const w, h = 256, 160 // 40,960 pixels > initialRasterPixels
	img := NewImage(w, h)
	g := NewGray(w, h)
	for i := range img.Pix {
		img.Pix[i] = Color{uint8(i), uint8(i >> 8), uint8(i * 7)}
		g.Pix[i] = uint8(i * 13)
	}
	var buf bytes.Buffer
	if err := EncodePPM(&buf, img); err != nil {
		t.Fatal(err)
	}
	gotImg, err := DecodePPM(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if gotImg.W != w || gotImg.H != h || !slices.Equal(gotImg.Pix, img.Pix) {
		t.Fatal("PPM past the initial capacity did not round-trip")
	}
	buf.Reset()
	if err := EncodePGM(&buf, g); err != nil {
		t.Fatal(err)
	}
	gotGray, err := DecodePGM(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if gotGray.W != w || gotGray.H != h || !slices.Equal(gotGray.Pix, g.Pix) {
		t.Fatal("PGM past the initial capacity did not round-trip")
	}
}

// TestDecodePNMHeaderOnlyAllocatesLittle pins that the decoders do not
// trust the header's raster size: a header declaring 8192×8192 pixels
// (192 MiB as RGB) with no pixel data must fail having allocated under
// 1 MiB.
func TestDecodePNMHeaderOnlyAllocatesLittle(t *testing.T) {
	decoders := []struct {
		name   string
		header string
		decode func(io.Reader) error
	}{
		{"PPM", "P6 8192 8192 255\n", func(r io.Reader) error { _, err := DecodePPM(r); return err }},
		{"PGM", "P5 8192 8192 255\n", func(r io.Reader) error { _, err := DecodePGM(r); return err }},
	}
	for _, d := range decoders {
		t.Run(d.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := d.decode(strings.NewReader(d.header))
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatal("header-only input decoded")
			}
			if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
				t.Fatalf("header-only input allocated %d bytes, want < 1 MiB", got)
			}
		})
	}
}

func TestPBMRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := randomMask(rng, 13, 7)
	var buf bytes.Buffer
	if err := EncodePBM(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := DecodePBM(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range m.Bits {
		if got.Bits[i] != m.Bits[i] {
			t.Fatalf("bit %d mismatch", i)
		}
	}
}

func TestDecodePPMComments(t *testing.T) {
	data := "P6\n# a comment\n2 1\n# another\n255\n" + string([]byte{1, 2, 3, 4, 5, 6})
	img, err := DecodePPM(strings.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if img.At(0, 0) != (Color{1, 2, 3}) || img.At(1, 0) != (Color{4, 5, 6}) {
		t.Errorf("pixels: %v", img.Pix)
	}
}

func TestDecodePPMErrors(t *testing.T) {
	tests := []struct {
		name string
		data string
	}{
		{"wrong magic", "P5\n2 2\n255\n"},
		{"bad maxval", "P6\n2 2\n65535\n"},
		{"truncated", "P6\n4 4\n255\nxx"},
		{"zero size", "P6\n0 2\n255\n"},
		{"garbage dims", "P6\nab cd\n255\n"},
		{"empty", ""},
		// 4 x 2^62 wraps w*h to 0: the rows would index an empty Pix.
		{"overflowing height", "P6 4 4611686018427387904 255\n" + strings.Repeat("x", 24)},
		{"overflowing width", "P6 4611686018427387904 4 255\n" + strings.Repeat("x", 24)},
		{"side past MaxDim", "P6 32769 1 255\n"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := DecodePPM(strings.NewReader(tt.data)); err == nil {
				t.Error("expected error")
			}
		})
	}
}

func TestDecodePGMErrors(t *testing.T) {
	tests := []struct {
		name string
		data string
	}{
		{"wrong magic", "P6\n2 2\n255\n"},
		{"truncated", "P5\n4 4\n255\nxx"},
		// Would decode to a 4 x 2^62 image with an empty Pix.
		{"overflowing height", "P5 4 4611686018427387904 255\n" + strings.Repeat("x", 24)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := DecodePGM(strings.NewReader(tt.data)); err == nil {
				t.Error("expected error")
			}
		})
	}
}

func TestDecodePBMErrors(t *testing.T) {
	tests := []struct {
		name string
		data string
	}{
		{"wrong magic", "P2\n2 2\n"},
		{"bad byte", "P1\n2 1\n0X\n"},
		{"truncated", "P1\n3 3\n01"},
		{"overflowing height", "P1\n4 4611686018427387904\n0000"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := DecodePBM(strings.NewReader(tt.data)); err == nil {
				t.Error("expected error")
			}
		})
	}
}

func TestPPMFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "frame.ppm")
	img := NewImageFilled(3, 3, Red)
	if err := WritePPMFile(path, img); err != nil {
		t.Fatal(err)
	}
	got, err := ReadPPMFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.At(1, 1) != Red {
		t.Error("file roundtrip lost pixels")
	}
}

func TestWritePGMFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "mask.pgm")
	if err := WritePGMFile(path, NewGray(2, 2)); err != nil {
		t.Fatal(err)
	}
}

func TestReadPPMFileMissing(t *testing.T) {
	if _, err := ReadPPMFile(filepath.Join(t.TempDir(), "nope.ppm")); err == nil {
		t.Error("expected error for missing file")
	}
}
