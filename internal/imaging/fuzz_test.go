package imaging

import (
	"bufio"
	"bytes"
	"reflect"
	"testing"
)

// FuzzDecodePNM feeds arbitrary bytes to DecodePPM and DecodePGM, the
// decoders every uploaded frame goes through. Neither may panic, an
// accepted image must have sides in 1..MaxDim (so W*H cannot wrap) and
// hold exactly W*H pixels, and encoding an accepted
// image then decoding it must give the same image back. The seed corpus
// lives in testdata/fuzz/FuzzDecodePNM.
func FuzzDecodePNM(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if declaredPixels(data) > 1<<20 {
			// The decoders allocate the declared raster before reading it;
			// a large header over a short input would only measure the
			// fuzzer's memory.
			return
		}
		if img, err := DecodePPM(bytes.NewReader(data)); err == nil {
			checkRaster(t, "PPM", img.W, img.H, len(img.Pix))
			var buf bytes.Buffer
			if err := EncodePPM(&buf, img); err != nil {
				t.Fatal(err)
			}
			back, err := DecodePPM(&buf)
			if err != nil || !reflect.DeepEqual(back, img) {
				t.Fatalf("PPM round trip: %v", err)
			}
		}
		if g, err := DecodePGM(bytes.NewReader(data)); err == nil {
			checkRaster(t, "PGM", g.W, g.H, len(g.Pix))
			var buf bytes.Buffer
			if err := EncodePGM(&buf, g); err != nil {
				t.Fatal(err)
			}
			back, err := DecodePGM(&buf)
			if err != nil || !reflect.DeepEqual(back, g) {
				t.Fatalf("PGM round trip: %v", err)
			}
		}
	})
}

func checkRaster(t *testing.T, kind string, w, h, pixels int) {
	t.Helper()
	if w < 1 || h < 1 || w > MaxDim || h > MaxDim || pixels != w*h {
		t.Fatalf("accepted %dx%d %s with %d pixels", w, h, kind, pixels)
	}
}

// declaredPixels is the raster size a PNM header declares, or 0 when the
// header does not parse or readPNMDims rejects it.
func declaredPixels(data []byte) int {
	br := bufio.NewReader(bytes.NewReader(data))
	if _, err := readPNMToken(br); err != nil {
		return 0
	}
	w, h, _, err := readPNMDims(br)
	if err != nil {
		return 0
	}
	return w * h
}
