package artifacts

import (
	"bytes"
	"testing"
)

// FuzzArtifactDecode feeds arbitrary bytes to DecodeFrames,
// DecodeSilhouettes, DecodePoses and DecodeResult (worker nodes decode
// result/v1 blobs pushed by fleet peers). None may panic, and whatever one
// accepts must re-encode to the identical bytes: one content, one encoding,
// one artifact hash. The seed corpus lives in
// testdata/fuzz/FuzzArtifactDecode.
func FuzzArtifactDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, blob []byte) {
		for kind, reencode := range reencoders {
			back, err := reencode(blob)
			if err != nil {
				continue
			}
			if !bytes.Equal(back, blob) {
				t.Fatalf("accepted %s blob re-encodes differently:\n in %x\nout %x", kind, blob, back)
			}
		}
	})
}
