package artifacts

import (
	"bytes"
	"testing"
)

// FuzzArtifactDecode feeds arbitrary bytes to DecodeFrames and DecodeResult
// (worker nodes decode result/v1 blobs pushed by fleet peers). Neither may
// panic, a blob KindOf does not recognise — the retired silhouettes/v1 and
// poses/v1 seeds among them — must be refused by both, and whatever one
// accepts must re-encode to the identical bytes: one content, one
// encoding, one artifact hash. The pixel-free frames check a by-reference
// submission runs (walkFrames) must accept exactly what DecodeFrames does.
// The seed corpus lives in testdata/fuzz/FuzzArtifactDecode.
func FuzzArtifactDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, blob []byte) {
		_, known := KindOf(blob)
		_, decErr := DecodeFrames(blob)
		if walkErr := walkFrames(blob, nil); (walkErr == nil) != (decErr == nil) {
			t.Fatalf("frames check says %v, DecodeFrames says %v: %x", walkErr, decErr, blob)
		}
		for kind, reencode := range reencoders {
			back, err := reencode(blob)
			if err != nil {
				continue
			}
			if !known {
				t.Fatalf("%s decoder accepted a blob of no known kind: %x", kind, blob)
			}
			if !bytes.Equal(back, blob) {
				t.Fatalf("accepted %s blob re-encodes differently:\n in %x\nout %x", kind, blob, back)
			}
		}
	})
}
