package jobs

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzPayloadDecode feeds arbitrary bytes through the worker intake's
// decode path: JSON into a Payload, then AnalysisRequest. Whatever it
// accepts must be well formed — every frame and silhouette holds exactly
// W*H pixels — and must re-encode through NewAnalysisPayload to the same
// frame and silhouette wire bytes. The seed corpus lives in
// testdata/fuzz/FuzzPayloadDecode.
func FuzzPayloadDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		var p Payload
		if json.Unmarshal(raw, &p) != nil {
			return
		}
		req, err := p.AnalysisRequest()
		if err != nil {
			return
		}
		frames := req.Frames
		if req.Background != nil {
			frames = append(frames[:len(frames):len(frames)], req.Background)
		}
		for i, img := range frames {
			if len(img.Pix) != img.W*img.H {
				t.Fatalf("frame %d: %d pixels for %dx%d", i, len(img.Pix), img.W, img.H)
			}
		}
		for i, s := range req.Silhouettes {
			if len(s.Mask.Bits) != s.Mask.W*s.Mask.H {
				t.Fatalf("silhouette %d: %d bits for %dx%d", i, len(s.Mask.Bits), s.Mask.W, s.Mask.H)
			}
		}
		back, err := NewAnalysisPayload(p.ConfigFP, req)
		if err != nil {
			t.Fatalf("accepted request does not re-encode: %v", err)
		}
		if len(back.Frames) != len(p.Frames) {
			t.Fatalf("re-encoded %d frames, decoded %d", len(back.Frames), len(p.Frames))
		}
		for i, f := range p.Frames {
			if g := back.Frames[i]; g.W != f.W || g.H != f.H || !bytes.Equal(g.RGB, f.RGB) {
				t.Fatalf("frame %d re-encodes differently", i)
			}
		}
		if len(back.Silhouettes) != len(p.Silhouettes) {
			t.Fatalf("re-encoded %d silhouettes, decoded %d", len(back.Silhouettes), len(p.Silhouettes))
		}
		for i, s := range p.Silhouettes {
			if g := back.Silhouettes[i]; g.Frame != s.Frame || g.W != s.W || g.H != s.H || !bytes.Equal(g.Mask, s.Mask) {
				t.Fatalf("silhouette %d re-encodes differently", i)
			}
		}
	})
}

// FuzzJournalPayload feeds arbitrary bytes through the decoder of a
// journal submit record's payload blob, which replay runs on whatever the
// journal hands back. Invariants: no panic; every frame accepted from the
// raw-frame form holds exactly 3·W·H bytes; and encoding an accepted
// payload decodes back to the same payload. The seed corpus lives in
// testdata/fuzz/FuzzJournalPayload: a raw-frame blob, a legacy JSON blob,
// a truncated blob and an oversized header.
func FuzzJournalPayload(f *testing.F) {
	f.Fuzz(func(t *testing.T, blob []byte) {
		p, err := decodeJournalPayload(blob)
		if err != nil {
			return
		}
		if bytes.HasPrefix(blob, []byte(journalPayloadTag)) {
			for i, fr := range p.Frames {
				if len(fr.RGB) != 3*fr.W*fr.H {
					t.Fatalf("frame %d: %d bytes for %dx%d", i, len(fr.RGB), fr.W, fr.H)
				}
			}
		}
		want, err := json.Marshal(p)
		if err != nil {
			t.Fatalf("accepted payload does not marshal: %v", err)
		}
		again, err := encodeJournalPayload(p)
		if err != nil {
			t.Fatalf("accepted payload does not re-encode: %v", err)
		}
		back, err := decodeJournalPayload(again)
		if err != nil {
			t.Fatalf("re-encoded payload does not decode: %v", err)
		}
		if got, _ := json.Marshal(back); !bytes.Equal(got, want) {
			t.Fatalf("decode of the encode differs:\n%s\nvs\n%s", got, want)
		}
	})
}
