package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"
)

// fuzzBoundary is the multipart boundary every FuzzReadUpload body is read
// under; the corpus bodies are framed with it.
const fuzzBoundary = "sljfuzz"

// FuzzReadUpload feeds arbitrary multipart bodies through the clip routes'
// one upload parser: readUpload, then u.clip() and u.manual(). None may
// panic — every malformed part, frame or truth file must come back as an
// error. An accepted upload holds at most maxUploadParts frames, sorted by
// file name, and clip() hands them back in that order. The seed corpus
// lives in testdata/fuzz/FuzzReadUpload.
func FuzzReadUpload(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		r := httptest.NewRequest(http.MethodPost, "/v1/analyze", bytes.NewReader(body))
		r.Header.Set("Content-Type", "multipart/form-data; boundary="+fuzzBoundary)
		u, err := readUpload(httptest.NewRecorder(), r)
		if err != nil {
			return
		}
		if len(u.frames) > maxUploadParts {
			t.Fatalf("accepted %d frames, more than %d parts", len(u.frames), maxUploadParts)
		}
		for i := 1; i < len(u.frames); i++ {
			if u.frames[i-1].name > u.frames[i].name {
				t.Fatalf("frame %d %q sorts after frame %d %q", i-1, u.frames[i-1].name, i, u.frames[i].name)
			}
		}
		frames, err := u.clip()
		if err == nil {
			if len(frames) != len(u.frames) {
				t.Fatalf("clip() returned %d frames of %d", len(frames), len(u.frames))
			}
			for i, img := range frames {
				if img != u.frames[i].img {
					t.Fatalf("clip() frame %d is not the upload's frame %d", i, i)
				}
			}
		} else if len(u.frames) > 0 {
			t.Fatalf("clip() refused %d frames: %v", len(u.frames), err)
		}
		_, _ = u.manual()
	})
}
