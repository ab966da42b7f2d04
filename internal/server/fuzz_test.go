package server

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/sljmotion/sljmotion/internal/artifacts"
	"github.com/sljmotion/sljmotion/internal/core"
	"github.com/sljmotion/sljmotion/internal/imaging"
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

// FuzzArtifactRange drives GET /v1/artifacts/{hash} with arbitrary Range,
// If-Range and If-None-Match headers over a blob held in memory and one
// streamed from the spill tier. A literal ETAG in a validator stands for
// the blob's own ETag, so the seeds reach the matching paths. The route may
// not panic and answers 200, 206, 304 or 416 only; a 200 body is the whole
// blob, and a single-range 206 body is exactly the bytes its Content-Range
// names. The seed corpus lives in testdata/fuzz/FuzzArtifactRange.
func FuzzArtifactRange(f *testing.F) {
	opts := DefaultOptions()
	opts.ArtifactBlobs = 1 // the second Put demotes the first to the spill tier
	opts.ArtifactSpillDir = f.TempDir()
	s, err := NewWithOptions(core.DefaultConfig(), nil, opts)
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { _ = s.Close(context.Background()) })
	var blobs [][]byte
	for _, shade := range []uint8{60, 160} {
		img := imaging.NewImageFilled(9, 5, imaging.Color{R: shade, G: shade, B: shade})
		blob, err := artifacts.EncodeFrames([]*imaging.Image{img, img})
		if err != nil {
			f.Fatal(err)
		}
		if _, err := s.artifacts.Put(blob); err != nil {
			f.Fatal(err)
		}
		blobs = append(blobs, blob)
	}
	if m := s.artifacts.Metrics(); m.Blobs != 1 || m.SpillWrites != 2 {
		f.Fatalf("artifact metrics %+v, want one blob in memory and both spilled", m)
	}
	h := s.Handler()
	f.Fuzz(func(t *testing.T, rng, ifRange, ifNoneMatch string) {
		for tier, blob := range blobs {
			hash := artifacts.HashOf(blob)
			etag := `"` + hash + `"`
			r := httptest.NewRequest(http.MethodGet, "/v1/artifacts/"+hash, nil)
			for name, v := range map[string]string{"Range": rng, "If-Range": ifRange, "If-None-Match": ifNoneMatch} {
				if v != "" {
					r.Header.Set(name, strings.ReplaceAll(v, "ETAG", etag))
				}
			}
			w := httptest.NewRecorder()
			h.ServeHTTP(w, r)
			body := w.Body.Bytes()
			switch w.Code {
			case http.StatusOK:
				if !bytes.Equal(body, blob) {
					t.Fatalf("tier %d: 200 body is %d bytes, not the %d-byte blob", tier, len(body), len(blob))
				}
			case http.StatusPartialContent:
				cr := w.Header().Get("Content-Range")
				if cr == "" {
					break // multipart/byteranges: each part names its own range
				}
				var first, last, size int
				if _, err := fmt.Sscanf(cr, "bytes %d-%d/%d", &first, &last, &size); err != nil {
					t.Fatalf("tier %d: Content-Range %q: %v", tier, cr, err)
				}
				if size != len(blob) || first < 0 || first > last || last >= size || !bytes.Equal(body, blob[first:last+1]) {
					t.Fatalf("tier %d: 206 body of %d bytes does not match Content-Range %q", tier, len(body), cr)
				}
			case http.StatusNotModified, http.StatusRequestedRangeNotSatisfiable:
			default:
				t.Fatalf("tier %d: status %d for Range %q If-Range %q If-None-Match %q", tier, w.Code, rng, ifRange, ifNoneMatch)
			}
		}
	})
}
