package server

import (
	"bytes"
	"fmt"
	"io"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/sljmotion/sljmotion/internal/clipio"
	"github.com/sljmotion/sljmotion/internal/imaging"
	"github.com/sljmotion/sljmotion/internal/synth"
)

// uploadPart is one part of a hand-built multipart upload: a file part
// when filename is set, a value part otherwise.
type uploadPart struct {
	name, filename string
	body           io.Reader
}

// multipartBody streams parts as one multipart body without buffering it,
// so a test can send more bytes than it ever holds.
func multipartBody(parts []uploadPart) (*io.PipeReader, string) {
	pr, pw := io.Pipe()
	mw := multipart.NewWriter(pw)
	go func() {
		for _, p := range parts {
			var w io.Writer
			var err error
			if p.filename != "" {
				w, err = mw.CreateFormFile(p.name, p.filename)
			} else {
				w, err = mw.CreateFormField(p.name)
			}
			if err == nil {
				_, err = io.Copy(w, p.body)
			}
			if err != nil {
				pw.CloseWithError(err)
				return
			}
		}
		pw.CloseWithError(mw.Close())
	}()
	return pr, mw.FormDataContentType()
}

// clipParts returns the clip's frame parts in name order plus its truth part.
func clipParts(t *testing.T, v *synth.Video) (frames []uploadPart, truth uploadPart) {
	t.Helper()
	for k, f := range v.Frames {
		var buf bytes.Buffer
		if err := imaging.EncodePPM(&buf, f); err != nil {
			t.Fatal(err)
		}
		frames = append(frames, uploadPart{"frames", clipio.FrameName(k), &buf})
	}
	manual := v.ManualAnnotation(synth.DefaultAnnotationError(), 1)
	var tb bytes.Buffer
	fmt.Fprintf(&tb, "0 %.2f %.2f", manual.X, manual.Y)
	for l := 0; l < 8; l++ {
		fmt.Fprintf(&tb, " %.2f", manual.Rho[l])
	}
	fmt.Fprintln(&tb)
	return frames, uploadPart{"truth", "truth.txt", &tb}
}

func valuePart(name, value string) uploadPart {
	return uploadPart{name: name, body: strings.NewReader(value)}
}

// serveUpload runs one upload through the handler in-process (no socket,
// so a body the server stops reading cannot break the client's write).
func serveUpload(s *Server, method, target string, parts []uploadPart) (int, string) {
	body, ctype := multipartBody(parts)
	defer body.Close() // unblocks the writer when the handler stops early
	req := httptest.NewRequest(method, target, body)
	req.Header.Set("Content-Type", ctype)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	return rec.Code, rec.Body.String()
}

// TestUploadParity pins how the multipart clip upload is read: frame
// order comes from file names, not arrival; stage and shaping options may
// come from the query string; a query value wins over a body field of the
// same name (r.FormValue's documented order); and the limits and 400
// messages stay what they were.
func TestUploadParity(t *testing.T) {
	params := synth.DefaultJumpParams()
	params.Frames = 6
	v, err := synth.Generate(params)
	if err != nil {
		t.Fatal(err)
	}
	s := fastServer(t)
	analyzed := func() int {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.analyzed
	}
	with := func(extra ...uploadPart) []uploadPart {
		frames, truth := clipParts(t, v)
		return append(append(frames, truth), extra...)
	}

	code, ref := serveUpload(s, http.MethodPost, "/v1/analyze",
		with(valuePart("stages", "segmentation"), valuePart("silhouettes", "1")))
	if code != http.StatusOK {
		t.Fatalf("reference upload: %d %s", code, ref)
	}

	t.Run("frames out of name order", func(t *testing.T) {
		frames, truth := clipParts(t, v)
		var parts []uploadPart
		for i := len(frames) - 1; i >= 0; i-- {
			parts = append(parts, frames[i])
		}
		parts = append([]uploadPart{valuePart("silhouettes", "1"), truth}, parts...)
		parts = append(parts, valuePart("stages", "segmentation"))
		code, got := serveUpload(s, http.MethodPost, "/v1/analyze", parts)
		if code != http.StatusOK || got != ref {
			t.Fatalf("reordered upload: %d, identical=%v", code, got == ref)
		}
	})

	t.Run("options in the query string", func(t *testing.T) {
		code, got := serveUpload(s, http.MethodPost, "/v1/analyze?stages=segmentation&silhouettes=1", with())
		if code != http.StatusOK || got != ref {
			t.Fatalf("query options: %d, identical=%v", code, got == ref)
		}
	})

	t.Run("query value wins over body field", func(t *testing.T) {
		code, got := serveUpload(s, http.MethodPost, "/v1/analyze?stages=segmentation",
			with(valuePart("stages", "warp"), valuePart("silhouettes", "1")))
		if code != http.StatusOK || got != ref {
			t.Fatalf("valid query over invalid body: %d %s", code, got)
		}
		code, got = serveUpload(s, http.MethodPost, "/v1/analyze?stages=warp",
			with(valuePart("stages", "segmentation"), valuePart("silhouettes", "1")))
		if code != http.StatusBadRequest || !strings.Contains(got, "warp") {
			t.Fatalf("invalid query over valid body: %d %s", code, got)
		}
	})

	if n := analyzed(); n != 1 {
		t.Errorf("clips_analyzed = %d, want 1: every variant must key to the reference request", n)
	}

	errCases := []struct {
		name, ctype string
		parts       []uploadPart
		body        io.Reader
		want        string
	}{
		{name: "missing frames", parts: func() []uploadPart {
			_, truth := clipParts(t, v)
			return []uploadPart{truth, valuePart("poses", "1")}
		}(), want: "no 'frames' files in upload"},
		{name: "missing truth", parts: func() []uploadPart {
			frames, _ := clipParts(t, v)
			return frames
		}(), want: "no 'truth' file in upload"},
		{name: "frames sent as a value", parts: func() []uploadPart {
			_, truth := clipParts(t, v)
			return []uploadPart{valuePart("frames", "P6 1 1 255 abc"), truth}
		}(), want: "no 'frames' files in upload"},
		{name: "non-multipart body", ctype: "text/plain", body: strings.NewReader("hello"),
			want: "parse upload: request Content-Type isn't multipart/form-data"},
		{name: "more than 1000 parts", parts: func() []uploadPart {
			parts := with()
			for len(parts) <= 1000 {
				parts = append(parts, valuePart("x", "1"))
			}
			return parts
		}(), want: "parse upload: multipart: message too large"},
		{name: "body over 64 MiB", parts: with(uploadPart{"padding", "pad.bin",
			io.LimitReader(zeros{}, MaxUploadBytes+1)}), want: "parse upload: http: request body too large"},
	}
	for _, tc := range errCases {
		t.Run(tc.name, func(t *testing.T) {
			var code int
			var got string
			if tc.body != nil {
				req := httptest.NewRequest(http.MethodPost, "/v1/jobs", tc.body)
				req.Header.Set("Content-Type", tc.ctype)
				rec := httptest.NewRecorder()
				s.Handler().ServeHTTP(rec, req)
				code, got = rec.Code, rec.Body.String()
			} else {
				code, got = serveUpload(s, http.MethodPost, "/v1/jobs", tc.parts)
			}
			if code != http.StatusBadRequest || !strings.Contains(got, tc.want) {
				t.Fatalf("status %d body %s, want 400 containing %q", code, got, tc.want)
			}
		})
	}

	t.Run("1000 parts are accepted", func(t *testing.T) {
		parts := with(valuePart("stages", "segmentation"), valuePart("silhouettes", "1"))
		for len(parts) < 1000 {
			parts = append(parts, valuePart("x", "1"))
		}
		if code, got := serveUpload(s, http.MethodPost, "/v1/analyze", parts); code != http.StatusOK || got != ref {
			t.Fatalf("1000-part upload: %d %s", code, got)
		}
	})
}

// TestChunkUploadParity drives the chunk-append route through the same
// reader: frames out of name order, and the chunk index from the query
// string.
func TestChunkUploadParity(t *testing.T) {
	params := synth.DefaultJumpParams()
	params.Frames = 4
	v, err := synth.Generate(params)
	if err != nil {
		t.Fatal(err)
	}
	s := fastServer(t)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	seal := func(upload func(id string) (int, string)) string {
		id := openClipHTTP(t, srv.URL)
		if code, body := upload(id); code != http.StatusOK {
			t.Fatalf("append: %d %s", code, body)
		}
		code, doc := sealClipHTTP(t, srv.URL, id)
		if code != http.StatusOK {
			t.Fatalf("seal: %d %s", code, doc)
		}
		return string(doc[strings.Index(string(doc), `"frames_hash"`):])
	}
	inOrder := seal(func(id string) (int, string) {
		code, body := appendChunkHTTP(t, srv.URL, id, 0, v.Frames)
		return code, string(body)
	})
	reordered := seal(func(id string) (int, string) {
		frames, _ := clipParts(t, v)
		parts := []uploadPart{frames[3], frames[1], frames[0], frames[2]}
		return serveUpload(s, http.MethodPut, "/v1/clips/"+id+"/frames?chunk=0", parts)
	})
	if inOrder != reordered {
		t.Fatalf("reordered chunk sealed differently:\n%s\n%s", inOrder, reordered)
	}

	id := openClipHTTP(t, srv.URL)
	if code, body := serveUpload(s, http.MethodPut, "/v1/clips/"+id+"/frames?chunk=0", nil); code != http.StatusBadRequest ||
		!strings.Contains(body, "no 'frames' files in upload") {
		t.Fatalf("empty chunk: %d %s", code, body)
	}
	if code, body := serveUpload(s, http.MethodPut, "/v1/clips/"+id+"/frames", nil); code != http.StatusBadRequest ||
		!strings.Contains(body, "is not a non-negative integer") {
		t.Fatalf("chunk missing: %d %s", code, body)
	}
}

// zeros is an endless stream of zero bytes.
type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	clear(p)
	return len(p), nil
}
