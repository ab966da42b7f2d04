package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"github.com/sljmotion/sljmotion/internal/artifacts"
	"github.com/sljmotion/sljmotion/internal/e2etest"
	"github.com/sljmotion/sljmotion/internal/imaging"
	"github.com/sljmotion/sljmotion/internal/stickmodel"
	"github.com/sljmotion/sljmotion/internal/synth"
)

// errorEnvelope is the service's JSON error document, code included.
type errorEnvelope struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

// openClipHTTP opens an ingest session over HTTP.
func openClipHTTP(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Post(base+"/v1/clips", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("open clip: status %d: %s", resp.StatusCode, raw)
	}
	var doc struct {
		ClipID    string `json:"clip_id"`
		FramesURL string `json:"frames_url"`
		SealURL   string `json:"seal_url"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil || doc.ClipID == "" {
		t.Fatalf("open clip: malformed document: %s", raw)
	}
	if want := "/v1/clips/" + doc.ClipID + "/frames"; doc.FramesURL != want {
		t.Fatalf("frames_url = %q, want %q", doc.FramesURL, want)
	}
	return doc.ClipID
}

// appendChunkHTTP uploads one chunk, returning status and body.
func appendChunkHTTP(t *testing.T, base, id string, chunk int, frames []*imaging.Image) (int, []byte) {
	t.Helper()
	var body bytes.Buffer
	mw := multipart.NewWriter(&body)
	if err := mw.WriteField("chunk", strconv.Itoa(chunk)); err != nil {
		t.Fatal(err)
	}
	for i, f := range frames {
		fw, err := mw.CreateFormFile("frames", fmt.Sprintf("frame_%04d.ppm", i))
		if err != nil {
			t.Fatal(err)
		}
		if err := imaging.EncodePPM(fw, f); err != nil {
			t.Fatal(err)
		}
	}
	mw.Close()
	req, err := http.NewRequest(http.MethodPut, base+"/v1/clips/"+id+"/frames", &body)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", mw.FormDataContentType())
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, raw
}

// sealClipHTTP seals the session, returning status and body.
func sealClipHTTP(t *testing.T, base, id string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(base+"/v1/clips/"+id+"/seal", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, raw
}

// analyzeJSONHTTP posts a by-reference JSON analysis request.
func analyzeJSONHTTP(t *testing.T, base string, doc map[string]any) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, raw
}

// quantManual rounds a pose to what a %.2f truth-file round trip yields, so
// a JSON request can carry the exact same manual pose as a multipart upload.
func quantManual(t *testing.T, m stickmodel.Pose) stickmodel.Pose {
	t.Helper()
	q := func(f float64) float64 {
		p, err := strconv.ParseFloat(fmt.Sprintf("%.2f", f), 64)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	m.X, m.Y = q(m.X), q(m.Y)
	for i := range m.Rho {
		m.Rho[i] = q(m.Rho[i])
	}
	return m
}

// manualJSON renders a pose as the manual_first JSON object.
func manualJSON(m stickmodel.Pose) map[string]any {
	return map[string]any{"x": m.X, "y": m.Y, "rho": m.Rho[:]}
}

func TestClipIngestProtocolErrors(t *testing.T) {
	srv := httptest.NewServer(fastServer(t).Handler())
	defer srv.Close()
	frames := []*imaging.Image{
		imaging.NewImageFilled(16, 8, imaging.Color{R: 100, G: 100, B: 100}),
		imaging.NewImageFilled(16, 8, imaging.Color{R: 100, G: 100, B: 100}),
	}

	// Unknown session: 404 with a machine-readable code.
	code, raw := appendChunkHTTP(t, srv.URL, "deadbeef", 0, frames)
	var env errorEnvelope
	if code != http.StatusNotFound || json.Unmarshal(raw, &env) != nil || env.Code != "session_not_found" {
		t.Fatalf("unknown session: %d %s", code, raw)
	}

	id := openClipHTTP(t, srv.URL)

	// Out-of-order chunk: 409 with the chunk_out_of_order code and the
	// expected index named in the message, so clients can resynchronise.
	code, raw = appendChunkHTTP(t, srv.URL, id, 3, frames)
	env = errorEnvelope{}
	if code != http.StatusConflict || json.Unmarshal(raw, &env) != nil {
		t.Fatalf("out-of-order chunk: %d %s", code, raw)
	}
	if env.Code != "chunk_out_of_order" || !bytes.Contains([]byte(env.Error), []byte("next chunk is 0")) {
		t.Fatalf("out-of-order envelope = %+v", env)
	}

	// In-order chunk succeeds and reports progress.
	code, raw = appendChunkHTTP(t, srv.URL, id, 0, frames)
	if code != http.StatusOK {
		t.Fatalf("chunk 0: %d %s", code, raw)
	}
	var st artifacts.SessionStatus
	if err := json.Unmarshal(raw, &st); err != nil || st.Frames != 2 || st.Chunks != 1 {
		t.Fatalf("status after chunk 0: %s", raw)
	}

	// Seal twice: idempotent, byte-identical documents.
	code, first := sealClipHTTP(t, srv.URL, id)
	if code != http.StatusOK {
		t.Fatalf("seal: %d %s", code, first)
	}
	code, second := sealClipHTTP(t, srv.URL, id)
	if code != http.StatusOK || !bytes.Equal(first, second) {
		t.Fatalf("reseal: %d\n%s\nvs\n%s", code, second, first)
	}
	var seal artifacts.SealDoc
	if err := json.Unmarshal(first, &seal); err != nil || seal.FramesHash == "" || seal.Frames != 2 {
		t.Fatalf("seal document: %s", first)
	}

	// Appending to a sealed session: 409 session_sealed.
	code, raw = appendChunkHTTP(t, srv.URL, id, 1, frames)
	env = errorEnvelope{}
	if code != http.StatusConflict || json.Unmarshal(raw, &env) != nil || env.Code != "session_sealed" {
		t.Fatalf("append after seal: %d %s", code, raw)
	}

	// Sealing an empty session fails cleanly.
	empty := openClipHTTP(t, srv.URL)
	if code, raw := sealClipHTTP(t, srv.URL, empty); code != http.StatusUnprocessableEntity {
		t.Fatalf("seal of empty session: %d %s", code, raw)
	}

	// A chunk that would make the sealed artifacts outgrow the store: 413
	// clip_too_large, and the session still seals what it accepted. Each
	// 16x8 frame adds 420 bytes to what seal stores (411 bytes fixed), so
	// a 4 KiB store takes 8 frames.
	smallOpts := DefaultOptions()
	smallOpts.ArtifactBytes = 4 << 10
	small := httptest.NewServer(fastServerWithOptions(t, smallOpts).Handler())
	defer small.Close()
	capped := openClipHTTP(t, small.URL)
	for chunk := 0; chunk < 4; chunk++ {
		if code, raw := appendChunkHTTP(t, small.URL, capped, chunk, frames); code != http.StatusOK {
			t.Fatalf("chunk %d within capacity: %d %s", chunk, code, raw)
		}
	}
	code, raw = appendChunkHTTP(t, small.URL, capped, 4, frames)
	env = errorEnvelope{}
	if code != http.StatusRequestEntityTooLarge || json.Unmarshal(raw, &env) != nil || env.Code != "clip_too_large" {
		t.Fatalf("chunk past the store's capacity: %d %s", code, raw)
	}
	code, raw = sealClipHTTP(t, small.URL, capped)
	var cappedSeal artifacts.SealDoc
	if err := json.Unmarshal(raw, &cappedSeal); code != http.StatusOK || err != nil || cappedSeal.Frames != 8 {
		t.Fatalf("seal after a rejected chunk: %d %s", code, raw)
	}

	// The stored frames artifact is fetchable by hash; unknown hashes carry
	// the artifact_not_found code.
	resp, err := http.Get(srv.URL + "/v1/artifacts/" + seal.FramesHash)
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get(ArtifactKindHeader) != string(artifacts.KindFrames) {
		t.Fatalf("artifact fetch: %d, kind %q", resp.StatusCode, resp.Header.Get(ArtifactKindHeader))
	}
	if artifacts.HashOf(blob) != seal.FramesHash {
		t.Fatal("served artifact does not hash to its address")
	}
	nf, err := http.Get(srv.URL + "/v1/artifacts/" + "0000000000000000000000000000000000000000000000000000000000000000")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ = io.ReadAll(nf.Body)
	nf.Body.Close()
	env = errorEnvelope{}
	if nf.StatusCode != http.StatusNotFound || json.Unmarshal(raw, &env) != nil || env.Code != "artifact_not_found" {
		t.Fatalf("unknown artifact: %d %s", nf.StatusCode, raw)
	}
}

// TestByHashAnalysisMatchesInline is the single-node identity acceptance:
// a clip streamed through an ingest session and analysed by content hash
// (full pipeline) returns a document byte-identical — modulo stage_ms — to
// the same clip uploaded inline. The result cache is disabled so both
// requests genuinely run, proving the memo-injected segmentation replay
// changes nothing.
func TestByHashAnalysisMatchesInline(t *testing.T) {
	opts := DefaultOptions()
	opts.CacheEntries = 0
	s := fastServerWithOptions(t, opts)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	v, err := synth.Generate(synth.DefaultJumpParams())
	if err != nil {
		t.Fatal(err)
	}
	manual := quantManual(t, v.ManualAnnotation(synth.DefaultAnnotationError(), 1))

	// Inline reference run.
	body, ctype := clipUpload(t, v, true)
	resp, err := http.Post(srv.URL+"/v1/analyze", ctype, body)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("inline analyze: %d %s", resp.StatusCode, want)
	}

	// Streamed upload: three chunks, then seal.
	id := openClipHTTP(t, srv.URL)
	n := len(v.Frames)
	for i, chunk := 0, 0; i < n; chunk++ {
		end := i + (n+2)/3
		if end > n {
			end = n
		}
		if code, raw := appendChunkHTTP(t, srv.URL, id, chunk, v.Frames[i:end]); code != http.StatusOK {
			t.Fatalf("chunk %d: %d %s", chunk, code, raw)
		}
		i = end
	}
	code, sealRaw := sealClipHTTP(t, srv.URL, id)
	if code != http.StatusOK {
		t.Fatalf("seal: %d %s", code, sealRaw)
	}
	var seal artifacts.SealDoc
	if err := json.Unmarshal(sealRaw, &seal); err != nil {
		t.Fatal(err)
	}

	// By-hash run of the full pipeline.
	code, got := analyzeJSONHTTP(t, srv.URL, map[string]any{
		"frames_ref":   seal.FramesHash,
		"manual_first": manualJSON(manual),
		"poses":        true,
	})
	if code != http.StatusOK {
		t.Fatalf("by-hash analyze: %d %s", code, got)
	}
	if !bytes.Equal(e2etest.StripVolatile(t, got), e2etest.StripVolatile(t, want)) {
		t.Fatalf("by-hash result differs from inline:\n%s\nvs\n%s", got, want)
	}

	// The ingest layer's metrics count the session and both artifacts.
	mresp, err := http.Get(srv.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var mdoc struct {
		Artifacts    artifacts.Metrics        `json:"artifacts"`
		ClipSessions artifacts.SessionMetrics `json:"clip_sessions"`
	}
	err = json.NewDecoder(mresp.Body).Decode(&mdoc)
	mresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if mdoc.ClipSessions.Sealed != 1 || mdoc.ClipSessions.FramesIngested != uint64(n) {
		t.Fatalf("clip session metrics = %+v", mdoc.ClipSessions)
	}
	if mdoc.Artifacts.Blobs < 2 || mdoc.Artifacts.Stored < 2 {
		t.Fatalf("artifact metrics = %+v, want the frames and silhouettes blobs", mdoc.Artifacts)
	}
}

// TestByHashAnalysisStacksWithResultCache: because the memo-injected
// segmentation is excluded from the cache key, a by-hash request hashes
// identically to the inline upload of the same clip — so the second form is
// answered from the result cache populated by the first.
func TestByHashAnalysisStacksWithResultCache(t *testing.T) {
	s := fastServer(t)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	v, err := synth.Generate(synth.DefaultJumpParams())
	if err != nil {
		t.Fatal(err)
	}
	manual := quantManual(t, v.ManualAnnotation(synth.DefaultAnnotationError(), 1))

	// Inline segmentation-only run populates the cache.
	body, ctype := e2etest.ClipUpload(t, v, "segmentation", true)
	resp, err := http.Post(srv.URL+"/v1/analyze", ctype, body)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("inline analyze: %d %s", resp.StatusCode, want)
	}

	id := openClipHTTP(t, srv.URL)
	if code, raw := appendChunkHTTP(t, srv.URL, id, 0, v.Frames); code != http.StatusOK {
		t.Fatalf("chunk 0: %d %s", code, raw)
	}
	code, sealRaw := sealClipHTTP(t, srv.URL, id)
	if code != http.StatusOK {
		t.Fatalf("seal: %d %s", code, sealRaw)
	}
	var seal artifacts.SealDoc
	if err := json.Unmarshal(sealRaw, &seal); err != nil {
		t.Fatal(err)
	}

	code, got := analyzeJSONHTTP(t, srv.URL, map[string]any{
		"frames_ref":   seal.FramesHash,
		"manual_first": manualJSON(manual),
		"stages":       "segmentation",
		"silhouettes":  true,
	})
	if code != http.StatusOK {
		t.Fatalf("by-hash analyze: %d %s", code, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("cache-answered by-hash result differs byte-for-byte:\n%s\nvs\n%s", got, want)
	}
	if cm := s.cache.Metrics(); cm.Hits != 1 {
		t.Fatalf("cache hits = %d, want the by-hash request answered from the inline run's entry", cm.Hits)
	}
}
