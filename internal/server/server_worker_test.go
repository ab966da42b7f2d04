package server

import (
	"bytes"
	"encoding/json"
	"io"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/sljmotion/sljmotion/internal/artifacts"
	"github.com/sljmotion/sljmotion/internal/clipio"
	"github.com/sljmotion/sljmotion/internal/core"
	"github.com/sljmotion/sljmotion/internal/e2etest"
	"github.com/sljmotion/sljmotion/internal/imaging"
	"github.com/sljmotion/sljmotion/internal/jobs"
	"github.com/sljmotion/sljmotion/internal/obs"
	"github.com/sljmotion/sljmotion/internal/synth"
)

// workerServer builds a fast server with the worker intake mounted.
func workerServer(t *testing.T) *Server {
	t.Helper()
	opts := DefaultOptions()
	opts.Worker = true
	return fastServerWithOptions(t, opts)
}

// segmentationPayload encodes a segmentation-only request for the synthetic
// clip under the server's own config fingerprint.
func segmentationPayload(t *testing.T, s *Server, v *synth.Video) jobs.Payload {
	t.Helper()
	req := core.Request{
		Frames:             v.Frames,
		ManualFirst:        v.ManualAnnotation(synth.DefaultAnnotationError(), 1),
		Stages:             core.OnlyStage(core.StageSegmentation),
		IncludeSilhouettes: true,
	}
	p, err := jobs.NewAnalysisPayload(s.cfgFP, req)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestWorkerIntakeRoundTrip drives the worker protocol directly: a payload
// posted to /v1/worker/jobs runs through the standard lifecycle and yields
// the same response document the multipart /v1/analyze path builds; the
// identical resubmission is answered from the node's cache.
func TestWorkerIntakeRoundTrip(t *testing.T) {
	v, err := synth.Generate(synth.DefaultJumpParams())
	if err != nil {
		t.Fatal(err)
	}
	s := workerServer(t)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	// Reference: the multipart synchronous path. The truth file is written
	// with full float precision so the parsed manual pose — and therefore
	// the cache key — matches the payload's exactly.
	body, ctype := exactClipUpload(t, v)
	sresp, err := http.Post(srv.URL+"/v1/analyze", ctype, body)
	if err != nil {
		t.Fatal(err)
	}
	refRaw, _ := io.ReadAll(sresp.Body)
	sresp.Body.Close()
	if sresp.StatusCode != http.StatusOK {
		t.Fatalf("reference status %d: %s", sresp.StatusCode, refRaw)
	}

	// The same request as a serialized payload. The reference run already
	// cached the response, so the worker answers 200 from its cache.
	p := segmentationPayload(t, s, v)
	raw, _ := json.Marshal(p)
	wresp, err := http.Post(srv.URL+"/v1/worker/jobs", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	hitRaw, _ := io.ReadAll(wresp.Body)
	wresp.Body.Close()
	if wresp.StatusCode != http.StatusOK {
		t.Fatalf("cached intake status %d: %s", wresp.StatusCode, hitRaw)
	}
	if wresp.Header.Get(CacheHeader) != "hit" {
		t.Errorf("cache hit must set %s", CacheHeader)
	}
	if !bytes.Equal(hitRaw, refRaw) {
		t.Errorf("cached worker response differs from /v1/analyze:\n%s\nvs\n%s", hitRaw, refRaw)
	}

	// A fresh server (cold cache) enqueues the payload as a normal job.
	s2 := workerServer(t)
	srv2 := httptest.NewServer(s2.Handler())
	defer srv2.Close()
	w2, err := http.Post(srv2.URL+"/v1/worker/jobs", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var sub submitResponse
	if err := json.NewDecoder(w2.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	w2.Body.Close()
	if w2.StatusCode != http.StatusAccepted {
		t.Fatalf("cold intake status %d", w2.StatusCode)
	}
	waitState(t, srv2.URL, sub.ID, string(jobs.StateDone))
	rresp, err := http.Get(srv2.URL + sub.ResultURL)
	if err != nil {
		t.Fatal(err)
	}
	jobRaw, _ := io.ReadAll(rresp.Body)
	rresp.Body.Close()
	if rresp.StatusCode != http.StatusOK {
		t.Fatalf("result status %d: %s", rresp.StatusCode, jobRaw)
	}
	// Fresh execution on a cold node: identical up to the wall-clock
	// stage_ms timings.
	if !bytes.Equal(e2etest.StripVolatile(t, jobRaw), e2etest.StripVolatile(t, refRaw)) {
		t.Errorf("worker job result differs from /v1/analyze:\n%s\nvs\n%s", jobRaw, refRaw)
	}
}

// capturingDispatcher records every payload submitted through it and then
// hands it to the wrapped dispatcher.
type capturingDispatcher struct {
	jobs.Dispatcher
	mu        sync.Mutex
	submitted []jobs.Payload
}

func (c *capturingDispatcher) SubmitTraced(p jobs.Payload, parent obs.SpanContext) (string, error) {
	c.mu.Lock()
	c.submitted = append(c.submitted, p)
	c.mu.Unlock()
	return c.Dispatcher.SubmitTraced(p, parent)
}

// TestWorkerIntakeHandsOnDecodedRequest: a cache-missing inline payload
// reaches submitPayload carrying the request the intake decoded and the
// key it computed over it, so the executor decodes and hashes the clip
// once, not twice.
func TestWorkerIntakeHandsOnDecodedRequest(t *testing.T) {
	v, err := synth.Generate(synth.DefaultJumpParams())
	if err != nil {
		t.Fatal(err)
	}
	s := workerServer(t)
	capture := &capturingDispatcher{Dispatcher: s.jobs}
	s.jobs = capture
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	raw, _ := json.Marshal(segmentationPayload(t, s, v))
	resp, err := http.Post(srv.URL+"/v1/worker/jobs", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var sub submitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("intake status %d", resp.StatusCode)
	}
	waitState(t, srv.URL, sub.ID, string(jobs.StateDone))

	capture.mu.Lock()
	submitted := capture.submitted
	capture.mu.Unlock()
	if len(submitted) != 1 {
		t.Fatalf("%d payloads submitted, want 1", len(submitted))
	}
	p := submitted[0]
	first, err := p.AnalysisRequest()
	if err != nil {
		t.Fatal(err)
	}
	again, err := p.AnalysisRequest()
	if err != nil {
		t.Fatal(err)
	}
	// A stashed request comes back as is; an undecoded payload decodes
	// fresh frames on every call.
	if len(first.Frames) != len(v.Frames) || first.Frames[0] != again.Frames[0] {
		t.Error("submitted payload does not carry the decoded request")
	}
	key, ok := p.LocalKey(s.cfgFP)
	if !ok {
		t.Fatal("submitted payload carries no local key")
	}
	if want := jobs.RequestKey(s.cfgFP, first); key != want {
		t.Errorf("local key %s, want %s", key, want)
	}
}

// TestWorkerIntakeRejectsOversizedFrames posts frames whose sides multiply
// past 2^64: the intake must answer 400 with the error envelope instead of
// accepting a job whose executor would panic, and the node keeps serving.
func TestWorkerIntakeRejectsOversizedFrames(t *testing.T) {
	s := workerServer(t)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	frame := `{"w":4294967296,"h":4294967296,"rgb":""}`
	body := `{"kind":"slj-analysis/v1","stages":"segmentation","frames":[` +
		frame + "," + frame + "," + frame + `]}`
	resp, err := http.Post(srv.URL+"/v1/worker/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized frames: status %d, want 400: %s", resp.StatusCode, raw)
	}
	var env errorResponse
	if err := json.Unmarshal(raw, &env); err != nil || env.Error == "" {
		t.Fatalf("body is not the error envelope: %s", raw)
	}

	// The node still runs a well-formed job to completion.
	v, err := synth.Generate(synth.DefaultJumpParams())
	if err != nil {
		t.Fatal(err)
	}
	good, _ := json.Marshal(segmentationPayload(t, s, v))
	resp, err = http.Post(srv.URL+"/v1/worker/jobs", "application/json", bytes.NewReader(good))
	if err != nil {
		t.Fatal(err)
	}
	var sub submitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("well-formed intake status %d", resp.StatusCode)
	}
	waitState(t, srv.URL, sub.ID, string(jobs.StateDone))
}

// exactClipUpload is clipUploadStaged (stages=segmentation, silhouettes=1)
// with the manual pose written at full float precision, so the server-side
// parse reconstructs the exact ManualAnnotation floats.
func exactClipUpload(t *testing.T, v *synth.Video) (*bytes.Buffer, string) {
	t.Helper()
	manual := v.ManualAnnotation(synth.DefaultAnnotationError(), 1)
	var body bytes.Buffer
	mw := multipart.NewWriter(&body)
	for k, f := range v.Frames {
		fw, err := mw.CreateFormFile("frames", clipio.FrameName(k))
		if err != nil {
			t.Fatal(err)
		}
		if err := imaging.EncodePPM(fw, f); err != nil {
			t.Fatal(err)
		}
	}
	fw, err := mw.CreateFormFile("truth", "truth.txt")
	if err != nil {
		t.Fatal(err)
	}
	g := func(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }
	io.WriteString(fw, "0 "+g(manual.X)+" "+g(manual.Y))
	for l := 0; l < 8; l++ {
		io.WriteString(fw, " "+g(manual.Rho[l]))
	}
	io.WriteString(fw, "\n")
	for _, field := range [][2]string{{"stages", "segmentation"}, {"silhouettes", "1"}} {
		if err := mw.WriteField(field[0], field[1]); err != nil {
			t.Fatal(err)
		}
	}
	mw.Close()
	return &body, mw.FormDataContentType()
}

// TestWorkerIntakeIgnoresStampedKey pins the poisoning defence: the
// payload's CacheKey is a routing hint, and the worker stores results only
// under the key it recomputes from the decoded request — a forged stamp
// must never plant one request's result under another's address.
func TestWorkerIntakeIgnoresStampedKey(t *testing.T) {
	v, err := synth.Generate(synth.DefaultJumpParams())
	if err != nil {
		t.Fatal(err)
	}
	s := workerServer(t)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	// Victim request B: same clip, different response shape → its own key.
	reqB := core.Request{
		Frames:       v.Frames,
		ManualFirst:  v.ManualAnnotation(synth.DefaultAnnotationError(), 1),
		Stages:       core.OnlyStage(core.StageSegmentation),
		IncludePoses: true,
	}
	keyB := jobs.RequestKey(s.cfgFP, reqB).String()

	// Attacker payload: request A's content stamped with B's key.
	forged := segmentationPayload(t, s, v)
	honestKey := forged.CacheKey
	forged.CacheKey = keyB
	raw, _ := json.Marshal(forged)
	resp, err := http.Post(srv.URL+"/v1/worker/jobs", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var sub submitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("forged submit status %d", resp.StatusCode)
	}
	waitState(t, srv.URL, sub.ID, string(jobs.StateDone))

	// B's honest submission must MISS — the forged run must not have been
	// stored under B's key.
	pB, err := jobs.NewAnalysisPayload(s.cfgFP, reqB)
	if err != nil {
		t.Fatal(err)
	}
	rawB, _ := json.Marshal(pB)
	respB, err := http.Post(srv.URL+"/v1/worker/jobs", "application/json", bytes.NewReader(rawB))
	if err != nil {
		t.Fatal(err)
	}
	respB.Body.Close()
	if respB.StatusCode != http.StatusAccepted {
		t.Fatalf("victim request was answered from a poisoned cache: status %d", respB.StatusCode)
	}

	// And the forged run was stored under its *recomputed* (honest) key: an
	// honest resubmission of A hits.
	honest := segmentationPayload(t, s, v)
	if honest.CacheKey != honestKey {
		t.Fatalf("test setup: honest key drifted")
	}
	rawA, _ := json.Marshal(honest)
	respA, err := http.Post(srv.URL+"/v1/worker/jobs", "application/json", bytes.NewReader(rawA))
	if err != nil {
		t.Fatal(err)
	}
	respA.Body.Close()
	if respA.StatusCode != http.StatusOK {
		t.Errorf("honest resubmission should hit the recomputed key: status %d", respA.StatusCode)
	}
}

func TestWorkerIntakeRejectsGarbage(t *testing.T) {
	s := workerServer(t)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	// Not JSON at all.
	resp, err := http.Post(srv.URL+"/v1/worker/jobs", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage payload status %d, want 400", resp.StatusCode)
	}

	// Wrong kind.
	raw, _ := json.Marshal(jobs.Payload{Kind: "bogus/v9"})
	resp, err = http.Post(srv.URL+"/v1/worker/jobs", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bogus kind status %d, want 400", resp.StatusCode)
	}

	// A structurally valid payload whose request is unrunnable (no frames).
	raw, _ = json.Marshal(jobs.Payload{Kind: jobs.KindAnalysis})
	resp, err = http.Post(srv.URL+"/v1/worker/jobs", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("frameless payload status %d, want 400", resp.StatusCode)
	}

	// Inline frames next to a frames ref: the two could disagree.
	raw, _ = json.Marshal(jobs.Payload{
		Kind:      jobs.KindAnalysis,
		Frames:    []jobs.FrameWire{{W: 1, H: 1, RGB: []byte{1, 2, 3}}},
		FramesRef: strings.Repeat("ab", 32),
	})
	resp, err = http.Post(srv.URL+"/v1/worker/jobs", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("frames plus frames_ref payload status %d, want 400", resp.StatusCode)
	}
}

func TestWorkerIntakeDisabledByDefault(t *testing.T) {
	srv := httptest.NewServer(fastServer(t).Handler())
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/v1/worker/jobs", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("non-worker server must not expose the intake: status %d", resp.StatusCode)
	}
}

// TestFailedJobResultEnvelope pins the failed-job contract of
// GET /v1/jobs/{id}/result: 422, the shared JSON
// error envelope carrying the job's error string, and the machine-readable
// state field set to "failed".
func TestFailedJobResultEnvelope(t *testing.T) {
	s := fastServerWithOptions(t, Options{Workers: 1, QueueSize: 2, ResultTTL: time.Minute})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	// A tiny all-black clip fails calibration deterministically and fast.
	var body bytes.Buffer
	mw, img := multipart.NewWriter(&body), imaging.NewImage(8, 8)
	for k := 0; k < 2; k++ {
		fw, err := mw.CreateFormFile("frames", clipio.FrameName(k))
		if err != nil {
			t.Fatal(err)
		}
		if err := imaging.EncodePPM(fw, img); err != nil {
			t.Fatal(err)
		}
	}
	fw, err := mw.CreateFormFile("truth", "truth.txt")
	if err != nil {
		t.Fatal(err)
	}
	io.WriteString(fw, "0 4 4 0 0 180 180 0 180 180 90\n")
	mw.Close()

	resp, err := http.Post(srv.URL+"/v1/jobs", mw.FormDataContentType(), &body)
	if err != nil {
		t.Fatal(err)
	}
	var sub submitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	st := waitState(t, srv.URL, sub.ID, string(jobs.StateFailed))
	if st.Err == "" {
		t.Fatal("failed status must carry the job error")
	}

	rresp, err := http.Get(srv.URL + sub.ResultURL)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(rresp.Body)
	rresp.Body.Close()
	if rresp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("result status %d, want 422", rresp.StatusCode)
	}
	var env errorResponse
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatalf("result body is not the error envelope: %s", raw)
	}
	if env.State != string(jobs.StateFailed) {
		t.Errorf("state = %q, want %q", env.State, jobs.StateFailed)
	}
	if !strings.Contains(env.Error, st.Err) {
		t.Errorf("envelope %q must carry the job error %q", env.Error, st.Err)
	}
}

// TestByHashWorkerHitNeedsNoFrames: a worker holding the result for a
// by-reference request's key answers it from that key alone. It holds no
// frames for the ref and its artifact origin is unreachable, yet it
// answers 200 X-SLJ-Cache: hit with the stored document and no pull.
func TestByHashWorkerHitNeedsNoFrames(t *testing.T) {
	s := workerServer(t)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	gone := httptest.NewServer(http.NotFoundHandler())
	gone.Close() // an origin that refuses every connection

	req := core.Request{Stages: core.OnlyStage(core.StageSegmentation), IncludeSilhouettes: true}
	ref := jobs.FramesHash([]*imaging.Image{imaging.NewImage(8, 8)}).String()
	p, err := jobs.NewArtifactPayload(s.cfgFP, ref, req)
	if err != nil {
		t.Fatal(err)
	}
	p.ArtifactOrigin = gone.URL
	key, err := jobs.RefKey(s.cfgFP, ref, req)
	if err != nil {
		t.Fatal(err)
	}
	doc := []byte("{\n  \"frames\": 1\n}\n")
	if _, err := s.artifacts.Put(artifacts.EncodeResult(key, doc)); err != nil {
		t.Fatal(err)
	}

	raw, _ := json.Marshal(p)
	hr, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/worker/jobs", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	hr.Header.Set(jobs.ArtifactPayloadHeader, "1")
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get(CacheHeader) != "hit" || !bytes.Equal(body, doc) {
		t.Fatalf("intake: %d %s=%q %s, want 200, a hit and the stored document", resp.StatusCode, CacheHeader, resp.Header.Get(CacheHeader), body)
	}
	if am := s.artifacts.Metrics(); am.Pulls != 0 || am.PullFailures != 0 {
		t.Errorf("artifact metrics %+v, want no pull", am)
	}
	if n := s.jobs.Metrics().Submitted; n != 0 {
		t.Errorf("%d jobs enqueued, want 0", n)
	}
}
