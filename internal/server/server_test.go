package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/sljmotion/sljmotion/internal/clipio"
	"github.com/sljmotion/sljmotion/internal/core"
	"github.com/sljmotion/sljmotion/internal/e2etest"
	"github.com/sljmotion/sljmotion/internal/imaging"
	"github.com/sljmotion/sljmotion/internal/jobs"
	"github.com/sljmotion/sljmotion/internal/synth"
)

// fastServer builds a server with a trimmed GA budget.
func fastServer(t *testing.T) *Server {
	t.Helper()
	return fastServerWithOptions(t, DefaultOptions())
}

// fastServerWithOptions is fastServer with an explicit job configuration.
func fastServerWithOptions(t *testing.T, opts Options) *Server {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.Pose.Population = 40
	cfg.Pose.Generations = 40
	cfg.Pose.Patience = 10
	cfg.Pose.RefineRounds = 1
	s, err := NewWithOptions(cfg, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Close(ctx)
	})
	return s
}

// clipUpload builds the canonical multipart body for the synthetic clip.
func clipUpload(t *testing.T, v *synth.Video, includePoses bool) (*bytes.Buffer, string) {
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
	fmt.Fprintf(fw, "0 %.2f %.2f", manual.X, manual.Y)
	for l := 0; l < 8; l++ {
		fmt.Fprintf(fw, " %.2f", manual.Rho[l])
	}
	fmt.Fprintln(fw)
	if includePoses {
		if err := mw.WriteField("poses", "1"); err != nil {
			t.Fatal(err)
		}
	}
	mw.Close()
	return &body, mw.FormDataContentType()
}

func TestIndexPage(t *testing.T) {
	srv := httptest.NewServer(fastServer(t).Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	raw, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(raw), "/v1/analyze") {
		t.Error("index page missing upload form")
	}

	// Unknown paths 404.
	nf, err := http.Get(srv.URL + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	nf.Body.Close()
	if nf.StatusCode != http.StatusNotFound {
		t.Errorf("unknown path status %d", nf.StatusCode)
	}
}

func TestHealthz(t *testing.T) {
	srv := httptest.NewServer(fastServer(t).Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc["status"] != "ok" {
		t.Errorf("health doc: %v", doc)
	}
}

func TestRulesEndpoint(t *testing.T) {
	srv := httptest.NewServer(fastServer(t).Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/rules")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var docs []map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&docs); err != nil {
		t.Fatal(err)
	}
	if len(docs) != 7 {
		t.Fatalf("got %d rules, want 7", len(docs))
	}
	if docs[0]["id"] != "R1" {
		t.Errorf("first rule: %v", docs[0])
	}
}

func TestRulesMethodNotAllowed(t *testing.T) {
	srv := httptest.NewServer(fastServer(t).Handler())
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/v1/rules", "text/plain", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("status %d", resp.StatusCode)
	}
}

func TestAnalyzeRejectsGet(t *testing.T) {
	srv := httptest.NewServer(fastServer(t).Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/analyze")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("status %d", resp.StatusCode)
	}
}

func TestAnalyzeRejectsMissingParts(t *testing.T) {
	srv := httptest.NewServer(fastServer(t).Handler())
	defer srv.Close()

	// Multipart body with no files at all.
	var body bytes.Buffer
	mw := multipart.NewWriter(&body)
	if err := mw.WriteField("poses", "1"); err != nil {
		t.Fatal(err)
	}
	mw.Close()
	resp, err := http.Post(srv.URL+"/v1/analyze", mw.FormDataContentType(), &body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d", resp.StatusCode)
	}
	raw, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(raw), "frames") {
		t.Errorf("error should mention frames: %s", raw)
	}
}

func TestAnalyzeFullClip(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline over HTTP")
	}
	v, err := synth.Generate(synth.DefaultJumpParams())
	if err != nil {
		t.Fatal(err)
	}
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
	fmt.Fprintf(fw, "0 %.2f %.2f", manual.X, manual.Y)
	for l := 0; l < 8; l++ {
		fmt.Fprintf(fw, " %.2f", manual.Rho[l])
	}
	fmt.Fprintln(fw)
	if err := mw.WriteField("poses", "1"); err != nil {
		t.Fatal(err)
	}
	mw.Close()

	srv := httptest.NewServer(fastServer(t).Handler())
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/v1/analyze", mw.FormDataContentType(), &body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var doc AnalysisResponse
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.Frames != len(v.Frames) || doc.Total != 7 {
		t.Errorf("doc frames/total = %d/%d", doc.Frames, doc.Total)
	}
	if doc.Passed < 6 {
		t.Errorf("good-form clip scored %s over HTTP", doc.Score)
	}
	if len(doc.Poses) != len(v.Frames) {
		t.Errorf("poses missing: %d", len(doc.Poses))
	}
	if len(doc.Phases) != len(v.Frames) {
		t.Errorf("phases missing: %d", len(doc.Phases))
	}

	// Health counter advanced.
	hresp, err := http.Get(srv.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var h map[string]any
	if err := json.NewDecoder(hresp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h["clips_analyzed"].(float64) != 1 {
		t.Errorf("clips_analyzed = %v", h["clips_analyzed"])
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Pose.Population = 0
	if _, err := New(cfg, nil); err == nil {
		t.Fatal("expected error")
	}
}

// TestJobsCollectionMethods: GET on the /jobs collection is the history
// listing (it used to be 405 before the endpoint existed); anything that
// is neither GET nor POST stays 405 naming both.
func TestJobsCollectionMethods(t *testing.T) {
	srv := httptest.NewServer(fastServer(t).Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("GET /jobs (history listing) status %d, want 200", resp.StatusCode)
	}
	req, err := http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs", nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("DELETE /jobs status %d, want 405", dresp.StatusCode)
	}
	if got := dresp.Header.Get("Allow"); got != "GET, POST" {
		t.Errorf("Allow = %q, want GET, POST", got)
	}
}

func TestJobStatusNotFound(t *testing.T) {
	srv := httptest.NewServer(fastServer(t).Handler())
	defer srv.Close()
	for _, path := range []string{"/v1/jobs/deadbeef", "/v1/jobs/deadbeef/result", "/v1/jobs/deadbeef/nope"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s: status %d, want 404", path, resp.StatusCode)
		}
	}
}

func TestMetricsEndpoint(t *testing.T) {
	srv := httptest.NewServer(fastServer(t).Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var doc struct {
		ClipsAnalyzed int          `json:"clips_analyzed"`
		Jobs          jobs.Metrics `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.Jobs.Workers != DefaultOptions().Workers {
		t.Errorf("workers = %d", doc.Jobs.Workers)
	}
	if doc.Jobs.QueueCapacity != DefaultOptions().QueueSize {
		t.Errorf("queue capacity = %d", doc.Jobs.QueueCapacity)
	}
}

// TestJobsBackpressureHTTP drives the submission queue past capacity: with
// one worker and one queue slot, the third outstanding job must be answered
// 503 + Retry-After, not block or hang.
func TestJobsBackpressureHTTP(t *testing.T) {
	s := fastServerWithOptions(t, Options{Workers: 1, QueueSize: 1, ResultTTL: time.Minute})
	release := make(chan struct{})
	s.testExec = jobs.ExecutorFunc(func(ctx context.Context, p jobs.Payload, progress func(string)) (any, error) {
		progress("pose")
		select {
		case <-release:
			return &AnalysisResponse{Frames: 1}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	defer close(release)

	submit := func() (*submitResponse, int) {
		resp, err := http.Post(srv.URL+"/v1/jobs", "text/plain", strings.NewReader(""))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var doc submitResponse
		if resp.StatusCode == http.StatusAccepted {
			if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
				t.Fatal(err)
			}
		}
		return &doc, resp.StatusCode
	}

	first, code := submit()
	if code != http.StatusAccepted {
		t.Fatalf("first submit: %d", code)
	}
	// Wait until the worker has picked the first job up, so the queue state
	// is deterministic.
	waitState(t, srv.URL, first.ID, string(jobs.StateRunning))

	// While running, the result URL answers 202 with the status document.
	rresp, err := http.Get(srv.URL + first.ResultURL)
	if err != nil {
		t.Fatal(err)
	}
	rresp.Body.Close()
	if rresp.StatusCode != http.StatusAccepted {
		t.Errorf("running result status %d, want 202", rresp.StatusCode)
	}

	if _, code := submit(); code != http.StatusAccepted {
		t.Fatalf("second submit should queue: %d", code)
	}
	resp, err := http.Post(srv.URL+"/v1/jobs", "text/plain", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("third submit: %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 must carry Retry-After")
	}
	raw, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(raw), "retry") {
		t.Errorf("backpressure error should hint at retrying: %s", raw)
	}
}

// waitState polls a job's status URL until it reaches the wanted state.
func waitState(t *testing.T, base, id, want string) jobs.Status {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st jobs.Status
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if string(st.State) == want || st.State.Terminal() {
			if string(st.State) != want {
				t.Fatalf("job %s reached %s, want %s (err=%q)", id, st.State, want, st.Err)
			}
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
	return jobs.Status{}
}

// TestJobRoundTripMatchesSync is the acceptance test of the async path: a
// clip submitted via POST /jobs, polled to completion, must return the
// byte-identical AnalysisResponse the synchronous /analyze path produces.
// The synchronous reference runs on a second server: on the same one, the
// job would be answered from the stored sync result instead of running.
func TestJobRoundTripMatchesSync(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline twice over HTTP")
	}
	v, err := synth.Generate(synth.DefaultJumpParams())
	if err != nil {
		t.Fatal(err)
	}
	s := fastServerWithOptions(t, Options{Workers: 2, QueueSize: 4, ResultTTL: time.Minute})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	ref := httptest.NewServer(fastServer(t).Handler())
	defer ref.Close()

	// Synchronous reference.
	body, ctype := clipUpload(t, v, true)
	sresp, err := http.Post(ref.URL+"/v1/analyze", ctype, body)
	if err != nil {
		t.Fatal(err)
	}
	syncRaw, _ := io.ReadAll(sresp.Body)
	sresp.Body.Close()
	if sresp.StatusCode != http.StatusOK {
		t.Fatalf("sync status %d: %s", sresp.StatusCode, syncRaw)
	}

	// Async path.
	body, ctype = clipUpload(t, v, true)
	jresp, err := http.Post(srv.URL+"/v1/jobs", ctype, body)
	if err != nil {
		t.Fatal(err)
	}
	var sub submitResponse
	if err := json.NewDecoder(jresp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	jresp.Body.Close()
	if jresp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", jresp.StatusCode)
	}
	if sub.ID == "" || sub.StatusURL == "" || sub.ResultURL == "" {
		t.Fatalf("submit doc incomplete: %+v", sub)
	}

	waitState(t, srv.URL, sub.ID, string(jobs.StateDone))

	rresp, err := http.Get(srv.URL + sub.ResultURL)
	if err != nil {
		t.Fatal(err)
	}
	asyncRaw, _ := io.ReadAll(rresp.Body)
	rresp.Body.Close()
	if rresp.StatusCode != http.StatusOK {
		t.Fatalf("result status %d: %s", rresp.StatusCode, asyncRaw)
	}
	// The two executions agree on everything but the wall-clock stage_ms.
	if !bytes.Equal(e2etest.StripVolatile(t, syncRaw), e2etest.StripVolatile(t, asyncRaw)) {
		t.Errorf("async result differs from synchronous response:\nsync:  %s\nasync: %s",
			syncRaw, asyncRaw)
	}

	// Metrics reflect the served job.
	mresp, err := http.Get(srv.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var doc struct {
		ClipsAnalyzed int          `json:"clips_analyzed"`
		Jobs          jobs.Metrics `json:"jobs"`
	}
	if err := json.NewDecoder(mresp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.Jobs.Completed != 1 || doc.Jobs.Submitted != 1 {
		t.Errorf("job metrics: %+v", doc.Jobs)
	}
	if doc.ClipsAnalyzed != 1 {
		t.Errorf("clips_analyzed = %d, want 1 (the async job)", doc.ClipsAnalyzed)
	}
	if doc.Jobs.Run.Count != 1 || doc.Jobs.Run.MeanMS <= 0 {
		t.Errorf("run latency not recorded: %+v", doc.Jobs.Run)
	}
}

// TestJobFailurePropagates submits a clip the pipeline cannot analyse and
// expects a failed job whose result URL reports the error.
func TestJobFailurePropagates(t *testing.T) {
	s := fastServerWithOptions(t, Options{Workers: 1, QueueSize: 2, ResultTTL: time.Minute})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	// A tiny all-black clip: background subtraction yields an empty
	// silhouette, so calibration fails deterministically and quickly.
	var body bytes.Buffer
	mw := multipart.NewWriter(&body)
	img := imaging.NewImage(8, 8)
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
	fmt.Fprintln(fw, "0 4 4 0 0 180 180 0 180 180 90")
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
	waitState(t, srv.URL, sub.ID, string(jobs.StateFailed))
	rresp, err := http.Get(srv.URL + sub.ResultURL)
	if err != nil {
		t.Fatal(err)
	}
	defer rresp.Body.Close()
	if rresp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("failed result status %d, want 422", rresp.StatusCode)
	}
	raw, _ := io.ReadAll(rresp.Body)
	if !strings.Contains(string(raw), "analysis failed") {
		t.Errorf("failure body: %s", raw)
	}
}
