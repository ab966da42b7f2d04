package server

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/sljmotion/sljmotion/internal/artifacts"
	"github.com/sljmotion/sljmotion/internal/clipio"
	"github.com/sljmotion/sljmotion/internal/core"
	"github.com/sljmotion/sljmotion/internal/imaging"
	"github.com/sljmotion/sljmotion/internal/jobs"
	"github.com/sljmotion/sljmotion/internal/synth"
)

// metricsDoc mirrors the /v1/metrics document for tests.
type metricsDoc struct {
	ClipsAnalyzed int                     `json:"clips_analyzed"`
	Jobs          jobs.Metrics            `json:"jobs"`
	Cache         artifacts.ResultMetrics `json:"cache"`
}

func getMetrics(t *testing.T, base string) metricsDoc {
	t.Helper()
	resp, err := http.Get(base + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc metricsDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestMethodNotAllowedEverywhere drives every route with a wrong method
// and expects 405, an Allow header and the JSON error envelope. The
// pre-/v1 paths are not routes: they answer 404 with the same envelope.
func TestMethodNotAllowedEverywhere(t *testing.T) {
	srv := httptest.NewServer(fastServer(t).Handler())
	defer srv.Close()

	cases := []struct {
		method, path, allow string
		status              int
	}{
		{http.MethodGet, "/v1/analyze", "POST", http.StatusMethodNotAllowed},
		{http.MethodDelete, "/v1/analyze", "POST", http.StatusMethodNotAllowed},
		{http.MethodDelete, "/v1/jobs", "GET, POST", http.StatusMethodNotAllowed},
		{http.MethodPost, "/v1/jobs/deadbeef", "GET", http.StatusMethodNotAllowed},
		{http.MethodPost, "/v1/jobs/deadbeef/result", "GET", http.StatusMethodNotAllowed},
		{http.MethodPost, "/v1/jobs/deadbeef/events", "GET", http.StatusMethodNotAllowed},
		{http.MethodDelete, "/v1/jobs/deadbeef/events", "GET", http.StatusMethodNotAllowed},
		{http.MethodPost, "/v1/events", "GET", http.StatusMethodNotAllowed},
		{http.MethodPut, "/v1/events", "GET", http.StatusMethodNotAllowed},
		{http.MethodPost, "/v1/metrics", "GET", http.StatusMethodNotAllowed},
		{http.MethodPut, "/v1/rules", "GET", http.StatusMethodNotAllowed},
		{http.MethodPost, "/v1/healthz", "GET", http.StatusMethodNotAllowed},
		{http.MethodPost, "/", "GET", http.StatusMethodNotAllowed},
		{http.MethodPost, "/analyze", "", http.StatusNotFound},
		{http.MethodGet, "/jobs", "", http.StatusNotFound},
		{http.MethodGet, "/metrics", "", http.StatusNotFound},
		{http.MethodGet, "/rules", "", http.StatusNotFound},
		{http.MethodGet, "/healthz", "", http.StatusNotFound},
	}
	for _, c := range cases {
		req, err := http.NewRequest(c.method, srv.URL+c.path, strings.NewReader(""))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != c.status {
			t.Errorf("%s %s: status %d, want %d", c.method, c.path, resp.StatusCode, c.status)
			continue
		}
		if got := resp.Header.Get("Allow"); got != c.allow {
			t.Errorf("%s %s: Allow = %q, want %q", c.method, c.path, got, c.allow)
		}
		var doc errorResponse
		if err := json.Unmarshal(raw, &doc); err != nil || doc.Error == "" {
			t.Errorf("%s %s: body is not the error envelope: %s", c.method, c.path, raw)
		}
	}
}

// TestV1SegmentationOnly runs a stages=segmentation request: no GA, fast,
// and the response carries silhouettes but no scoring fields.
func TestV1SegmentationOnly(t *testing.T) {
	v, err := synth.Generate(synth.DefaultJumpParams())
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(fastServer(t).Handler())
	defer srv.Close()

	body, ctype := clipUploadStaged(t, v, "segmentation", true)
	resp, err := http.Post(srv.URL+"/v1/analyze", ctype, body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var doc AnalysisResponse
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Stages) != 1 || doc.Stages[0] != "segmentation" {
		t.Errorf("stages = %v", doc.Stages)
	}
	if len(doc.Silhouettes) != len(v.Frames) {
		t.Fatalf("silhouettes = %d, want %d", len(doc.Silhouettes), len(v.Frames))
	}
	sil := doc.Silhouettes[0]
	if sil.W != v.Frames[0].W || sil.H != v.Frames[0].H || sil.Area == 0 {
		t.Errorf("silhouette doc: %+v", sil)
	}
	packed, err := base64.StdEncoding.DecodeString(sil.Mask)
	if err != nil {
		t.Fatalf("mask_b64: %v", err)
	}
	if len(packed) != (sil.W*sil.H+7)/8 {
		t.Errorf("mask bytes = %d, want %d", len(packed), (sil.W*sil.H+7)/8)
	}
	ones := 0
	for _, b := range packed {
		for ; b != 0; b &= b - 1 {
			ones++
		}
	}
	if ones != sil.Area {
		t.Errorf("mask popcount %d != area %d", ones, sil.Area)
	}
	if doc.Score != "" || doc.Rules != nil || doc.Phases != nil {
		t.Errorf("scoring fields leaked into a segmentation-only response: %s", raw)
	}
}

// TestV1RejectsBadStages: a stage selection that does not parse, or does
// not start at segmentation, answers 400 on both analysis routes, whether
// the frames come as a multipart upload or by hash in a JSON body — with
// the same message either way.
func TestV1RejectsBadStages(t *testing.T) {
	v, err := synth.Generate(synth.DefaultJumpParams())
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(fastServer(t).Handler())
	defer srv.Close()
	const midPipeline = "stage selection over HTTP must start at segmentation; mid-pipeline entry is a library feature"
	for _, tc := range []struct{ stages, msg string }{
		{"warp", ""},
		{"pose..segmentation", ""},
		{"pose..scoring", midPipeline},
		{"tracking..scoring", midPipeline},
	} {
		for _, route := range []string{"/v1/analyze", "/v1/jobs"} {
			body, ctype := clipUploadStaged(t, v, tc.stages, false)
			resp, err := http.Post(srv.URL+route, ctype, body)
			if err != nil {
				t.Fatal(err)
			}
			multipart, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%s multipart stages=%q: status %d, want 400 (%s)", route, tc.stages, resp.StatusCode, multipart)
			}
			// Stages are checked before the hash is resolved, so any
			// frames_ref shows the rule.
			jresp, byHash := postJSON(t, srv.URL+route, map[string]any{
				"frames_ref": strings.Repeat("ab", 32),
				"stages":     tc.stages,
			})
			if jresp.StatusCode != http.StatusBadRequest || !bytes.Equal(byHash, multipart) {
				t.Errorf("%s JSON stages=%q: %d %s, want 400 %s", route, tc.stages, jresp.StatusCode, byHash, multipart)
			}
			var env errorEnvelope
			if tc.msg != "" && (json.Unmarshal(byHash, &env) != nil || env.Error != tc.msg) {
				t.Errorf("%s stages=%q: error %q, want %q", route, tc.stages, env.Error, tc.msg)
			}
		}
	}
}

// clipUploadStaged builds the canonical clip upload with stage selection
// and silhouette shaping fields.
func clipUploadStaged(t *testing.T, v *synth.Video, stages string, silhouettes bool) (*bytes.Buffer, string) {
	t.Helper()
	fields := map[string]string{"stages": stages}
	if silhouettes {
		fields["silhouettes"] = "1"
	}
	return buildClipUpload(t, v, fields)
}

// buildClipUpload builds the canonical multipart clip upload plus extra
// form fields (empty values are skipped).
func buildClipUpload(t *testing.T, v *synth.Video, fields map[string]string) (*bytes.Buffer, string) {
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
	keys := make([]string, 0, len(fields))
	for k := range fields {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if fields[k] == "" {
			continue
		}
		if err := mw.WriteField(k, fields[k]); err != nil {
			t.Fatal(err)
		}
	}
	mw.Close()
	return &body, mw.FormDataContentType()
}

// TestCacheHitSyncAnalyze resubmits an identical clip to /v1/analyze and
// expects the cached response: byte-identical body, hit/miss counters, and
// no second pipeline run (clips_analyzed stays at 1).
func TestCacheHitSyncAnalyze(t *testing.T) {
	v, err := synth.Generate(synth.DefaultJumpParams())
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(fastServer(t).Handler())
	defer srv.Close()

	post := func() []byte {
		body, ctype := buildClipUpload(t, v, map[string]string{"stages": "segmentation", "silhouettes": "1"})
		resp, err := http.Post(srv.URL+"/v1/analyze", ctype, body)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, raw)
		}
		return raw
	}
	first := post()
	second := post()
	if !bytes.Equal(first, second) {
		t.Error("cached response differs from the original")
	}
	m := getMetrics(t, srv.URL)
	if m.Cache.Hits != 1 || m.Cache.Misses != 1 {
		t.Errorf("cache counters: %+v", m.Cache)
	}
	if m.ClipsAnalyzed != 1 {
		t.Errorf("clips_analyzed = %d, want 1 (second request served from cache)", m.ClipsAnalyzed)
	}
}

// TestCacheHitJobsNoEnqueue is the acceptance test of the cache path: a
// byte-identical clip resubmitted to POST /v1/jobs is answered 200 with
// the stored AnalysisResponse — no job is enqueued — and the synchronous,
// asynchronous and cached responses are byte-identical.
func TestCacheHitJobsNoEnqueue(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline over HTTP")
	}
	v, err := synth.Generate(synth.DefaultJumpParams())
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(fastServer(t).Handler())
	defer srv.Close()

	// Async reference run (cache miss → job).
	body, ctype := buildClipUpload(t, v, map[string]string{"poses": "1"})
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
		t.Fatalf("first submit status %d", jresp.StatusCode)
	}
	if !strings.HasPrefix(sub.StatusURL, "/v1/jobs/") {
		t.Errorf("v1 submit must return v1 poll URLs, got %q", sub.StatusURL)
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

	before := getMetrics(t, srv.URL)
	if before.Jobs.Submitted != 1 {
		t.Fatalf("expected exactly one submitted job, got %+v", before.Jobs)
	}

	// Byte-identical resubmission: answered from the cache, not enqueued.
	body, ctype = buildClipUpload(t, v, map[string]string{"poses": "1"})
	cresp, err := http.Post(srv.URL+"/v1/jobs", ctype, body)
	if err != nil {
		t.Fatal(err)
	}
	cachedRaw, _ := io.ReadAll(cresp.Body)
	cresp.Body.Close()
	if cresp.StatusCode != http.StatusOK {
		t.Fatalf("cache hit must answer 200, got %d: %s", cresp.StatusCode, cachedRaw)
	}
	if !bytes.Equal(cachedRaw, asyncRaw) {
		t.Errorf("cached response differs from the async result:\n%s\nvs\n%s", cachedRaw, asyncRaw)
	}
	var cachedDoc, asyncDoc AnalysisResponse
	if err := json.Unmarshal(cachedRaw, &cachedDoc); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(asyncRaw, &asyncDoc); err != nil {
		t.Fatal(err)
	}
	if len(cachedDoc.Poses) != len(v.Frames) || cachedDoc.Score != asyncDoc.Score {
		t.Errorf("cached document incomplete: %+v", cachedDoc)
	}

	// The synchronous route is answered from the same entry, byte-identical.
	body, ctype = buildClipUpload(t, v, map[string]string{"poses": "1"})
	sresp, err := http.Post(srv.URL+"/v1/analyze", ctype, body)
	if err != nil {
		t.Fatal(err)
	}
	syncRaw, _ := io.ReadAll(sresp.Body)
	sresp.Body.Close()
	if sresp.StatusCode != http.StatusOK {
		t.Fatalf("sync status %d", sresp.StatusCode)
	}
	if !bytes.Equal(syncRaw, asyncRaw) {
		t.Error("sync response differs from the async/cached result")
	}

	after := getMetrics(t, srv.URL)
	if after.Jobs.Submitted != 1 {
		t.Errorf("resubmission enqueued a job: %+v", after.Jobs)
	}
	if after.Cache.Hits != 2 || after.Cache.Misses != 1 {
		t.Errorf("cache counters: %+v", after.Cache)
	}
	if after.ClipsAnalyzed != 1 {
		t.Errorf("clips_analyzed = %d, want 1", after.ClipsAnalyzed)
	}
}

// TestRequestKeyFingerprints pins the cache-key identity rules: identical
// requests collide; any change to the clip, the manual pose, the analyzer
// config, the stage selection or the response shape separates them.
func TestRequestKeyFingerprints(t *testing.T) {
	v, err := synth.Generate(synth.DefaultJumpParams())
	if err != nil {
		t.Fatal(err)
	}
	manual := v.ManualAnnotation(synth.DefaultAnnotationError(), 1)
	base := core.Request{Frames: v.Frames, ManualFirst: manual}
	cfgFP := jobs.ConfigFingerprint(core.DefaultConfig())

	if jobs.RequestKey(cfgFP, base) != jobs.RequestKey(cfgFP, base) {
		t.Fatal("identical requests must share a key")
	}

	// Config fingerprint invalidation.
	cfg2 := core.DefaultConfig()
	cfg2.Pose.Population += 1
	if jobs.RequestKey(jobs.ConfigFingerprint(cfg2), base) == jobs.RequestKey(cfgFP, base) {
		t.Error("a config change must invalidate the key")
	}
	cfg3 := core.DefaultConfig()
	cfg3.Segmentation.SubtractThreshold += 1
	if jobs.RequestKey(jobs.ConfigFingerprint(cfg3), base) == jobs.RequestKey(cfgFP, base) {
		t.Error("a segmentation config change must invalidate the key")
	}

	// One pixel.
	v2, err := synth.Generate(synth.DefaultJumpParams())
	if err != nil {
		t.Fatal(err)
	}
	v2.Frames[3].Pix[7].G ^= 1
	if jobs.RequestKey(cfgFP, core.Request{Frames: v2.Frames, ManualFirst: manual}) == jobs.RequestKey(cfgFP, base) {
		t.Error("a pixel change must invalidate the key")
	}

	// Manual pose.
	manual2 := manual
	manual2.Rho[2] += 0.25
	if jobs.RequestKey(cfgFP, core.Request{Frames: v.Frames, ManualFirst: manual2}) == jobs.RequestKey(cfgFP, base) {
		t.Error("a manual-pose change must invalidate the key")
	}

	// Stage selection and response shaping.
	staged := base
	staged.Stages = core.OnlyStage(core.StageSegmentation)
	if jobs.RequestKey(cfgFP, staged) == jobs.RequestKey(cfgFP, base) {
		t.Error("a stage-selection change must invalidate the key")
	}
	shaped := base
	shaped.IncludePoses = true
	if jobs.RequestKey(cfgFP, shaped) == jobs.RequestKey(cfgFP, base) {
		t.Error("a response-shaping change must invalidate the key")
	}

	// An explicit full range is the same identity as the default.
	full := base
	full.Stages = core.AllStages()
	if jobs.RequestKey(cfgFP, full) != jobs.RequestKey(cfgFP, base) {
		t.Error("explicit full range must share the default's key")
	}
}

// TestCacheTTLExpiryServerLevel wires a tiny artifact TTL into the server
// and checks that an expired result falls back to a miss.
func TestCacheTTLExpiryServerLevel(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Pose.Population = 40
	cfg.Pose.Generations = 40
	cfg.Pose.Patience = 10
	cfg.Pose.RefineRounds = 1
	opts := DefaultOptions()
	opts.ArtifactTTL = 50 * time.Millisecond
	s, err := NewWithOptions(cfg, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Close(ctx)
	})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	v, err := synth.Generate(synth.DefaultJumpParams())
	if err != nil {
		t.Fatal(err)
	}
	post := func() {
		body, ctype := buildClipUpload(t, v, map[string]string{"stages": "segmentation"})
		resp, err := http.Post(srv.URL+"/v1/analyze", ctype, body)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
	}
	post()
	time.Sleep(120 * time.Millisecond) // past the TTL
	post()
	m := getMetrics(t, srv.URL)
	if m.Cache.Hits != 0 || m.Cache.Misses != 2 {
		t.Errorf("expired entry should miss: %+v", m.Cache)
	}
	if m.ClipsAnalyzed != 2 {
		t.Errorf("clips_analyzed = %d, want 2", m.ClipsAnalyzed)
	}
}
