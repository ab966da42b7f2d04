package dispatch_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"github.com/sljmotion/sljmotion/internal/artifacts"
	"github.com/sljmotion/sljmotion/internal/dispatch"
	"github.com/sljmotion/sljmotion/internal/e2etest"
	"github.com/sljmotion/sljmotion/internal/imaging"
	"github.com/sljmotion/sljmotion/internal/server"
	"github.com/sljmotion/sljmotion/internal/stickmodel"
	"github.com/sljmotion/sljmotion/internal/synth"
)

// newArtifactFrontend starts a fan-out front end whose dispatcher stamps
// its own public URL as the artifact origin, so worker nodes can pull
// referenced blobs back from it. The URL is only known once the httptest
// listener exists, so the handler is bound through an indirection.
func newArtifactFrontend(t *testing.T, nodes []string) *httptest.Server {
	t.Helper()
	var handler http.Handler
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		handler.ServeHTTP(w, r)
	}))
	d, err := dispatch.New(dispatch.Config{
		Nodes:          nodes,
		HealthInterval: 50 * time.Millisecond,
		ArtifactOrigin: hs.URL,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := server.NewWithOptions(testConfig(), nil, server.Options{Dispatcher: d})
	if err != nil {
		t.Fatal(err)
	}
	handler = s.Handler()
	t.Cleanup(func() {
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Close(ctx)
	})
	return hs
}

// ingestClip streams the clip into an ingest session on base and seals it,
// returning the seal document.
func ingestClip(t *testing.T, base string, frames []*imaging.Image) artifacts.SealDoc {
	t.Helper()
	resp, err := http.Post(base+"/v1/clips", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("open clip: %d %s", resp.StatusCode, raw)
	}
	var open struct {
		ClipID string `json:"clip_id"`
	}
	if err := json.Unmarshal(raw, &open); err != nil || open.ClipID == "" {
		t.Fatalf("open clip: malformed document: %s", raw)
	}

	chunkSize := (len(frames) + 2) / 3
	for i, chunk := 0, 0; i < len(frames); chunk++ {
		end := i + chunkSize
		if end > len(frames) {
			end = len(frames)
		}
		var body bytes.Buffer
		mw := multipart.NewWriter(&body)
		if err := mw.WriteField("chunk", strconv.Itoa(chunk)); err != nil {
			t.Fatal(err)
		}
		for k, f := range frames[i:end] {
			fw, err := mw.CreateFormFile("frames", fmt.Sprintf("frame_%04d.ppm", k))
			if err != nil {
				t.Fatal(err)
			}
			if err := imaging.EncodePPM(fw, f); err != nil {
				t.Fatal(err)
			}
		}
		mw.Close()
		req, err := http.NewRequest(http.MethodPut, base+"/v1/clips/"+open.ClipID+"/frames", &body)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", mw.FormDataContentType())
		cr, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		craw, _ := io.ReadAll(cr.Body)
		cr.Body.Close()
		if cr.StatusCode != http.StatusOK {
			t.Fatalf("chunk %d: %d %s", chunk, cr.StatusCode, craw)
		}
		i = end
	}

	sr, err := http.Post(base+"/v1/clips/"+open.ClipID+"/seal", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	sraw, _ := io.ReadAll(sr.Body)
	sr.Body.Close()
	if sr.StatusCode != http.StatusOK {
		t.Fatalf("seal: %d %s", sr.StatusCode, sraw)
	}
	var seal artifacts.SealDoc
	if err := json.Unmarshal(sraw, &seal); err != nil {
		t.Fatal(err)
	}
	return seal
}

// submitByHash submits a by-reference job and polls it to the result bytes.
func submitByHash(t *testing.T, base, framesHash string, manual stickmodel.Pose) []byte {
	t.Helper()
	doc := map[string]any{
		"frames_ref":   framesHash,
		"manual_first": map[string]any{"x": manual.X, "y": manual.Y, "rho": manual.Rho[:]},
		"stages":       "segmentation",
		"silhouettes":  true,
	}
	body, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		return raw // answered from a cache
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("by-hash submit: %d %s", resp.StatusCode, raw)
	}
	var sub e2etest.SubmitDoc
	if err := json.Unmarshal(raw, &sub); err != nil {
		t.Fatalf("malformed submit document: %s", raw)
	}
	return e2etest.PollResult(t, base, sub.ResultURL, 30*time.Second)
}

// artifactMetricsOf fetches a node's artifact-store metrics.
func artifactMetricsOf(t *testing.T, base string) artifacts.Metrics {
	t.Helper()
	resp, err := http.Get(base + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		Artifacts artifacts.Metrics `json:"artifacts"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	return doc.Artifacts
}

// quantManual rounds a pose to what a %.2f truth-file round trip yields, so
// the by-hash JSON request carries the exact manual pose the inline
// multipart reference upload does.
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

// TestByHashDispatchWorkerPull is the two-node acceptance test of the
// artifact flow: a clip ingested on the front end and submitted by content
// hash dispatches as a thin payload; the worker that receives it pulls the
// frames artifact back from the front end exactly once, caches it, and
// produces a result byte-identical to the inline upload path. A
// resubmission is answered from the worker's result cache without a second
// pull.
func TestByHashDispatchWorkerPull(t *testing.T) {
	v, err := synth.Generate(synth.DefaultJumpParams())
	if err != nil {
		t.Fatal(err)
	}
	manual := quantManual(t, v.ManualAnnotation(synth.DefaultAnnotationError(), 1))

	// In-process inline reference.
	ref, err := server.NewWithOptions(testConfig(), nil, server.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	refSrv := httptest.NewServer(ref.Handler())
	defer func() {
		refSrv.Close()
		_ = ref.Close(context.Background())
	}()
	want := e2etest.SubmitAndFetch(t, refSrv.URL, v)

	n1, _ := newNode(t)
	n2, _ := newNode(t)
	front := newArtifactFrontend(t, []string{n1.URL, n2.URL})

	seal := ingestClip(t, front.URL, v.Frames)
	got := submitByHash(t, front.URL, seal.FramesHash, manual)
	if !bytes.Equal(e2etest.StripVolatile(t, got), e2etest.StripVolatile(t, want)) {
		t.Fatalf("by-hash dispatched result differs from the inline path:\n%s\nvs\n%s", got, want)
	}

	// Exactly one node ran the clip, and that node pulled the frames
	// artifact from the front end exactly once.
	c1, _ := metricsOf(t, n1.URL)
	c2, _ := metricsOf(t, n2.URL)
	if c1+c2 != 1 {
		t.Fatalf("clips analyzed across nodes = %d+%d, want 1", c1, c2)
	}
	ownerURL := n1.URL
	if c2 == 1 {
		ownerURL = n2.URL
	}
	am := artifactMetricsOf(t, ownerURL)
	if am.Pulls != 1 || am.PullFailures != 0 {
		t.Fatalf("owner artifact metrics = %+v, want exactly one successful pull", am)
	}
	if am.Blobs < 1 {
		t.Fatalf("owner artifact metrics = %+v, want the pulled blob cached locally", am)
	}

	// Resubmit: the worker answers from its result cache; its local artifact
	// copy means no second pull either way.
	again := submitByHash(t, front.URL, seal.FramesHash, manual)
	if !bytes.Equal(e2etest.StripVolatile(t, again), e2etest.StripVolatile(t, want)) {
		t.Fatalf("resubmitted by-hash result differs:\n%s\nvs\n%s", again, want)
	}
	c1b, _ := metricsOf(t, n1.URL)
	c2b, _ := metricsOf(t, n2.URL)
	if c1b+c2b != 1 {
		t.Errorf("resubmission re-ran the pipeline: clips = %d+%d, want 1", c1b, c2b)
	}
	if am := artifactMetricsOf(t, ownerURL); am.Pulls != 1 {
		t.Errorf("owner pulled %d times after resubmission, want still 1", am.Pulls)
	}
}

// TestByHashServedInlineResult: a clip submitted inline and the same clip
// submitted by hash share one request key, so they land on one node and
// the by-hash request is answered with the document the inline run stored
// — byte for byte, timings included — without re-running the clip or
// pulling its frames.
func TestByHashServedInlineResult(t *testing.T) {
	v, err := synth.Generate(synth.DefaultJumpParams())
	if err != nil {
		t.Fatal(err)
	}
	manual := quantManual(t, v.ManualAnnotation(synth.DefaultAnnotationError(), 1))
	n1, _ := newNode(t)
	n2, _ := newNode(t)
	front := newArtifactFrontend(t, []string{n1.URL, n2.URL})

	inline := e2etest.SubmitAndFetch(t, front.URL, v)
	seal := ingestClip(t, front.URL, v.Frames)
	byHash := submitByHash(t, front.URL, seal.FramesHash, manual)
	if !bytes.Equal(byHash, inline) {
		t.Fatalf("by-hash request was not served the inline result:\n%s\nvs\n%s", byHash, inline)
	}
	c1, _ := metricsOf(t, n1.URL)
	c2, _ := metricsOf(t, n2.URL)
	if c1+c2 != 1 {
		t.Errorf("clips analyzed across nodes = %d+%d, want 1", c1, c2)
	}
	for _, n := range []string{n1.URL, n2.URL} {
		if am := artifactMetricsOf(t, n); am.Pulls != 0 {
			t.Errorf("node %s pulled %d artifacts, want 0", n, am.Pulls)
		}
	}
}

// TestFailoverServesByHashMissFromOrigin: replication pushes results only,
// so a ring successor without a job's replica holds no frames for it
// either. When the primary dies, the by-hash resubmission fails over to
// the successor, which pulls the frames from the origin front end and
// recomputes a document byte-identical to the first.
func TestFailoverServesByHashMissFromOrigin(t *testing.T) {
	v, err := synth.Generate(synth.DefaultJumpParams())
	if err != nil {
		t.Fatal(err)
	}
	manual := quantManual(t, v.ManualAnnotation(synth.DefaultAnnotationError(), 1))
	n1, _ := newNode(t)
	n2, _ := newNode(t)
	front := newArtifactFrontend(t, []string{n1.URL, n2.URL})

	seal := ingestClip(t, front.URL, v.Frames)
	first := submitByHash(t, front.URL, seal.FramesHash, manual)
	runner, survivor := n1, n2
	if c, _ := metricsOf(t, n2.URL); c == 1 {
		runner, survivor = n2, n1
	}
	if am := artifactMetricsOf(t, survivor.URL); am.Blobs != 0 {
		t.Fatalf("the successor holds %d blobs before failover, want none", am.Blobs)
	}
	runner.Close()

	again := submitByHash(t, front.URL, seal.FramesHash, manual)
	if !bytes.Equal(e2etest.StripVolatile(t, again), e2etest.StripVolatile(t, first)) {
		t.Fatalf("failover result differs from the first:\n%s\nvs\n%s", again, first)
	}
	if c, _ := metricsOf(t, survivor.URL); c != 1 {
		t.Errorf("successor analyzed %d clips, want 1", c)
	}
	if am := artifactMetricsOf(t, survivor.URL); am.Pulls != 1 || am.PullFailures != 0 {
		t.Errorf("successor artifact metrics %+v, want one successful pull from the origin", am)
	}
}
