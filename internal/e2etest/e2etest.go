// Package e2etest is the shared end-to-end identity harness: helpers that
// drive a server stack over HTTP exactly like a client would — multipart
// clip uploads, the async submit/poll lifecycle, the metrics document —
// so different subsystems (the remote dispatcher's fan-out, the journal's
// crash recovery) can assert the same property: the bytes coming back are
// identical to the reference path, whatever ran in between.
package e2etest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"mime/multipart"
	"net/http"
	"testing"
	"time"

	"github.com/sljmotion/sljmotion/internal/clipio"
	"github.com/sljmotion/sljmotion/internal/core"
	"github.com/sljmotion/sljmotion/internal/imaging"
	"github.com/sljmotion/sljmotion/internal/jobs"
	"github.com/sljmotion/sljmotion/internal/synth"
)

// Config is the shared analyzer configuration of the harness: a trimmed GA
// budget so full-pipeline runs take seconds, not minutes. Every node in a
// test fleet must use it so cache keys line up fleet-wide.
func Config() core.Config {
	cfg := core.DefaultConfig()
	cfg.Pose.Population = 40
	cfg.Pose.Generations = 40
	cfg.Pose.Patience = 10
	cfg.Pose.RefineRounds = 1
	return cfg
}

// ClipUpload builds a multipart clip upload for the synthetic video:
// frames ordered by name plus the truth file with the manual first-frame
// pose. stages selects a pipeline prefix ("" = full pipeline);
// silhouettes adds the mask field to the response.
func ClipUpload(t *testing.T, v *synth.Video, stages string, silhouettes bool) (*bytes.Buffer, string) {
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
	fields := [][2]string{}
	if stages != "" {
		fields = append(fields, [2]string{"stages", stages})
	}
	if silhouettes {
		fields = append(fields, [2]string{"silhouettes", "1"})
	}
	for _, field := range fields {
		if err := mw.WriteField(field[0], field[1]); err != nil {
			t.Fatal(err)
		}
	}
	mw.Close()
	return &body, mw.FormDataContentType()
}

// SubmitDoc is the submit acknowledgement of POST /v1/jobs.
type SubmitDoc struct {
	ID        string `json:"id"`
	State     string `json:"state"`
	ResultURL string `json:"result_url"`
}

// Submit posts the clip to base's async route and returns the raw reply.
// A 200 (cache-answered) reply carries the result in Raw and no ID.
func Submit(t *testing.T, base string, v *synth.Video, stages string, silhouettes bool) (doc SubmitDoc, raw []byte, code int) {
	t.Helper()
	body, ctype := ClipUpload(t, v, stages, silhouettes)
	resp, err := http.Post(base+"/v1/jobs", ctype, body)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode == http.StatusAccepted {
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatalf("malformed submit document: %s", raw)
		}
	}
	return doc, raw, resp.StatusCode
}

// PollResult polls a result URL until 200, returning the response bytes.
func PollResult(t *testing.T, base, resultURL string, timeout time.Duration) []byte {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + resultURL)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK:
			return raw
		case http.StatusAccepted:
			time.Sleep(5 * time.Millisecond)
		default:
			t.Fatalf("result status %d: %s", resp.StatusCode, raw)
		}
	}
	t.Fatalf("job at %s never finished", resultURL)
	return nil
}

// SubmitAndFetch submits the canonical segmentation-only upload (fast: no
// GA) and polls it to the final result bytes. A 200 on submit
// (cache-answered) returns immediately.
func SubmitAndFetch(t *testing.T, base string, v *synth.Video) []byte {
	t.Helper()
	doc, raw, code := Submit(t, base, v, "segmentation", true)
	if code == http.StatusOK {
		return raw
	}
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", code, raw)
	}
	return PollResult(t, base, doc.ResultURL, 30*time.Second)
}

// StripVolatile removes the timing fields from a JSON response document so
// two runs of the same clip can be byte-compared. Everything the pipeline
// computes is deterministic; stage_ms is wall-clock and differs run to run.
// The re-marshalling matches the server's writeJSON (two-space indent), so
// two stripped documents from identical analyses are byte-identical.
func StripVolatile(t *testing.T, raw []byte) []byte {
	t.Helper()
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("strip volatile: malformed document: %v\n%s", err, raw)
	}
	delete(doc, "stage_ms")
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// MetricsOf fetches a server's /v1/metrics document.
func MetricsOf(t *testing.T, base string) (clips int, jm jobs.Metrics) {
	t.Helper()
	resp, err := http.Get(base + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		ClipsAnalyzed int          `json:"clips_analyzed"`
		Jobs          jobs.Metrics `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	return doc.ClipsAnalyzed, doc.Jobs
}
