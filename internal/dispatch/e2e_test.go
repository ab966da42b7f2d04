package dispatch_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"github.com/sljmotion/sljmotion/internal/core"
	"github.com/sljmotion/sljmotion/internal/dispatch"
	"github.com/sljmotion/sljmotion/internal/e2etest"
	"github.com/sljmotion/sljmotion/internal/jobs"
	"github.com/sljmotion/sljmotion/internal/server"
	"github.com/sljmotion/sljmotion/internal/synth"
)

// testConfig is the shared analyzer configuration: every node and the
// reference server must agree so cache keys line up fleet-wide.
func testConfig() core.Config { return e2etest.Config() }

// newNode starts one worker node (payload intake enabled) on httptest.
func newNode(t *testing.T) (*httptest.Server, *server.Server) {
	t.Helper()
	opts := server.DefaultOptions()
	opts.Worker = true
	s, err := server.NewWithOptions(testConfig(), nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Close(ctx)
	})
	return hs, s
}

// newFrontend starts the fan-out front end over the given worker URLs. A
// dispatching front end stores no results of async jobs (its workers do),
// so resubmissions exercise the dispatcher and the worker-side stores.
func newFrontend(t *testing.T, nodes []string) *httptest.Server {
	t.Helper()
	d, err := dispatch.New(dispatch.Config{
		Nodes:          nodes,
		HealthInterval: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := server.NewWithOptions(testConfig(), nil, server.Options{Dispatcher: d})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Close(ctx)
	})
	return hs
}

// clipUpload builds the canonical segmentation-only multipart upload (fast:
// no GA) for the given synthetic clip.
func clipUpload(t *testing.T, v *synth.Video) (*bytes.Buffer, string) {
	return e2etest.ClipUpload(t, v, "segmentation", true)
}

// submitAndFetch posts the clip to base's async route and polls it to the
// final result bytes. A 200 on submit (cache-answered) returns immediately.
func submitAndFetch(t *testing.T, base string, v *synth.Video) []byte {
	return e2etest.SubmitAndFetch(t, base, v)
}

// metricsOf fetches a server's /v1/metrics document.
func metricsOf(t *testing.T, base string) (clips int, jm jobs.Metrics) {
	return e2etest.MetricsOf(t, base)
}

// TestTwoWorkerEndToEnd is the acceptance test of the remote dispatcher: a
// clip submitted through the two-node fan-out front end returns a result
// byte-identical to the in-process Manager path, and a resubmission of the
// same clip hash-routes to the same node and is answered from that node's
// result cache without re-running the pipeline.
func TestTwoWorkerEndToEnd(t *testing.T) {
	v, err := synth.Generate(synth.DefaultJumpParams())
	if err != nil {
		t.Fatal(err)
	}

	// In-process reference: the same server stack backed by the Manager.
	ref, err := server.NewWithOptions(testConfig(), nil, server.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	refSrv := httptest.NewServer(ref.Handler())
	defer func() {
		refSrv.Close()
		_ = ref.Close(context.Background())
	}()
	want := submitAndFetch(t, refSrv.URL, v)

	// Two worker nodes + the fan-out front end.
	n1, _ := newNode(t)
	n2, _ := newNode(t)
	front := newFrontend(t, []string{n1.URL, n2.URL})

	got := submitAndFetch(t, front.URL, v)
	if !bytes.Equal(e2etest.StripVolatile(t, got), e2etest.StripVolatile(t, want)) {
		t.Fatalf("remote result differs from the in-process Manager path:\n%s\nvs\n%s", got, want)
	}

	// Exactly one node ran the pipeline.
	c1, _ := metricsOf(t, n1.URL)
	c2, _ := metricsOf(t, n2.URL)
	if c1+c2 != 1 {
		t.Fatalf("clips analyzed across nodes = %d+%d, want 1", c1, c2)
	}

	// Resubmission: same key → same node → answered from its cache.
	again := submitAndFetch(t, front.URL, v)
	if !bytes.Equal(e2etest.StripVolatile(t, again), e2etest.StripVolatile(t, want)) {
		t.Fatalf("cached remote result differs:\n%s\nvs\n%s", again, want)
	}
	c1b, _ := metricsOf(t, n1.URL)
	c2b, _ := metricsOf(t, n2.URL)
	if c1b+c2b != 1 {
		t.Errorf("resubmission re-ran the pipeline: clips = %d+%d, want 1", c1b, c2b)
	}

	// The front end's merged metrics show the hit on exactly the node that
	// ran the job the first time.
	_, fm := metricsOf(t, front.URL)
	if len(fm.Nodes) != 2 {
		t.Fatalf("front metrics carry %d nodes, want 2", len(fm.Nodes))
	}
	var hits, submitted uint64
	for _, n := range fm.Nodes {
		hits += n.CacheHits
		submitted += n.Submitted
		if n.CacheHits > 0 && n.Submitted < 2 {
			t.Errorf("cache hit reported on a node that never saw the clip: %+v", n)
		}
	}
	if hits != 1 {
		t.Errorf("fleet cache hits = %d, want 1", hits)
	}
	if submitted != 2 || fm.Completed != 2 {
		t.Errorf("fleet counters: submitted=%d completed=%d, want 2/2", submitted, fm.Completed)
	}
}

// TestNodeKillFailover kills the node that owns a clip mid-test and
// expects the resubmitted clip to re-hash onto the surviving node and
// complete, while the front end keeps serving.
func TestNodeKillFailover(t *testing.T) {
	v, err := synth.Generate(synth.DefaultJumpParams())
	if err != nil {
		t.Fatal(err)
	}
	n1, _ := newNode(t)
	n2, _ := newNode(t)
	front := newFrontend(t, []string{n1.URL, n2.URL})

	first := submitAndFetch(t, front.URL, v)

	// Find and kill the node that ran (and cached) the clip.
	c1, _ := metricsOf(t, n1.URL)
	owner, survivorURL := n1, n2.URL
	if c1 == 0 {
		owner, survivorURL = n2, n1.URL
	}
	owner.Close()

	// The same clip now fails over to the survivor and re-runs there —
	// byte-identical output, served end to end through the front end.
	second := submitAndFetch(t, front.URL, v)
	if !bytes.Equal(e2etest.StripVolatile(t, second), e2etest.StripVolatile(t, first)) {
		t.Fatalf("failover result differs:\n%s\nvs\n%s", second, first)
	}
	cs, _ := metricsOf(t, survivorURL)
	if cs != 1 {
		t.Errorf("survivor analysed %d clips, want 1", cs)
	}

	// The front end's metrics mark the dead node unhealthy.
	_, fm := metricsOf(t, front.URL)
	healthy := 0
	for _, n := range fm.Nodes {
		if n.Healthy {
			healthy++
		}
	}
	if healthy != 1 {
		t.Errorf("healthy nodes = %d, want 1", healthy)
	}

	// Distinct clips keep flowing through the surviving node.
	params := synth.DefaultJumpParams()
	params.Seed = 7
	v2, err := synth.Generate(params)
	if err != nil {
		t.Fatal(err)
	}
	if out := submitAndFetch(t, front.URL, v2); len(out) == 0 {
		t.Error("post-failover submission returned nothing")
	}
}

// TestFrontendBackpressurePropagates: saturated workers surface as 503 +
// Retry-After at the front end.
func TestFrontendBackpressurePropagates(t *testing.T) {
	// A fake "worker" that always answers 503 with a distinctive hint.
	busy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/healthz" {
			fmt.Fprintln(w, `{"status":"ok"}`)
			return
		}
		w.Header().Set("Retry-After", "9")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, `{"error":"jobs: queue full, retry later"}`)
	}))
	defer busy.Close()
	front := newFrontend(t, []string{busy.URL})

	v, err := synth.Generate(synth.DefaultJumpParams())
	if err != nil {
		t.Fatal(err)
	}
	body, ctype := clipUpload(t, v)
	resp, err := http.Post(front.URL+"/v1/jobs", ctype, body)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", resp.StatusCode, raw)
	}
	if got := resp.Header.Get("Retry-After"); got != "9" {
		t.Errorf("Retry-After = %q, want the worker's 9", got)
	}
	var env struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(raw, &env); err != nil || env.Error == "" {
		t.Errorf("503 body is not the error envelope: %s", raw)
	}
	if _, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil {
		t.Errorf("Retry-After not numeric")
	}
}
