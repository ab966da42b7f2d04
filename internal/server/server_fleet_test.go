// Fleet-elasticity end-to-end tests: runtime join/drain over HTTP against a
// live dispatcher, the worker-only result/v1 intake, and the chaos scenario
// the design promises — kill a replicated worker and the job's result survives
// on its ring successor, byte-identical, with zero recomputation
// (DESIGN.md §16).
package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/sljmotion/sljmotion/internal/artifacts"
	"github.com/sljmotion/sljmotion/internal/cache"
	"github.com/sljmotion/sljmotion/internal/core"
	"github.com/sljmotion/sljmotion/internal/dispatch"
	"github.com/sljmotion/sljmotion/internal/e2etest"
	"github.com/sljmotion/sljmotion/internal/jobs"
	"github.com/sljmotion/sljmotion/internal/synth"
)

// fleetWorker starts one worker node with the successor-replication sink
// wired, returning both the in-process server
// (for white-box assertions) and its HTTP face.
func fleetWorker(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	opts := DefaultOptions()
	opts.Worker = true
	repl := dispatch.NewReplicator(nil)
	t.Cleanup(repl.Close)
	opts.Replicator = repl
	s := fastServerWithOptions(t, opts)
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	return s, hs
}

// fleetFront starts a dispatching front end over the given worker URLs. It
// stores no results of async jobs, so every submission actually dispatches.
func fleetFront(t *testing.T, replicate bool, health time.Duration, workers ...string) (*dispatch.Remote, *httptest.Server) {
	t.Helper()
	dcfg := dispatch.DefaultConfig()
	dcfg.Nodes = workers
	dcfg.HealthInterval = health
	dcfg.Replicate = replicate
	d, err := dispatch.New(dcfg)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Dispatcher = d
	s := fastServerWithOptions(t, opts)
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	return d, hs
}

// postJSON is a tiny helper for the fleet mutation routes.
func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	buf := new(bytes.Buffer)
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp, buf.Bytes()
}

// TestFleetRoutesUnsupportedBackend: an in-process queue has no runtime
// membership; the fleet surface answers 501, never panics.
func TestFleetRoutesUnsupportedBackend(t *testing.T) {
	srv := httptest.NewServer(fastServer(t).Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/v1/fleet")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Errorf("GET /v1/fleet on the in-process backend: %d, want 501", resp.StatusCode)
	}
	resp, _ = postJSON(t, srv.URL+"/v1/fleet/nodes", map[string]string{"url": "http://x"})
	if resp.StatusCode != http.StatusNotImplemented {
		t.Errorf("POST /v1/fleet/nodes on the in-process backend: %d, want 501", resp.StatusCode)
	}
}

// TestFleetLiveJoinAndDrain drives a topology change over HTTP against a
// running fleet: a second worker joins at runtime, the original drains out
// without any restart, and the next job completes on the joined node.
func TestFleetLiveJoinAndDrain(t *testing.T) {
	w1, w1hs := fleetWorker(t)
	w2, w2hs := fleetWorker(t)
	_, front := fleetFront(t, false, 100*time.Millisecond, w1hs.URL)

	// A dead URL is refused at the probe, membership untouched.
	resp, body := postJSON(t, front.URL+"/v1/fleet/nodes", map[string]string{"url": "http://127.0.0.1:1"})
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("join of an unreachable node: %d %s, want 502", resp.StatusCode, body)
	}

	// Live join of w2.
	resp, body = postJSON(t, front.URL+"/v1/fleet/nodes", map[string]any{"url": w2hs.URL, "weight": 2})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("join: %d %s", resp.StatusCode, body)
	}
	var view struct {
		Epoch uint64 `json:"epoch"`
		Nodes []struct {
			URL      string `json:"url"`
			Weight   int    `json:"weight"`
			Draining bool   `json:"draining,omitempty"`
		} `json:"nodes"`
	}
	if err := json.Unmarshal(body, &view); err != nil || len(view.Nodes) != 2 {
		t.Fatalf("join view: %v %s", err, body)
	}

	// There is no force-remove route: a dead draining node is dropped by
	// the health loop instead.
	if resp, _ := postJSON(t, front.URL+"/v1/fleet/remove", map[string]string{"url": w2hs.URL}); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("POST /v1/fleet/remove: %d, want 404", resp.StatusCode)
	}

	// Drain w1: immediately out of the ring, removed once nothing pends.
	resp, body = postJSON(t, front.URL+"/v1/fleet/drain", map[string]string{"url": w1hs.URL})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("drain: %d %s", resp.StatusCode, body)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		r, err := http.Get(front.URL + "/v1/fleet")
		if err != nil {
			t.Fatal(err)
		}
		body, _ = readAllAndClose(r)
		if err := json.Unmarshal(body, &view); err != nil {
			t.Fatalf("fleet view: %v %s", err, body)
		}
		if len(view.Nodes) == 1 && view.Nodes[0].URL == w2hs.URL {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("drained node never left the membership: %s", body)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// The runtime-joined worker is the only member left: the next job must
	// complete there, and the drained worker must see nothing — without
	// either worker ever restarting.
	v, err := synth.Generate(synth.DefaultJumpParams())
	if err != nil {
		t.Fatal(err)
	}
	e2etest.SubmitAndFetch(t, front.URL, v)
	if got := w2.jobs.Metrics().Submitted; got == 0 {
		t.Error("runtime-joined worker received no jobs")
	}
	if got := w1.jobs.Metrics().Submitted; got != 0 {
		t.Errorf("drained worker still received %d jobs", got)
	}
}

// readAllAndClose drains one response body.
func readAllAndClose(r *http.Response) ([]byte, error) {
	defer r.Body.Close()
	buf := new(bytes.Buffer)
	_, err := buf.ReadFrom(r.Body)
	return buf.Bytes(), err
}

// postBlob POSTs one artifact blob and returns the status.
func postBlob(t *testing.T, base string, blob []byte) int {
	t.Helper()
	resp, err := http.Post(base+"/v1/artifacts", "application/octet-stream", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	readAllAndClose(resp)
	return resp.StatusCode
}

// testResultBlob is a result/v1 blob answering an arbitrary request key.
func testResultBlob(t *testing.T) (cache.Key, []byte, []byte) {
	t.Helper()
	key, ok := cache.ParseKey(strings.Repeat("ab", 32))
	if !ok {
		t.Fatal("test key malformed")
	}
	doc := []byte("{\n  \"advice\": [\n    \"replicated\"\n  ]\n}\n")
	return key, doc, artifacts.EncodeResult(key, doc)
}

// TestReplicaIntakeStoresResultBlob: a result/v1 blob pushed to a worker's
// POST /v1/artifacts becomes the answer for its request key, served as the
// exact pushed bytes.
func TestReplicaIntakeStoresResultBlob(t *testing.T) {
	w, whs := fleetWorker(t)
	key, doc, blob := testResultBlob(t)
	if code := postBlob(t, whs.URL, blob); code != http.StatusCreated {
		t.Fatalf("result push: %d, want 201", code)
	}
	hash, got, ok := w.artifacts.Result(key)
	if !ok || hash != artifacts.HashOf(blob) || !bytes.Equal(artifacts.ResultDoc(got), doc) {
		t.Fatalf("pushed result not served for its key: ok=%v hash=%s", ok, hash)
	}
	m := getMetrics(t, whs.URL)
	if m.Cache.Stored != 1 || m.Cache.Entries != 1 || m.Cache.Hits != 1 {
		t.Errorf("cache counters %+v, want stored=1 entries=1 hits=1", m.Cache)
	}
	// Results arrive only through /v1/artifacts; there is no replica route.
	resp, _ := postJSON(t, whs.URL+"/v1/worker/replica", map[string]any{"key": key.String()})
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("POST /v1/worker/replica: %d, want 404", resp.StatusCode)
	}
}

// TestReplicaIntakeRejectsMalformedResult: a result blob too short to hold
// its key, or whose document is not JSON, answers 400 and stores nothing;
// so does a blob tagged with a retired kind (2 was silhouettes/v1, 3 was
// poses/v1).
func TestReplicaIntakeRejectsMalformedResult(t *testing.T) {
	w, whs := fleetWorker(t)
	key, _, blob := testResultBlob(t)
	retired := func(tag byte) []byte {
		b := bytes.Clone(blob)
		b[4] = tag // after the four-byte magic
		return b
	}
	for name, bad := range map[string][]byte{
		"short key":     blob[:artifacts.ResultDocOffset-1],
		"no document":   blob[:artifacts.ResultDocOffset],
		"invalid JSON":  artifacts.EncodeResult(key, []byte(`{"advice":`)),
		"retired tag 2": retired(2),
		"retired tag 3": retired(3),
	} {
		if code := postBlob(t, whs.URL, bad); code != http.StatusBadRequest {
			t.Errorf("%s: %d, want 400", name, code)
		}
	}
	if am := w.artifacts.Metrics(); am.Stored != 0 {
		t.Errorf("malformed results stored %d blobs, want 0", am.Stored)
	}
}

// TestReplicaIntakeRefusesResultOffWorker: only the worker surface takes
// result blobs. Anywhere else a client could plant the answer to another
// client's request, so the node answers 400 and stores nothing.
func TestReplicaIntakeRefusesResultOffWorker(t *testing.T) {
	s := fastServer(t)
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	key, _, blob := testResultBlob(t)
	if code := postBlob(t, hs.URL, blob); code != http.StatusBadRequest {
		t.Fatalf("result push to a non-worker: %d, want 400", code)
	}
	if _, _, ok := s.artifacts.Result(key); ok {
		t.Error("a non-worker stored a pushed result")
	}
	if am := s.artifacts.Metrics(); am.Stored != 0 {
		t.Errorf("non-worker stored %d blobs, want 0", am.Stored)
	}
}

// TestReplicaIntakeDoesNotCascade: replication carries finished results
// only. A blob this node receives — a peer's result, a clip's frames — is
// never pushed onward, and a replicating job pushes exactly its own
// result/v1 blob to its target, not the frames it ran on (DESIGN.md §16).
func TestReplicaIntakeDoesNotCascade(t *testing.T) {
	var mu sync.Mutex
	var pushed []string // hashes, in arrival order
	sink := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		raw, _ := io.ReadAll(r.Body)
		mu.Lock()
		pushed = append(pushed, artifacts.HashOf(raw))
		mu.Unlock()
		rw.WriteHeader(http.StatusCreated)
	}))
	defer sink.Close()

	w, whs := fleetWorker(t)
	_, _, peer := testResultBlob(t)
	if code := postBlob(t, whs.URL, peer); code != http.StatusCreated {
		t.Fatalf("result push: %d", code)
	}
	v, err := synth.Generate(synth.DefaultJumpParams())
	if err != nil {
		t.Fatal(err)
	}
	frames, err := artifacts.EncodeFrames(v.Frames)
	if err != nil {
		t.Fatal(err)
	}
	if code := postBlob(t, whs.URL, frames); code != http.StatusCreated {
		t.Fatalf("frames push: %d", code)
	}

	// A replicating job over the frames this node holds.
	req := core.Request{
		ManualFirst:        v.ManualAnnotation(synth.DefaultAnnotationError(), 1),
		Stages:             core.OnlyStage(core.StageSegmentation),
		IncludeSilhouettes: true,
	}
	p, err := jobs.NewArtifactPayload(w.cfgFP, artifacts.HashOf(frames), req)
	if err != nil {
		t.Fatal(err)
	}
	p.ReplicaTarget = sink.URL
	id := submitWorkerPayload(t, whs.URL, p)
	waitState(t, whs.URL, id, string(jobs.StateDone))
	key, _ := p.Key()
	resultHash, _, ok := w.artifacts.Result(key)
	if !ok {
		t.Fatal("the job stored no result")
	}

	// The push queue is FIFO: anything cascaded from the received blobs, or
	// the job's frames, would have arrived before its result.
	deadline := time.Now().Add(10 * time.Second)
	for {
		mu.Lock()
		got := append([]string(nil), pushed...)
		mu.Unlock()
		if len(got) > 0 {
			if len(got) != 1 || got[0] != resultHash {
				t.Fatalf("pushed %v, want only the job's result %s", got, resultHash)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the job's result never reached its target")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// submitWorkerPayload posts a payload to a worker's intake and returns the
// id of the job it enqueued.
func submitWorkerPayload(t *testing.T, base string, p jobs.Payload) string {
	t.Helper()
	raw, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, base+"/v1/worker/jobs", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if p.FramesRef != "" {
		req.Header.Set(jobs.ArtifactPayloadHeader, "1")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := readAllAndClose(resp)
	var sub submitResponse
	if resp.StatusCode != http.StatusAccepted || json.Unmarshal(body, &sub) != nil {
		t.Fatalf("worker intake: %d %s", resp.StatusCode, body)
	}
	return sub.ID
}

// TestChaosKillReplicatedWorker is the acceptance pin: under -replicate, a
// worker that dies after finishing a job costs nothing — the identical
// resubmission fails over to the ring successor, which answers from its
// replicated cache byte-identically, without executing a single job.
func TestChaosKillReplicatedWorker(t *testing.T) {
	w1, w1hs := fleetWorker(t)
	w2, w2hs := fleetWorker(t)
	d, front := fleetFront(t, true, time.Hour, w1hs.URL, w2hs.URL)

	v, err := synth.Generate(synth.DefaultJumpParams())
	if err != nil {
		t.Fatal(err)
	}
	raw1 := e2etest.SubmitAndFetch(t, front.URL, v)

	// Identify who ran it and who holds the replica.
	runner, runnerHS, survivor := w1, w1hs, w2
	survivorHS := w2hs
	if w1.jobs.Metrics().Submitted == 0 {
		runner, runnerHS, survivor, survivorHS = w2, w2hs, w1, w1hs
	}
	if runner.jobs.Metrics().Submitted == 0 {
		t.Fatal("no worker executed the job")
	}

	// Replication is asynchronous; wait for the push to land.
	deadline := time.Now().Add(10 * time.Second)
	for survivor.artifacts.ResultMetrics().Stored == 0 {
		if time.Now().After(deadline) {
			t.Fatal("replica never reached the successor")
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Kill the worker that computed the result.
	runnerHS.Close()

	// The identical clip resubmitted: the dispatcher re-hashes past the
	// dead primary and the successor answers from its replicated cache.
	raw2 := e2etest.SubmitAndFetch(t, front.URL, v)
	if !bytes.Equal(e2etest.StripVolatile(t, raw1), e2etest.StripVolatile(t, raw2)) {
		t.Error("failover result differs from the original document")
	}

	// Zero recompute: the successor never enqueued or executed anything —
	// it answered purely from the replicated cache entry.
	if got := survivor.jobs.Metrics().Submitted; got != 0 {
		t.Errorf("successor executed %d jobs, want 0 (replica cache hit)", got)
	}
	r, err := http.Get(survivorHS.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := readAllAndClose(r)
	var hz struct {
		ClipsAnalyzed int `json:"clips_analyzed"`
	}
	if err := json.Unmarshal(body, &hz); err != nil {
		t.Fatalf("healthz: %v %s", err, body)
	}
	if hz.ClipsAnalyzed != 0 {
		t.Errorf("successor analyzed %d clips, want 0", hz.ClipsAnalyzed)
	}
	if d.Metrics().Failovers == 0 {
		t.Error("dispatcher counted no failovers")
	}
}
