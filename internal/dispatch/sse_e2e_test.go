package dispatch_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"github.com/sljmotion/sljmotion/internal/core"
	"github.com/sljmotion/sljmotion/internal/dispatch"
	"github.com/sljmotion/sljmotion/internal/e2etest"
	"github.com/sljmotion/sljmotion/internal/events"
	"github.com/sljmotion/sljmotion/internal/jobs"
	"github.com/sljmotion/sljmotion/internal/synth"
)

// readStream collects SSE events from url (resuming after afterSeq when
// > 0) until the terminal event, returning them in arrival order.
func readStream(t *testing.T, url string, afterSeq uint64) []events.Event {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if afterSeq > 0 {
		req.Header.Set("Last-Event-ID", fmt.Sprintf("%d", afterSeq))
	}
	client := &http.Client{}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("stream status %d: %s", resp.StatusCode, raw)
	}
	fr := events.NewFrameReader(resp.Body)
	var out []events.Event
	for {
		f, err := fr.Next()
		if err != nil {
			t.Fatalf("stream cut before terminal: %v (saw %d events)", err, len(out))
		}
		e, err := f.DecodeEvent()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, e)
		if e.Terminal() {
			return out
		}
	}
}

// TestDispatchSSEStreamAndResume is the PR's acceptance test: a client
// streaming a job's events through a two-node dispatch ring front end
// receives ordered lifecycle + per-stage events and a terminal event
// whose embedded result is identical (modulo the shared indentation) to
// GET /v1/jobs/{id}/result — and after a dropped connection, resuming
// with Last-Event-ID yields exactly the missed tail with contiguous
// sequence numbers.
func TestDispatchSSEStreamAndResume(t *testing.T) {
	v, err := synth.Generate(synth.DefaultJumpParams())
	if err != nil {
		t.Fatal(err)
	}
	n1, _ := newNode(t)
	n2, _ := newNode(t)
	front := newFrontend(t, []string{n1.URL, n2.URL})

	doc, raw, code := e2etest.Submit(t, front.URL, v, "segmentation", true)
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", code, raw)
	}

	got := readStream(t, front.URL+"/v1/jobs/"+doc.ID+"/events", 0)
	if len(got) < 3 {
		t.Fatalf("expected at least queued/stage/done, got %+v", got)
	}
	for i, e := range got {
		if e.Seq != uint64(i+1) {
			t.Fatalf("event %d: seq %d, want %d (the worker's numbering must survive the proxy)", i, e.Seq, i+1)
		}
		if e.JobID != doc.ID {
			t.Errorf("event %d carries job %q", i, e.JobID)
		}
	}
	if got[0].Type != events.TypeQueued {
		t.Errorf("first event %s, want queued", got[0].Type)
	}
	sawStage := false
	for _, e := range got {
		if e.Type == events.TypeStage && e.Stage == "segmentation" {
			sawStage = true
		}
	}
	if !sawStage {
		t.Error("no segmentation stage event in the stream")
	}
	terminal := got[len(got)-1]
	if terminal.Type != events.TypeDone || len(terminal.Result) == 0 {
		t.Fatalf("terminal event: %+v", terminal)
	}

	// The embedded result is the result route's document.
	resp, err := http.Get(front.URL + "/v1/jobs/" + doc.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	pollRaw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result status %d: %s", resp.StatusCode, pollRaw)
	}
	var indented bytes.Buffer
	if err := json.Indent(&indented, terminal.Result, "", "  "); err != nil {
		t.Fatalf("embedded result is not JSON: %v", err)
	}
	indented.WriteByte('\n')
	if !bytes.Equal(indented.Bytes(), pollRaw) {
		t.Errorf("embedded result differs from the poll path:\n%s\nvs\n%s", indented.Bytes(), pollRaw)
	}

	// Dropped connection: resume after the second event and receive
	// exactly the tail.
	resumeAfter := got[1].Seq
	tail := readStream(t, front.URL+"/v1/jobs/"+doc.ID+"/events", resumeAfter)
	if len(tail) != len(got)-2 {
		t.Fatalf("resumed tail has %d events, want %d", len(tail), len(got)-2)
	}
	for i, e := range tail {
		if e.Seq != resumeAfter+uint64(i+1) {
			t.Errorf("resumed event %d: seq %d, want %d", i, e.Seq, resumeAfter+uint64(i+1))
		}
		if e.Type != got[i+2].Type {
			t.Errorf("resumed event %d: type %s, want %s", i, e.Type, got[i+2].Type)
		}
	}
	if last := tail[len(tail)-1]; last.Type != events.TypeDone || len(last.Result) == 0 {
		t.Errorf("resumed terminal event: %+v", last)
	}
}

// TestDispatchCacheHitStreamsImmediateTerminal: a submission answered
// from a worker's result cache is born done — its event stream must open
// directly onto a terminal event carrying the result.
func TestDispatchCacheHitStreamsImmediateTerminal(t *testing.T) {
	v, err := synth.Generate(synth.DefaultJumpParams())
	if err != nil {
		t.Fatal(err)
	}
	n1, _ := newNode(t)
	n2, _ := newNode(t)
	front := newFrontend(t, []string{n1.URL, n2.URL})

	first := submitAndFetch(t, front.URL, v) // cold run, populates the node cache

	doc, raw, code := e2etest.Submit(t, front.URL, v, "segmentation", true)
	if code != http.StatusAccepted {
		// The front end's own local record may answer 200 directly; the
		// interesting path here is a fresh 202 id born done. Either way
		// the result matches.
		if code == http.StatusOK && bytes.Equal(raw, first) {
			t.Skip("submission answered inline; no job id to stream")
		}
		t.Fatalf("resubmission status %d: %s", code, raw)
	}
	got := readStream(t, front.URL+"/v1/jobs/"+doc.ID+"/events", 0)
	if got[len(got)-1].Type != events.TypeDone {
		t.Fatalf("cache-hit stream: %+v", got)
	}
	if len(got[len(got)-1].Result) == 0 {
		t.Error("cache-hit terminal event carries no result")
	}
}

// fallbackWorker is a minimal worker-protocol stub WITHOUT the events
// route: submissions are accepted, status advances queued → running →
// done across polls, and the stream route 404s — forcing the dispatcher
// onto its polling-backed synthetic events.
type fallbackWorker struct {
	mu    sync.Mutex
	polls int
}

func (f *fallbackWorker) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, `{"status":"ok"}`)
	})
	mux.HandleFunc("/v1/worker/jobs", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprintln(w, `{"id":"fallback1","state":"queued"}`)
	})
	mux.HandleFunc("/v1/jobs/fallback1/events", func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"no streaming here"}`, http.StatusNotFound)
	})
	mux.HandleFunc("/v1/jobs/fallback1/result", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, `{"frames":20}`)
	})
	mux.HandleFunc("/v1/jobs/fallback1", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		f.polls++
		n := f.polls
		f.mu.Unlock()
		now := time.Now().UTC().Format(time.RFC3339Nano)
		switch {
		case n <= 1:
			fmt.Fprintf(w, `{"id":"fallback1","state":"queued","created_at":%q}`, now)
		case n <= 3:
			fmt.Fprintf(w, `{"id":"fallback1","state":"running","stage":"pose","created_at":%q}`, now)
		default:
			fmt.Fprintf(w, `{"id":"fallback1","state":"done","created_at":%q,"finished_at":%q}`, now, now)
		}
	})
	return mux
}

// TestWatchFallsBackToPolling: when the owning node cannot stream, Watch
// degrades to synthetic events — opening with a snapshot, ending with the
// terminal — without the client noticing anything but coarser granularity.
func TestWatchFallsBackToPolling(t *testing.T) {
	fw := &fallbackWorker{}
	node := httptest.NewServer(fw.handler())
	defer node.Close()

	d, err := dispatch.New(dispatch.Config{
		Nodes:          []string{node.URL},
		HealthInterval: time.Hour, // keep the prober out of the poll count
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close(context.Background())

	v, err := synth.Generate(synth.DefaultJumpParams())
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	payload, err := jobs.NewAnalysisPayload(jobs.ConfigFingerprint(cfg), core.Request{
		Frames:      v.Frames,
		ManualFirst: v.ManualAnnotation(synth.DefaultAnnotationError(), 1),
		Stages:      core.OnlyStage(core.StageSegmentation),
	})
	if err != nil {
		t.Fatal(err)
	}
	id, err := d.Submit(payload)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	ch, err := d.Watch(ctx, id, 0)
	if err != nil {
		t.Fatal(err)
	}
	var got []events.Event
	for e := range ch {
		got = append(got, e)
	}
	if len(got) < 2 {
		t.Fatalf("fallback stream too short: %+v", got)
	}
	if got[0].Type != events.TypeSnapshot {
		t.Errorf("fallback must open with a snapshot, got %+v", got[0])
	}
	for i := 1; i < len(got); i++ {
		if got[i].Seq != got[i-1].Seq+1 {
			t.Errorf("fallback seqs not contiguous: %d after %d", got[i].Seq, got[i-1].Seq)
		}
	}
	last := got[len(got)-1]
	if last.Type != events.TypeDone {
		t.Errorf("fallback terminal: %+v", last)
	}
	sawStage := false
	for _, e := range got {
		if e.Stage == "pose" {
			sawStage = true
		}
	}
	if !sawStage {
		t.Errorf("fallback missed the running/stage observation: %+v", got)
	}
}
