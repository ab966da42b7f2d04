package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/sljmotion/sljmotion/internal/events"
	"github.com/sljmotion/sljmotion/internal/jobs"
)

// submitTestJob posts to the async route of a server running a testExec
// (no upload parsing) and returns the accepted job id.
func submitTestJob(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Post(base+"/v1/jobs", "text/plain", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit status %d: %s", resp.StatusCode, raw)
	}
	var doc submitResponse
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	return doc.ID
}

// openStream opens an SSE stream; afterSeq > 0 sends Last-Event-ID.
func openStream(t *testing.T, url string, afterSeq uint64) (*http.Response, *events.FrameReader) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if afterSeq > 0 {
		req.Header.Set("Last-Event-ID", fmt.Sprintf("%d", afterSeq))
	}
	client := &http.Client{} // no timeout: the stream outlives deadlines
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("stream status %d: %s", resp.StatusCode, raw)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	return resp, events.NewFrameReader(resp.Body)
}

// indentDoc renders a compact JSON document exactly like writeJSON does —
// the byte-identity bridge between an SSE-embedded result and the result
// route's body.
func indentDoc(t *testing.T, raw json.RawMessage) []byte {
	t.Helper()
	var out bytes.Buffer
	if err := json.Indent(&out, raw, "", "  "); err != nil {
		t.Fatalf("embedded result is not valid JSON: %v", err)
	}
	out.WriteByte('\n')
	return out.Bytes()
}

// stagedExec emits the four pipeline stages (gated on release) and returns
// a small response document.
func stagedExec(release <-chan struct{}) jobs.Executor {
	return jobs.ExecutorFunc(func(ctx context.Context, p jobs.Payload, progress func(string)) (any, error) {
		if release != nil {
			select {
			case <-release:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		for _, st := range []string{"segmentation", "pose", "tracking", "scoring"} {
			progress(st)
		}
		return &AnalysisResponse{Frames: 20, Score: "7/7", Passed: 7, Total: 7}, nil
	})
}

// TestSSEStreamEndToEnd is the streaming acceptance test at the server
// level: a client that opens the event stream — and never polls status —
// sees queued, running, all four stage events in pipeline order, and a
// terminal done frame embedding a result byte-identical (after the shared
// indentation) to what GET /v1/jobs/{id}/result serves.
func TestSSEStreamEndToEnd(t *testing.T) {
	s := fastServerWithOptions(t, Options{Workers: 1, QueueSize: 4, ResultTTL: time.Minute, EventHeartbeat: 20 * time.Millisecond})
	release := make(chan struct{})
	s.testExec = stagedExec(release)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	id := submitTestJob(t, srv.URL)
	resp, fr := openStream(t, srv.URL+"/v1/jobs/"+id+"/events", 0)
	defer resp.Body.Close()
	close(release)

	var types []events.Type
	var stages []string
	var terminal events.Event
	for {
		f, err := fr.Next()
		if err != nil {
			t.Fatalf("stream cut before the terminal event: %v (saw %v)", err, types)
		}
		e, err := f.DecodeEvent()
		if err != nil {
			t.Fatal(err)
		}
		types = append(types, e.Type)
		if e.Type == events.TypeStage {
			stages = append(stages, e.Stage)
		}
		if e.Terminal() {
			terminal = e
			break
		}
	}
	if want := []string{"segmentation", "pose", "tracking", "scoring"}; fmt.Sprint(stages) != fmt.Sprint(want) {
		t.Errorf("stage events %v, want %v", stages, want)
	}
	if types[0] != events.TypeQueued || terminal.Type != events.TypeDone {
		t.Errorf("lifecycle events: %v", types)
	}
	if len(terminal.Result) == 0 {
		t.Fatal("terminal frame carries no embedded result")
	}
	// The stream must end (server closes the frame flow) after terminal.
	if _, err := fr.Next(); err == nil {
		t.Error("stream stayed open past the terminal event")
	}

	// Byte-identity with the poll path — the only job GET of the test.
	pollResp, err := http.Get(srv.URL + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	pollRaw, _ := io.ReadAll(pollResp.Body)
	pollResp.Body.Close()
	if pollResp.StatusCode != http.StatusOK {
		t.Fatalf("result status %d", pollResp.StatusCode)
	}
	if got := indentDoc(t, terminal.Result); !bytes.Equal(got, pollRaw) {
		t.Errorf("embedded result differs from the poll path:\n%s\nvs\n%s", got, pollRaw)
	}
}

// TestSSEResumeAfterDrop: a client whose connection drops mid-stream
// reconnects with Last-Event-ID and receives exactly the events it
// missed, in order.
func TestSSEResumeAfterDrop(t *testing.T) {
	s := fastServerWithOptions(t, Options{Workers: 1, QueueSize: 4, ResultTTL: time.Minute, EventHeartbeat: 20 * time.Millisecond})
	mid := make(chan struct{})
	finish := make(chan struct{})
	s.testExec = jobs.ExecutorFunc(func(ctx context.Context, p jobs.Payload, progress func(string)) (any, error) {
		progress("segmentation")
		close(mid)
		select {
		case <-finish:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		progress("pose")
		return &AnalysisResponse{Frames: 20}, nil
	})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	id := submitTestJob(t, srv.URL)
	resp, fr := openStream(t, srv.URL+"/v1/jobs/"+id+"/events", 0)
	<-mid
	// Read up to the first stage event, then drop the connection.
	var lastSeq uint64
	for lastSeq < 3 { // queued, running, stage segmentation
		f, err := fr.Next()
		if err != nil {
			t.Fatal(err)
		}
		lastSeq = f.Seq()
	}
	resp.Body.Close() // dropped connection

	resp2, fr2 := openStream(t, srv.URL+"/v1/jobs/"+id+"/events", lastSeq)
	defer resp2.Body.Close()
	close(finish)
	var got []events.Event
	for {
		f, err := fr2.Next()
		if err != nil {
			t.Fatalf("resumed stream cut: %v (saw %+v)", err, got)
		}
		e, err := f.DecodeEvent()
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, e)
		if e.Terminal() {
			break
		}
	}
	if len(got) != 2 || got[0].Stage != "pose" || got[1].Type != events.TypeDone {
		t.Fatalf("resumed events: %+v", got)
	}
	if got[0].Seq != lastSeq+1 {
		t.Errorf("resume gap: first resumed seq %d after %d", got[0].Seq, lastSeq)
	}
}

// TestSSEAlreadyFinishedJobStreamsImmediately: opening the stream of a
// finished job yields its history ending in the embedded-terminal frame
// without waiting.
func TestSSEAlreadyFinishedJobStreamsImmediately(t *testing.T) {
	s := fastServerWithOptions(t, Options{Workers: 1, QueueSize: 4, ResultTTL: time.Minute, EventHeartbeat: 20 * time.Millisecond})
	s.testExec = stagedExec(nil)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	id := submitTestJob(t, srv.URL)
	waitState(t, srv.URL, id, string(jobs.StateDone))

	resp, fr := openStream(t, srv.URL+"/v1/jobs/"+id+"/events", 0)
	defer resp.Body.Close()
	deadline := time.After(5 * time.Second)
	done := make(chan events.Event, 1)
	go func() {
		for {
			f, err := fr.Next()
			if err != nil {
				return
			}
			if e, err := f.DecodeEvent(); err == nil && e.Terminal() {
				done <- e
				return
			}
		}
	}()
	select {
	case e := <-done:
		if e.Type != events.TypeDone || len(e.Result) == 0 {
			t.Errorf("terminal frame: %+v", e)
		}
	case <-deadline:
		t.Fatal("finished job's stream never delivered its terminal event")
	}
}

// TestSSESubscriberLimit: the configured cap answers 503 + Retry-After
// with the shared envelope, and frees on disconnect.
func TestSSESubscriberLimit(t *testing.T) {
	s := fastServerWithOptions(t, Options{Workers: 1, QueueSize: 4, ResultTTL: time.Minute, EventSubscribers: 1, EventHeartbeat: 10 * time.Millisecond})
	release := make(chan struct{})
	defer close(release)
	s.testExec = stagedExec(release)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	id := submitTestJob(t, srv.URL)

	resp, _ := openStream(t, srv.URL+"/v1/jobs/"+id+"/events", 0)
	over, err := http.Get(srv.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(over.Body)
	over.Body.Close()
	if over.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over-limit stream: status %d, want 503", over.StatusCode)
	}
	if over.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
	var env errorResponse
	if err := json.Unmarshal(raw, &env); err != nil || env.Error == "" {
		t.Errorf("503 body is not the error envelope: %s", raw)
	}

	// Disconnecting the first client frees the slot.
	resp.Body.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		r2, err := http.Get(srv.URL + "/v1/jobs/" + id + "/events")
		if err != nil {
			t.Fatal(err)
		}
		ok := r2.StatusCode == http.StatusOK
		r2.Body.Close()
		if ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("stream slot never freed after disconnect")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSSEUnknownJob404s with the shared envelope.
func TestSSEUnknownJob(t *testing.T) {
	s := fastServerWithOptions(t, Options{Workers: 1, QueueSize: 1, ResultTTL: time.Minute})
	s.testExec = stagedExec(nil)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/jobs/deadbeef/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404", resp.StatusCode)
	}
	var env errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil || env.Error == "" {
		t.Error("404 body is not the error envelope")
	}
}

// TestSSEBadResumePosition: a non-numeric Last-Event-ID answers 400.
func TestSSEBadResumePosition(t *testing.T) {
	s := fastServerWithOptions(t, Options{Workers: 1, QueueSize: 4, ResultTTL: time.Minute})
	s.testExec = stagedExec(nil)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	id := submitTestJob(t, srv.URL)
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/v1/jobs/"+id+"/events", nil)
	req.Header.Set("Last-Event-ID", "bogus")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
}

// TestSSEHeartbeats: an idle stream keeps emitting comment frames.
func TestSSEHeartbeats(t *testing.T) {
	s := fastServerWithOptions(t, Options{Workers: 1, QueueSize: 4, ResultTTL: time.Minute, EventHeartbeat: 10 * time.Millisecond})
	release := make(chan struct{})
	defer close(release)
	s.testExec = stagedExec(release)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	id := submitTestJob(t, srv.URL)

	resp, err := http.Get(srv.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := make([]byte, 4096)
	var collected []byte
	deadline := time.Now().Add(5 * time.Second)
	for !bytes.Contains(collected, []byte(": hb")) {
		if time.Now().After(deadline) {
			t.Fatalf("no heartbeat on an idle stream: %q", collected)
		}
		n, err := resp.Body.Read(buf)
		collected = append(collected, buf[:n]...)
		if err != nil {
			t.Fatalf("stream ended: %v (%q)", err, collected)
		}
	}
}
