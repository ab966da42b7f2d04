package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"github.com/sljmotion/sljmotion/internal/artifacts"
	"github.com/sljmotion/sljmotion/internal/events"
	"github.com/sljmotion/sljmotion/internal/jobs"
	"github.com/sljmotion/sljmotion/internal/synth"
)

// memJournal is an in-memory jobs.Journal.
type memJournal struct {
	mu      sync.Mutex
	entries []jobs.JournalEntry
}

func (j *memJournal) Append(e jobs.JournalEntry) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.entries = append(j.entries, e)
	return nil
}

func (j *memJournal) Replay(fn func(jobs.JournalEntry) error) error {
	j.mu.Lock()
	entries := append([]jobs.JournalEntry(nil), j.entries...)
	j.mu.Unlock()
	for _, e := range entries {
		if err := fn(e); err != nil {
			return err
		}
	}
	return nil
}

func (j *memJournal) Sync() error { return nil }

// getBody GETs url and returns the status and body.
func getBody(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

// TestResultBytesIdentity pins the one-encode result path: every route
// that answers with a finished job's document answers with the bytes the
// executor stored, and the compact form derived from them is what the
// journal and the terminal event carry.
func TestResultBytesIdentity(t *testing.T) {
	v, err := synth.Generate(synth.DefaultJumpParams())
	if err != nil {
		t.Fatal(err)
	}
	upload := func() (*bytes.Buffer, string) { return clipUploadStaged(t, v, "segmentation", true) }

	jrn := &memJournal{}
	opts := DefaultOptions()
	opts.Journal = jrn
	s := fastServerWithOptions(t, opts)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	body, ctype := upload()
	resp, err := http.Post(srv.URL+"/v1/jobs", ctype, body)
	if err != nil {
		t.Fatal(err)
	}
	var sub submitResponse
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d, %v", resp.StatusCode, err)
	}
	waitState(t, srv.URL, sub.ID, "done")

	code, doc := getBody(t, srv.URL+"/v1/jobs/"+sub.ID+"/result")
	if code != http.StatusOK {
		t.Fatalf("result status %d: %s", code, doc)
	}
	// The result/v1 blob holds the same bytes.
	body, ctype = upload()
	hr := httptest.NewRequest(http.MethodPost, "/v1/analyze", body)
	hr.Header.Set("Content-Type", ctype)
	req, _, ok := requestFromHTTP(httptest.NewRecorder(), hr)
	if !ok {
		t.Fatal("the upload does not parse")
	}
	_, blob, ok := s.artifacts.Result(jobs.RequestKey(s.cfgFP, req))
	if !ok {
		t.Fatal("no result/v1 blob for the job's request")
	}
	if !bytes.Equal(artifacts.ResultDoc(blob), doc) {
		t.Fatal("the result/v1 blob's document differs from the result route's body")
	}
	// The synchronous route answers the same clip from that blob.
	body, ctype = upload()
	resp, err = http.Post(srv.URL+"/v1/analyze", ctype, body)
	if err != nil {
		t.Fatal(err)
	}
	syncDoc, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !bytes.Equal(syncDoc, doc) {
		t.Fatal("POST /v1/analyze differs from GET /v1/jobs/{id}/result")
	}

	var compact bytes.Buffer
	if err := json.Compact(&compact, doc); err != nil {
		t.Fatal(err)
	}
	// The terminal event embeds the compact form.
	stream, fr := openStream(t, srv.URL+"/v1/jobs/"+sub.ID+"/events", 0)
	var terminal events.Event
	for terminal.Type == "" {
		f, err := fr.Next()
		if err != nil {
			t.Fatalf("stream cut before the terminal event: %v", err)
		}
		e, err := f.DecodeEvent()
		if err != nil {
			t.Fatal(err)
		}
		if e.Terminal() {
			terminal = e
		}
	}
	stream.Body.Close()
	if !bytes.Equal(terminal.Result, compact.Bytes()) {
		t.Fatalf("terminal event result is not json.Compact of the document (%d vs %d bytes)", len(terminal.Result), compact.Len())
	}

	// The journal's terminal record is the compact form too, which is
	// exactly what encoding the decoded response writes: the terminal
	// record of a release that marshalled the response value.
	var decoded AnalysisResponse
	if err := json.Unmarshal(doc, &decoded); err != nil {
		t.Fatal(err)
	}
	marshalled, err := json.Marshal(&decoded)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(marshalled, compact.Bytes()) {
		t.Fatal("json.Marshal of the response differs from json.Compact of its document")
	}
	var replayed memJournal
	done := 0
	for _, e := range jrn.entries {
		if e.Op == jobs.OpDone {
			done++
			if !bytes.Equal(e.Result, compact.Bytes()) {
				t.Fatal("the journal's terminal record is not the compact document")
			}
			e.Result = marshalled // as a release that marshalled the response wrote it
		}
		replayed.entries = append(replayed.entries, e)
	}
	if done != 1 {
		t.Fatalf("%d terminal records, want 1", done)
	}
	for name, j := range map[string]*memJournal{"this release's journal": jrn, "a marshalled terminal record": &replayed} {
		opts := DefaultOptions()
		opts.Journal = j
		s2 := fastServerWithOptions(t, opts)
		srv2 := httptest.NewServer(s2.Handler())
		code, got := getBody(t, srv2.URL+"/v1/jobs/"+sub.ID+"/result")
		srv2.Close()
		if code != http.StatusOK || !bytes.Equal(got, doc) {
			t.Errorf("after replaying %s: status %d, the result route's body differs from the document", name, code)
		}
	}
}

// TestFleetFrontServesWorkerBytes: a dispatching front end answers the
// result route with the worker's bytes as they are, not re-encoded — a
// worker document in a layout the front end would not write itself
// comes back unchanged.
func TestFleetFrontServesWorkerBytes(t *testing.T) {
	const doc = "{\"frames\":   20,\n\t\"score\": \"7/7\"}\n"
	worker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		switch r.URL.Path {
		case "/v1/worker/jobs":
			w.WriteHeader(http.StatusAccepted)
			fmt.Fprint(w, `{"id":"w1","state":"queued"}`)
		case "/v1/jobs/w1":
			fin := time.Now()
			_ = json.NewEncoder(w).Encode(jobs.Status{ID: "w1", State: jobs.StateDone, CreatedAt: fin, FinishedAt: &fin})
		case "/v1/jobs/w1/result":
			fmt.Fprint(w, doc)
		case "/v1/healthz":
			fmt.Fprint(w, `{"status":"ok"}`)
		default:
			http.NotFound(w, r)
		}
	}))
	defer worker.Close()
	_, front := fleetFront(t, false, time.Hour, worker.URL)

	v, err := synth.Generate(synth.DefaultJumpParams())
	if err != nil {
		t.Fatal(err)
	}
	body, ctype := clipUploadStaged(t, v, "segmentation", false)
	resp, err := http.Post(front.URL+"/v1/jobs", ctype, body)
	if err != nil {
		t.Fatal(err)
	}
	var sub submitResponse
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d, %v", resp.StatusCode, err)
	}
	waitState(t, front.URL, sub.ID, "done")
	for i := 0; i < 2; i++ { // the fetch, then the front end's own copy
		code, got := getBody(t, front.URL+"/v1/jobs/"+sub.ID+"/result")
		if code != http.StatusOK || string(got) != doc {
			t.Fatalf("front end result: status %d, %q; want the worker's bytes %q", code, got, doc)
		}
	}
}
