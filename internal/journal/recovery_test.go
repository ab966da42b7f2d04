package journal_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"
	"time"

	"github.com/sljmotion/sljmotion/internal/core"
	"github.com/sljmotion/sljmotion/internal/e2etest"
	"github.com/sljmotion/sljmotion/internal/jobs"
	"github.com/sljmotion/sljmotion/internal/journal"
	"github.com/sljmotion/sljmotion/internal/server"
	"github.com/sljmotion/sljmotion/internal/synth"
)

// severableJournal simulates a crash: a real process death stops appends
// reaching the file at one instant, but in-process the abandoned Manager's
// goroutines keep running and would otherwise journal their completions.
// Severing drops every later append, so the file is frozen exactly at the
// crash point while the test proceeds.
type severableJournal struct {
	inner jobs.Journal
	mu    sync.Mutex
	dead  bool
}

func (s *severableJournal) sever() {
	s.mu.Lock()
	s.dead = true
	s.mu.Unlock()
}

func (s *severableJournal) Append(e jobs.JournalEntry) error {
	s.mu.Lock()
	dead := s.dead
	s.mu.Unlock()
	if dead {
		return nil
	}
	return s.inner.Append(e)
}

func (s *severableJournal) Replay(fn func(e jobs.JournalEntry) error) error {
	return s.inner.Replay(fn)
}

func (s *severableJournal) Sync() error {
	s.mu.Lock()
	dead := s.dead
	s.mu.Unlock()
	if dead {
		return nil
	}
	return s.inner.Sync()
}

// clip generates a deterministic synthetic jump with the given seed.
func clip(t *testing.T, seed int64) *synth.Video {
	t.Helper()
	params := synth.DefaultJumpParams()
	params.Seed = seed
	v, err := synth.Generate(params)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// jobStatusOf fetches GET /v1/jobs/{id} as a raw map for field comparison.
func jobStatusOf(t *testing.T, base, id string) map[string]any {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status of %s: %d", id, resp.StatusCode)
	}
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestCrashRecoveryEndToEnd is the acceptance test of the journal: a
// server whose Manager is journal-backed crashes (dropped without Close)
// with one job finished, one running and two queued; a new server opened
// over the same journal — which additionally suffered a torn final record
// — serves the finished result byte-identically WITHOUT re-running the
// pipeline, and re-executes the three interrupted jobs to results
// byte-identical to an un-journaled reference server.
func TestCrashRecoveryEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full-pipeline recovery run in -short mode")
	}
	cfg := e2etest.Config()
	vDone, vFull, vQ1, vQ2 := clip(t, 1), clip(t, 2), clip(t, 3), clip(t, 4)

	// Reference: the same stack, no journal — the identity baseline.
	ref, err := server.NewWithOptions(cfg, nil, server.Options{
		Workers: 1, QueueSize: 8, ResultTTL: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	refSrv := httptest.NewServer(ref.Handler())
	defer func() {
		refSrv.Close()
		_ = ref.Close(context.Background())
	}()
	refDone := e2etest.SubmitAndFetch(t, refSrv.URL, vDone)
	refQ1 := e2etest.SubmitAndFetch(t, refSrv.URL, vQ1)
	refQ2 := e2etest.SubmitAndFetch(t, refSrv.URL, vQ2)
	fullDoc, _, code := e2etest.Submit(t, refSrv.URL, vFull, "", false)
	if code != http.StatusAccepted {
		t.Fatalf("reference full submit: %d", code)
	}
	refFull := e2etest.PollResult(t, refSrv.URL, fullDoc.ResultURL, 2*time.Minute)

	// Phase 1: the journal-backed server. One worker so the full-pipeline
	// job occupies it while the two fast ones queue behind.
	path := filepath.Join(t.TempDir(), "jobs.journal")
	jrn1, err := journal.Open(path, journal.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sev := &severableJournal{inner: jrn1}
	s1, err := server.NewWithOptions(cfg, nil, server.Options{
		Workers: 1, QueueSize: 8, ResultTTL: time.Hour,
		Journal: sev,
	})
	if err != nil {
		t.Fatal(err)
	}
	hs1 := httptest.NewServer(s1.Handler())

	// One finished job, with its pre-crash bytes and status captured.
	doneDoc, _, code := e2etest.Submit(t, hs1.URL, vDone, "segmentation", true)
	if code != http.StatusAccepted {
		t.Fatalf("done-clip submit: %d", code)
	}
	preDone := e2etest.PollResult(t, hs1.URL, doneDoc.ResultURL, 30*time.Second)
	if string(e2etest.StripVolatile(t, preDone)) != string(e2etest.StripVolatile(t, refDone)) {
		t.Fatalf("journal-backed result differs before any crash:\n%s\nvs\n%s", preDone, refDone)
	}
	doneStatus := jobStatusOf(t, hs1.URL, doneDoc.ID)

	// The slow full-pipeline job plus two queued fast ones.
	runDoc, _, code := e2etest.Submit(t, hs1.URL, vFull, "", false)
	if code != http.StatusAccepted {
		t.Fatalf("full submit: %d", code)
	}
	q1Doc, _, code := e2etest.Submit(t, hs1.URL, vQ1, "segmentation", true)
	if code != http.StatusAccepted {
		t.Fatalf("queued submit 1: %d", code)
	}
	q2Doc, _, code := e2etest.Submit(t, hs1.URL, vQ2, "segmentation", true)
	if code != http.StatusAccepted {
		t.Fatalf("queued submit 2: %d", code)
	}

	// Crash. Make the accepted submissions durable (the crash point is
	// after the OS has them), freeze the file, and tear its final record
	// the way a mid-append power cut would.
	if err := sev.Sync(); err != nil {
		t.Fatal(err)
	}
	sev.sever()
	hs1.Close() // the Manager is abandoned: no Close, no drain
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"op":"done","id":"` + runDoc.ID + `","at":"2026-0`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Phase 2: a fresh server over the same journal.
	jrn2, err := journal.Open(path, journal.DefaultConfig())
	if err != nil {
		t.Fatalf("reopen over torn journal: %v", err)
	}
	defer jrn2.Close()
	s2, err := server.NewWithOptions(cfg, nil, server.Options{
		Workers: 1, QueueSize: 8, ResultTTL: time.Hour,
		Journal: jrn2,
	})
	if err != nil {
		t.Fatal(err)
	}
	hs2 := httptest.NewServer(s2.Handler())
	defer func() {
		hs2.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s2.Close(ctx)
	}()

	// The finished job: immediately pollable, byte-identical, original
	// timestamps — and served without re-running the pipeline.
	restored := e2etest.PollResult(t, hs2.URL, "/v1/jobs/"+doneDoc.ID+"/result", 5*time.Second)
	if string(restored) != string(preDone) {
		t.Fatalf("restored result differs from the pre-crash bytes:\n%s\nvs\n%s", restored, preDone)
	}
	restoredStatus := jobStatusOf(t, hs2.URL, doneDoc.ID)
	for _, field := range []string{"created_at", "started_at", "finished_at", "state"} {
		if restoredStatus[field] != doneStatus[field] {
			t.Errorf("restored %s = %v, want original %v", field, restoredStatus[field], doneStatus[field])
		}
	}

	// The interrupted jobs re-run to byte-identical results under their
	// original ids.
	gotFull := e2etest.PollResult(t, hs2.URL, "/v1/jobs/"+runDoc.ID+"/result", 2*time.Minute)
	if string(e2etest.StripVolatile(t, gotFull)) != string(e2etest.StripVolatile(t, refFull)) {
		t.Fatalf("re-executed full-pipeline result differs:\n%.200s\nvs\n%.200s", gotFull, refFull)
	}
	gotQ1 := e2etest.PollResult(t, hs2.URL, "/v1/jobs/"+q1Doc.ID+"/result", 30*time.Second)
	gotQ2 := e2etest.PollResult(t, hs2.URL, "/v1/jobs/"+q2Doc.ID+"/result", 30*time.Second)
	if string(e2etest.StripVolatile(t, gotQ1)) != string(e2etest.StripVolatile(t, refQ1)) ||
		string(e2etest.StripVolatile(t, gotQ2)) != string(e2etest.StripVolatile(t, refQ2)) {
		t.Fatal("re-executed queued results differ from the reference")
	}

	// Exactly the three interrupted jobs ran after restart: the restored
	// result never touched the pipeline (the restarted server's result
	// store starts empty, so the journal is the only thing that could have
	// served it).
	clips, _ := e2etest.MetricsOf(t, hs2.URL)
	if clips != 3 {
		t.Errorf("clips analyzed after restart = %d, want 3 (the interrupted jobs only)", clips)
	}

	// The history endpoint sees all four jobs as done.
	resp, err := http.Get(hs2.URL + "/v1/jobs?state=done")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var listing struct {
		Jobs  []jobs.Status `json:"jobs"`
		Count int           `json:"count"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	if listing.Count != 4 {
		t.Errorf("done history = %d jobs, want 4", listing.Count)
	}
}

// TestManagerNeverServesDamagedBlobs runs the Manager over a file journal
// whose blobs were damaged between two runs. The done job whose result
// blob fails its hash re-runs under its original id instead of serving
// the damaged bytes. The queued job whose payload blob is missing is
// dropped and counted.
func TestManagerNeverServesDamagedBlobs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal")
	var mu sync.Mutex
	runs := 0
	exec := jobs.ExecutorFunc(func(_ context.Context, p jobs.Payload, _ func(string)) (any, error) {
		mu.Lock()
		runs++
		mu.Unlock()
		return map[string]string{"key": p.CacheKey}, nil
	})
	blobPath := func(v any) string {
		raw, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(raw)
		return filepath.Join(path+".blobs", hex.EncodeToString(sum[:]))
	}

	jrn1, err := journal.Open(path, journal.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	m1, err := jobs.New(jobs.Config{Workers: 1, QueueSize: 4, Journal: jrn1}, exec)
	if err != nil {
		t.Fatal(err)
	}
	doneID, err := m1.Submit(jobs.Payload{Kind: jobs.KindAnalysis, CacheKey: "done"})
	if err != nil {
		t.Fatal(err)
	}
	if err := m1.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	// A job accepted just before the crash, never picked up.
	lostPayload := jobs.Payload{Kind: jobs.KindAnalysis, CacheKey: "lost"}
	raw, err := json.Marshal(&lostPayload)
	if err != nil {
		t.Fatal(err)
	}
	if err := jrn1.Append(jobs.JournalEntry{Op: jobs.OpSubmit, ID: "feedfacefeedface", At: time.Now(), Payload: raw}); err != nil {
		t.Fatal(err)
	}
	if err := jrn1.Close(); err != nil {
		t.Fatal(err)
	}

	resultBlob := blobPath(map[string]string{"key": "done"})
	data, err := os.ReadFile(resultBlob)
	if err != nil {
		t.Fatalf("result blob: %v", err)
	}
	data[0] ^= 0x20
	if err := os.WriteFile(resultBlob, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(blobPath(&lostPayload)); err != nil {
		t.Fatal(err)
	}

	jrn2, err := journal.Open(path, journal.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer jrn2.Close()
	m2, err := jobs.New(jobs.Config{Workers: 1, QueueSize: 4, Journal: jrn2}, exec)
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	val, err := m2.Result(doneID)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := json.Marshal(val)
	if string(got) != `{"key":"done"}` {
		t.Errorf("result after restart = %s, want the re-run document", got)
	}
	if runs != 2 {
		t.Errorf("executor ran %d times, want 2 (the damaged result re-ran)", runs)
	}
	if _, err := m2.Status("feedfacefeedface"); err == nil {
		t.Error("the job whose payload blob was lost came back")
	}
	if n := jrn2.Stats().DroppedJobs; n != 1 {
		t.Errorf("DroppedJobs = %d, want 1", n)
	}
}

// TestLegacyJSONSubmitReplays: a journal written by a release that stored
// submit payloads as JSON still replays. Its pending job re-runs under its
// id to the document an un-journaled server computes for the same upload,
// and the result lands under the upload's own request key, so a later
// upload of the clip is answered from it.
func TestLegacyJSONSubmitReplays(t *testing.T) {
	cfg := e2etest.Config()
	v := clip(t, 5)

	ref, err := server.NewWithOptions(cfg, nil, server.Options{Workers: 1, QueueSize: 4, ResultTTL: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	refSrv := httptest.NewServer(ref.Handler())
	defer func() {
		refSrv.Close()
		_ = ref.Close(context.Background())
	}()
	refDoc, _, code := e2etest.Submit(t, refSrv.URL, v, "segmentation", true)
	if code != http.StatusAccepted {
		t.Fatalf("reference submit: %d", code)
	}
	want := e2etest.PollResult(t, refSrv.URL, refDoc.ResultURL, 30*time.Second)

	// The request the upload decodes to: the truth file carries the manual
	// pose at two decimals.
	manual := v.ManualAnnotation(synth.DefaultAnnotationError(), 1)
	quant := func(f *float64) {
		q, err := strconv.ParseFloat(fmt.Sprintf("%.2f", *f), 64)
		if err != nil {
			t.Fatal(err)
		}
		*f = q
	}
	quant(&manual.X)
	quant(&manual.Y)
	for i := range manual.Rho {
		quant(&manual.Rho[i])
	}
	p, err := jobs.NewAnalysisPayload(jobs.ConfigFingerprint(cfg), core.Request{
		Frames: v.Frames, ManualFirst: manual, IncludeSilhouettes: true,
		Stages: core.OnlyStage(core.StageSegmentation),
	})
	if err != nil {
		t.Fatal(err)
	}
	legacy, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "jobs.journal")
	jrn, err := journal.Open(path, journal.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	const id = "00000000legacy01"
	if err := jrn.Append(jobs.JournalEntry{Op: jobs.OpSubmit, ID: id, At: time.Now(), Payload: legacy}); err != nil {
		t.Fatal(err)
	}
	if err := jrn.Close(); err != nil {
		t.Fatal(err)
	}
	stored, err := os.ReadFile(filepath.Join(path+".blobs", blobName(legacy)))
	if err != nil || !json.Valid(stored) {
		t.Fatalf("the submit blob on disk is not the legacy JSON payload (err %v)", err)
	}

	jrn, err = journal.Open(path, journal.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer jrn.Close()
	s, err := server.NewWithOptions(cfg, nil, server.Options{Workers: 1, QueueSize: 4, ResultTTL: time.Hour, Journal: jrn})
	if err != nil {
		t.Fatalf("replay of a legacy JSON submit: %v", err)
	}
	hs := httptest.NewServer(s.Handler())
	defer func() {
		hs.Close()
		_ = s.Close(context.Background())
	}()
	got := e2etest.PollResult(t, hs.URL, "/v1/jobs/"+id+"/result", 30*time.Second)
	if string(e2etest.StripVolatile(t, got)) != string(e2etest.StripVolatile(t, want)) {
		t.Fatalf("legacy job re-ran to a different document:\n%.300s\nvs\n%.300s", got, want)
	}
	_, raw, code := e2etest.Submit(t, hs.URL, v, "segmentation", true)
	if code != http.StatusOK || string(raw) != string(got) {
		t.Fatalf("upload of the same clip after replay: %d, answered from the replayed result = %v", code, string(raw) == string(got))
	}
	if clips, _ := e2etest.MetricsOf(t, hs.URL); clips != 1 {
		t.Errorf("clips analyzed = %d, want 1 (the replayed job only)", clips)
	}
}

// blobName is the journal's blob file name for data: its SHA-256.
func blobName(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}
