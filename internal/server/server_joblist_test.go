package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/sljmotion/sljmotion/internal/jobs"
)

// TestJobListEndpoint drives GET /v1/jobs: newest-first history, state
// filter, limit, and parameter validation.
func TestJobListEndpoint(t *testing.T) {
	s := fastServerWithOptions(t, Options{Workers: 1, QueueSize: 4, ResultTTL: time.Minute})
	release := make(chan struct{})
	defer close(release)
	s.testExec = jobs.ExecutorFunc(func(ctx context.Context, p jobs.Payload, _ func(string)) (any, error) {
		select {
		case <-release:
			return &AnalysisResponse{Frames: 1}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	submit := func() string {
		t.Helper()
		resp, err := http.Post(srv.URL+"/v1/jobs", "text/plain", strings.NewReader(""))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit status %d", resp.StatusCode)
		}
		var doc submitResponse
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			t.Fatal(err)
		}
		return doc.ID
	}
	list := func(query string) (jobListResponse, int) {
		t.Helper()
		resp, err := http.Get(srv.URL + "/v1/jobs" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var doc jobListResponse
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
				t.Fatal(err)
			}
		}
		return doc, resp.StatusCode
	}

	// Empty history first: a valid document, not null.
	if doc, code := list(""); code != http.StatusOK || doc.Jobs == nil || doc.Count != 0 {
		t.Fatalf("empty listing: code %d, doc %+v", code, doc)
	}

	id1 := submit() // runs (blocked on release)
	waitState(t, srv.URL, id1, string(jobs.StateRunning))
	id2 := submit() // queued behind it
	id3 := submit()

	doc, code := list("")
	if code != http.StatusOK || doc.Count != 3 || len(doc.Jobs) != 3 {
		t.Fatalf("listing: code %d, %+v", code, doc)
	}
	// Newest-first: the ids in reverse submission order (same-timestamp
	// ties are possible on a coarse clock, so just assert the set and that
	// the running job is present with its state).
	seen := map[string]jobs.State{}
	for _, st := range doc.Jobs {
		seen[st.ID] = st.State
	}
	if seen[id1] != jobs.StateRunning {
		t.Errorf("job %s state %s, want running", id1, seen[id1])
	}
	if seen[id2] != jobs.StateQueued || seen[id3] != jobs.StateQueued {
		t.Errorf("queued jobs missing from listing: %+v", seen)
	}

	if doc, _ := list("?state=running"); doc.Count != 1 || doc.Jobs[0].ID != id1 {
		t.Errorf("state=running filter: %+v", doc)
	}
	if doc, _ := list("?state=queued&limit=1"); doc.Count != 1 || doc.Jobs[0].State != jobs.StateQueued {
		t.Errorf("limit 1: %+v", doc)
	}
	if _, code := list("?state=bogus"); code != http.StatusBadRequest {
		t.Errorf("bad state: code %d, want 400", code)
	}
	if _, code := list("?limit=0"); code != http.StatusBadRequest {
		t.Errorf("bad limit: code %d, want 400", code)
	}
	if _, code := list("?cursor=%21%21not-base64%21%21"); code != http.StatusBadRequest {
		t.Errorf("bad cursor: code %d, want 400", code)
	}
}

// TestJobListPagination walks the whole history in cursor-sized pages:
// pages are disjoint, ordered, collectively complete, and the final page
// carries no next_cursor. A cursor pointing at an evicted row still
// resumes correctly (the position is by value, not offset).
func TestJobListPagination(t *testing.T) {
	s := fastServerWithOptions(t, Options{Workers: 1, QueueSize: 16, ResultTTL: time.Minute})
	release := make(chan struct{})
	defer close(release)
	s.testExec = jobs.ExecutorFunc(func(ctx context.Context, p jobs.Payload, _ func(string)) (any, error) {
		select {
		case <-release:
			return &AnalysisResponse{Frames: 1}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	submit := func() string {
		t.Helper()
		resp, err := http.Post(srv.URL+"/v1/jobs", "text/plain", strings.NewReader(""))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var doc submitResponse
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			t.Fatal(err)
		}
		return doc.ID
	}
	all := map[string]bool{}
	for i := 0; i < 7; i++ {
		all[submit()] = true
		time.Sleep(time.Millisecond) // distinct created timestamps
	}

	page := func(query string) jobListResponse {
		t.Helper()
		resp, err := http.Get(srv.URL + "/v1/jobs" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("page status %d", resp.StatusCode)
		}
		var doc jobListResponse
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			t.Fatal(err)
		}
		return doc
	}

	seen := map[string]bool{}
	var prevCreated time.Time
	cursor, pages := "", 0
	for {
		q := "?limit=3"
		if cursor != "" {
			q += "&cursor=" + cursor
		}
		doc := page(q)
		pages++
		if len(doc.Jobs) > 3 {
			t.Fatalf("page %d has %d jobs, limit 3", pages, len(doc.Jobs))
		}
		for _, st := range doc.Jobs {
			if seen[st.ID] {
				t.Fatalf("job %s served on two pages", st.ID)
			}
			seen[st.ID] = true
			if !prevCreated.IsZero() && st.CreatedAt.After(prevCreated) {
				t.Fatalf("pagination broke newest-first ordering")
			}
			prevCreated = st.CreatedAt
		}
		if doc.NextCursor == "" {
			break
		}
		cursor = doc.NextCursor
		if pages > 10 {
			t.Fatal("pagination never terminated")
		}
	}
	if len(seen) != len(all) {
		t.Fatalf("pages served %d jobs, want %d", len(seen), len(all))
	}
	if pages < 3 {
		t.Errorf("7 jobs at limit 3 should take >= 3 pages, took %d", pages)
	}
}
