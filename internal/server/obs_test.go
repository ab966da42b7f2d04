package server

// Tests for the observability surface: the /v1/jobs/{id}/trace span tree,
// the Prometheus text exposition (a conformance lint over the scrape), and
// the byte-compatibility pin of the default JSON /v1/metrics document.

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"testing"
	"time"

	"github.com/sljmotion/sljmotion/internal/e2etest"
	"github.com/sljmotion/sljmotion/internal/obs"
	"github.com/sljmotion/sljmotion/internal/pose"
	"github.com/sljmotion/sljmotion/internal/synth"
)

// metricsJSONGolden pins the exact bytes of GET /v1/metrics for a fresh
// server with Workers:2 QueueSize:4 (result TTL 15m). The JSON
// document is the scrape format of record since PR 2; the Prometheus
// exposition rides on ?format=prometheus only, and this golden is the
// regression tripwire for any accidental change to the default bytes —
// field renames, ordering, indentation, new keys.
const metricsJSONGolden = `{
  "artifacts": {
    "blobs": 0,
    "bytes": 0,
    "capacity_blobs": 256,
    "capacity_bytes": 536870912,
    "hits": 0,
    "misses": 0,
    "stored": 0,
    "evicted_ttl": 0,
    "evicted_lru": 0,
    "spill_writes": 0,
    "spill_reads": 0,
    "pulls": 0,
    "pull_failures": 0
  },
  "cache": {
    "entries": 0,
    "hits": 0,
    "misses": 0,
    "stored": 0
  },
  "clip_sessions": {
    "open": 0,
    "opened": 0,
    "sealed": 0,
    "expired": 0,
    "frames_ingested": 0
  },
  "clips_analyzed": 0,
  "ga": {
    "fitness_memo_hits": 0,
    "fitness_memo_misses": 0
  },
  "jobs": {
    "workers": 2,
    "queue_capacity": 4,
    "queue_depth": 0,
    "running": 0,
    "jobs_submitted": 0,
    "jobs_rejected": 0,
    "jobs_completed": 0,
    "jobs_failed": 0,
    "jobs_evicted": 0,
    "run_latency": {
      "count": 0,
      "mean_ms": 0,
      "p50_ms": 0,
      "p95_ms": 0,
      "max_ms": 0
    },
    "queue_wait": {
      "count": 0,
      "mean_ms": 0,
      "p50_ms": 0,
      "p95_ms": 0,
      "max_ms": 0
    }
  }
}
`

func TestMetricsJSONByteCompat(t *testing.T) {
	// The GA counters are process-wide; zero them so analyses run by
	// earlier tests in this package cannot bleed into the pinned document.
	pose.ResetGAMetrics()
	s := fastServerWithOptions(t, Options{
		Workers: 2, QueueSize: 4, ResultTTL: 15 * time.Minute,
	})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	// No format parameter and format=json must serve identical bytes: the
	// parameter only exists to divert to the Prometheus exposition.
	for _, q := range []string{"", "?format=json"} {
		resp, err := http.Get(srv.URL + "/v1/metrics" + q)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /v1/metrics%s: %d", q, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("content type %q, want application/json", ct)
		}
		if string(raw) != metricsJSONGolden {
			t.Errorf("JSON metrics document diverged from the pinned bytes (query %q):\ngot:\n%s\nwant:\n%s", q, raw, metricsJSONGolden)
		}
	}

	resp, err := http.Get(srv.URL + "/v1/metrics?format=xml")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown format answered %d, want 400", resp.StatusCode)
	}
}

var hexID = regexp.MustCompile(`^[0-9a-f]+$`)

// walkSpans visits every span of the tree depth-first.
func walkSpans(s *obs.SpanDoc, fn func(*obs.SpanDoc)) {
	if s == nil {
		return
	}
	fn(s)
	for _, c := range s.Children {
		walkSpans(c, fn)
	}
}

// childNamed returns the first direct child with the given name.
func childNamed(s *obs.SpanDoc, name string) *obs.SpanDoc {
	for _, c := range s.Children {
		if c.Name == name {
			return c
		}
	}
	return nil
}

func TestJobTraceRoute(t *testing.T) {
	srv := httptest.NewServer(fastServer(t).Handler())
	defer srv.Close()
	v, err := synth.Generate(synth.DefaultJumpParams())
	if err != nil {
		t.Fatal(err)
	}

	doc, raw, code := e2etest.Submit(t, srv.URL, v, "segmentation", true)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d: %s", code, raw)
	}
	e2etest.PollResult(t, srv.URL, doc.ResultURL, 30*time.Second)

	resp, err := http.Get(srv.URL + "/v1/jobs/" + doc.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace route: %d", resp.StatusCode)
	}
	var trace obs.TraceDoc
	if err := json.NewDecoder(resp.Body).Decode(&trace); err != nil {
		t.Fatal(err)
	}

	if trace.JobID != doc.ID {
		t.Errorf("trace job_id = %q, want %q", trace.JobID, doc.ID)
	}
	if len(trace.TraceID) != 32 || !hexID.MatchString(trace.TraceID) {
		t.Errorf("trace_id %q is not 32 hex chars", trace.TraceID)
	}
	root := trace.Root
	if root == nil || root.Name != "job" {
		t.Fatalf("root span = %+v, want name \"job\"", root)
	}

	// Structural invariants: ids well-formed, parent links coherent, and —
	// the job being done — no span still in flight.
	walkSpans(root, func(s *obs.SpanDoc) {
		if len(s.SpanID) != 16 || !hexID.MatchString(s.SpanID) {
			t.Errorf("span %q id %q is not 16 hex chars", s.Name, s.SpanID)
		}
		if s.InFlight {
			t.Errorf("span %q still in flight on a finished job", s.Name)
		}
		for _, c := range s.Children {
			if c.ParentID != s.SpanID {
				t.Errorf("span %q parent_id %q, want %q", c.Name, c.ParentID, s.SpanID)
			}
			if c.StartUnixNS < s.StartUnixNS {
				t.Errorf("span %q starts before its parent %q", c.Name, s.Name)
			}
		}
	})

	wait := childNamed(root, "queue_wait")
	run := childNamed(root, "run")
	publish := childNamed(root, "publish")
	if wait == nil || run == nil || publish == nil {
		t.Fatalf("root children %v, want queue_wait + run + publish", spanNames(root.Children))
	}
	// No journal is configured, so no append span may appear.
	if childNamed(root, "journal_append") != nil {
		t.Error("journal_append span present without a journal")
	}
	if childNamed(run, "segmentation") == nil {
		t.Errorf("run children %v, want the segmentation stage span", spanNames(run.Children))
	}

	// The acceptance bound: the root covers exactly the job's lifecycle,
	// so its duration matches the status document's queue_wait_ms + run_ms
	// (plus the publish tail) within scheduling tolerance.
	var st struct {
		QueueWaitMS float64 `json:"queue_wait_ms"`
		RunMS       float64 `json:"run_ms"`
	}
	sresp, err := http.Get(srv.URL + "/v1/jobs/" + doc.ID)
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(sresp.Body).Decode(&st)
	sresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	sum := st.QueueWaitMS + st.RunMS
	if root.DurationMS < sum-1 || root.DurationMS > sum+500 {
		t.Errorf("root duration %.2fms vs queue_wait+run %.2fms: outside [-1ms, +500ms]", root.DurationMS, sum)
	}
	if run.DurationMS > root.DurationMS || wait.DurationMS > root.DurationMS {
		t.Errorf("child durations (wait %.2f, run %.2f) exceed the root's %.2f", wait.DurationMS, run.DurationMS, root.DurationMS)
	}

	// Unknown ids answer 404 like every other job route.
	nresp, err := http.Get(srv.URL + "/v1/jobs/nope/trace")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, nresp.Body)
	nresp.Body.Close()
	if nresp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job trace: %d, want 404", nresp.StatusCode)
	}
}

func spanNames(spans []*obs.SpanDoc) []string {
	var names []string
	for _, s := range spans {
		names = append(names, s.Name)
	}
	return names
}

// TestPrometheusConformance lints the whole scrape against the text
// exposition format via the shared obs.LintExposition grammar (the same
// lint CI runs over the federated fleet scrape): well-formed names and
// labels, HELP/TYPE exactly once per family and before its samples,
// counters named *_total, histogram buckets cumulative and monotone with
// the +Inf bucket equal to _count, and every promised family present —
// including the component-health gauges added with the fleet
// observability plane.
func TestPrometheusConformance(t *testing.T) {
	srv := httptest.NewServer(fastServer(t).Handler())
	defer srv.Close()
	v, err := synth.Generate(synth.DefaultJumpParams())
	if err != nil {
		t.Fatal(err)
	}
	// One finished job populates the queue-wait, run and stage histograms.
	e2etest.SubmitAndFetch(t, srv.URL, v)

	resp, err := http.Get(srv.URL + "/v1/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scrape: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.ContentType {
		t.Errorf("content type %q, want %q", ct, obs.ContentType)
	}

	res := obs.LintExposition(raw, []string{
		"slj_clips_analyzed_total", "slj_jobs_submitted_total", "slj_jobs_queue_depth",
		"slj_cache_hits_total", "slj_cache_misses_total", "slj_events_dropped_total",
		"slj_job_queue_wait_seconds", "slj_job_run_seconds", "slj_stage_seconds",
		"slj_runtime_goroutines", "slj_runtime_gc_cycles_total",
		"slj_artifacts_blobs", "slj_artifacts_bytes", "slj_artifact_hits_total",
		"slj_artifact_misses_total", "slj_artifact_evicted_total",
		"slj_artifact_pulls_total", "slj_artifact_pull_failures_total",
		"slj_clip_sessions_open", "slj_clip_sessions_sealed_total",
		"slj_clip_frames_ingested_total",
		"slj_dispatch_failovers_total", "slj_dispatch_membership_epoch",
		"slj_health_component_ok",
	})
	for _, issue := range res.Issues {
		t.Error(issue)
	}

	// Beyond the grammar: the scrape must carry histogram series and the
	// run-latency histogram must have recorded the finished job above.
	histograms := false
	for _, typ := range res.Types {
		if typ == "histogram" {
			histograms = true
		}
	}
	if !histograms {
		t.Fatal("no histogram series in the scrape")
	}
	runObserved := false
	for _, s := range res.Samples {
		if s.Name == "slj_job_run_seconds_count" && s.Value >= 1 {
			runObserved = true
		}
	}
	if !runObserved {
		t.Error("slj_job_run_seconds has no observations after a finished job")
	}

	// Every component-health gauge must read ok (1) on a fresh single node
	// with nothing stalled.
	for _, s := range res.Samples {
		if s.Name == "slj_health_component_ok" && s.Value != 1 {
			t.Errorf("component %q reads %v, want 1 (ok) on a healthy server", s.Labels["component"], s.Value)
		}
	}
}
