// Fleet observability end-to-end tests: the federated cluster scrape at
// GET /v1/fleet/metrics passes the conformance lint with every member
// labelled, the /v1/fleet rollup carries the federation section,
// and the deep-health document degrades componentwise under an induced
// queue stall while the HTTP status stays 200.
package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/sljmotion/sljmotion/internal/e2etest"
	"github.com/sljmotion/sljmotion/internal/jobs"
	"github.com/sljmotion/sljmotion/internal/obs"
	"github.com/sljmotion/sljmotion/internal/synth"
)

func TestFleetMetricsFederationConformance(t *testing.T) {
	_, w1hs := fleetWorker(t)
	_, w2hs := fleetWorker(t)
	// An hour-long health interval forces FederatedMetrics through its
	// synchronous stale-refresh path — federation must not depend on the
	// background loop having ticked.
	_, front := fleetFront(t, false, time.Hour, w1hs.URL, w2hs.URL)

	// One finished job gives the workers real histogram samples.
	v, err := synth.Generate(synth.DefaultJumpParams())
	if err != nil {
		t.Fatal(err)
	}
	doc, raw, code := e2etest.Submit(t, front.URL, v, "segmentation", true)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d: %s", code, raw)
	}
	e2etest.PollResult(t, front.URL, doc.ResultURL, 30*time.Second)

	resp, err := http.Get(front.URL + "/v1/fleet/metrics")
	if err != nil {
		t.Fatal(err)
	}
	merged, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/fleet/metrics: %d: %s", resp.StatusCode, merged)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.ContentType {
		t.Errorf("content type %q, want %q", ct, obs.ContentType)
	}

	// The acceptance bound: the merged cluster scrape obeys the same
	// conformance grammar as a single node's, and carries the
	// component-health family from every member.
	res := obs.LintExposition(merged, []string{
		"slj_fleet_members", "slj_fleet_scrape_ok",
		"slj_jobs_submitted_total", "slj_job_run_seconds",
		"slj_health_component_ok",
	})
	if len(res.Issues) != 0 {
		t.Fatalf("federated scrape fails the conformance lint:\n%s", strings.Join(res.Issues, "\n"))
	}

	nodesSeen := map[string]bool{}
	scrapeOK := map[string]float64{}
	healthNodes := map[string]bool{}
	for _, s := range res.Samples {
		if n := s.Labels["node"]; n != "" {
			nodesSeen[n] = true
		}
		switch s.Name {
		case "slj_fleet_members":
			if s.Value != 2 {
				t.Errorf("slj_fleet_members = %v, want 2", s.Value)
			}
		case "slj_fleet_scrape_ok":
			scrapeOK[s.Labels["node"]] = s.Value
		case "slj_health_component_ok":
			healthNodes[s.Labels["node"]] = true
		}
	}
	for _, u := range []string{w1hs.URL, w2hs.URL} {
		if !nodesSeen[u] {
			t.Errorf("member %s absent from the federated scrape", u)
		}
		if scrapeOK[u] != 1 {
			t.Errorf("scrape_ok[%s] = %v, want 1", u, scrapeOK[u])
		}
		if !healthNodes[u] {
			t.Errorf("member %s contributes no component-health gauge", u)
		}
	}

	// The /v1/fleet rollup gains the federation section beside the
	// membership view it always served.
	resp, err = http.Get(front.URL + "/v1/fleet")
	if err != nil {
		t.Fatal(err)
	}
	var fleet struct {
		Epoch *uint64 `json:"epoch"`
		Nodes []struct {
			URL string `json:"url"`
		} `json:"nodes"`
		Federation *struct {
			NodesScraped int `json:"nodes_scraped"`
		} `json:"federation"`
	}
	err = json.NewDecoder(resp.Body).Decode(&fleet)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if fleet.Epoch == nil || len(fleet.Nodes) != 2 {
		t.Errorf("fleet rollup epoch/nodes = %v/%d, want both members", fleet.Epoch, len(fleet.Nodes))
	}
	if fleet.Federation == nil {
		t.Error("fleet rollup has no federation section")
	} else if fleet.Federation.NodesScraped != 2 {
		t.Errorf("federation.nodes_scraped = %d, want 2", fleet.Federation.NodesScraped)
	}
}

// healthzDoc fetches and decodes the deep-health document, asserting the
// liveness contract: HTTP 200 regardless of the verdict.
func healthzDoc(t *testing.T, base string) (status string, components map[string]jobs.ComponentHealth) {
	t.Helper()
	resp, err := http.Get(base + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/healthz: %d, want 200 even when degraded", resp.StatusCode)
	}
	var doc struct {
		Status     string                          `json:"status"`
		Components map[string]jobs.ComponentHealth `json:"components"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	return doc.Status, doc.Components
}

func TestHealthzDegradesOnQueueStall(t *testing.T) {
	// A single wedged worker: the first job blocks it forever, the second
	// sits queued past the stall threshold.
	release := make(chan struct{})
	mgr, err := jobs.New(jobs.Config{Workers: 1, QueueSize: 4, StallAfter: 150 * time.Millisecond},
		jobs.ExecutorFunc(func(ctx context.Context, _ jobs.Payload, _ func(string)) (any, error) {
			select {
			case <-release:
				return 1, nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	defer close(release)

	opts := DefaultOptions()
	opts.Dispatcher = mgr
	s := fastServerWithOptions(t, opts)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	status, components := healthzDoc(t, srv.URL)
	if status != jobs.HealthOK {
		t.Fatalf("fresh server healthz status %q, want ok (components %+v)", status, components)
	}
	if c, ok := components["queue"]; !ok || c.Status != jobs.HealthOK {
		t.Fatalf("queue component on a fresh server = %+v, want ok", components)
	}

	if _, err := mgr.Submit(jobs.Payload{Kind: jobs.KindAnalysis}); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Submit(jobs.Payload{Kind: jobs.KindAnalysis}); err != nil {
		t.Fatal(err)
	}

	// The stalled queue must flip exactly the queue component, and with it
	// the overall verdict — while the route keeps answering 200.
	deadline := time.Now().Add(5 * time.Second)
	for {
		status, components = healthzDoc(t, srv.URL)
		if q := components["queue"]; q.Status == jobs.HealthDegraded {
			if status != jobs.HealthDegraded {
				t.Errorf("overall status %q with a degraded queue component, want degraded", status)
			}
			if !strings.Contains(q.Reason, "stalled") {
				t.Errorf("queue reason %q does not mention the stall", q.Reason)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("queue component never degraded; last doc: status=%q components=%+v", status, components)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Releasing the worker drains the queue and the verdict recovers.
	release <- struct{}{}
	release <- struct{}{}
	deadline = time.Now().Add(5 * time.Second)
	for {
		status, components = healthzDoc(t, srv.URL)
		if status == jobs.HealthOK && components["queue"].Status == jobs.HealthOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("healthz never recovered; last doc: status=%q components=%+v", status, components)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
