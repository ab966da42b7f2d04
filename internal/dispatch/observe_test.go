package dispatch

// Tests for the dispatcher's observability plane: trace propagation
// through the failover-resubmit path, metrics federation over stub
// workers, and the fleet/drain health watchdogs.

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/sljmotion/sljmotion/internal/jobs"
	"github.com/sljmotion/sljmotion/internal/obs"
)

// traceRecordingWorker is a stub worker intake that records the
// Traceparent header of every submit it accepts and answers every status
// poll with "running".
type traceRecordingWorker struct {
	mu           sync.Mutex
	traceparents []string
	srv          *httptest.Server
}

func newTraceRecordingWorker(idPrefix string) *traceRecordingWorker {
	w := &traceRecordingWorker{}
	seq := 0
	w.srv = httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			w.mu.Lock()
			w.traceparents = append(w.traceparents, r.Header.Get(obs.TraceparentHeader))
			seq++
			id := fmt.Sprintf("%s%08d", idPrefix, seq)
			w.mu.Unlock()
			rw.WriteHeader(http.StatusAccepted)
			fmt.Fprintf(rw, `{"id":%q,"state":"queued"}`, id)
			return
		}
		fmt.Fprintln(rw, `{"id":"x","state":"running","created_at":"2026-01-01T00:00:00Z"}`)
	}))
	return w
}

func (w *traceRecordingWorker) recorded() []string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]string(nil), w.traceparents...)
}

// TestFailoverResubmitKeepsTraceID: when the node holding a job dies, the
// recovery resubmit to the ring successor must carry a traceparent under
// the ORIGINAL trace id — a failover must not sever the job's trace.
func TestFailoverResubmitKeepsTraceID(t *testing.T) {
	a := newTraceRecordingWorker("aaaaaaaa")
	b := newTraceRecordingWorker("bbbbbbbb")
	defer a.srv.Close()
	defer b.srv.Close()

	d, err := New(Config{
		Nodes:          []string{a.srv.URL, b.srv.URL},
		HealthInterval: time.Hour,
		Replicate:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close(context.Background())

	parentTrace, parentRoot := obs.NewTrace("client")
	parent := parentRoot.Context()
	id, err := d.SubmitTraced(jobs.Payload{Kind: jobs.KindAnalysis, CacheKey: "failover-trace"}, parent)
	if err != nil {
		t.Fatal(err)
	}

	// Find which stub took the submit, then kill it.
	primary, successor := a, b
	if len(a.recorded()) == 0 {
		primary, successor = b, a
	}
	first := primary.recorded()
	if len(first) != 1 {
		t.Fatalf("primary recorded %d submits, want 1", len(first))
	}
	origSC, ok := obs.ParseTraceparent(first[0])
	if !ok {
		t.Fatalf("original submit traceparent %q does not parse", first[0])
	}
	if origSC.TraceID != parentTrace.TraceID() {
		t.Fatalf("submit trace id %q, want the caller's %q", origSC.TraceID, parentTrace.TraceID())
	}
	primary.srv.Close()

	// The next status poll hits the dead node, demotes it and resubmits to
	// the successor.
	st, err := d.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State.Terminal() {
		t.Fatalf("job marked %s after failover, want still in flight on the successor", st.State)
	}
	resub := successor.recorded()
	if len(resub) != 1 {
		t.Fatalf("successor recorded %d submits, want the one resubmit", len(resub))
	}
	resubSC, ok := obs.ParseTraceparent(resub[0])
	if !ok {
		t.Fatalf("resubmit traceparent %q does not parse", resub[0])
	}
	if resubSC.TraceID != origSC.TraceID {
		t.Errorf("resubmit trace id %q, want the original %q", resubSC.TraceID, origSC.TraceID)
	}
	if resubSC.SpanID == origSC.SpanID {
		t.Error("resubmit reused the submit span id; want a fresh resubmit span under the same trace")
	}

	// The job's own trace shows the failover: a resubmit span naming both
	// nodes.
	doc, err := d.Trace(id)
	if err != nil {
		t.Fatal(err)
	}
	var resubSpan *obs.SpanDoc
	for _, c := range doc.Root.Children {
		if c.Name == "resubmit" {
			resubSpan = c
		}
	}
	if resubSpan == nil {
		t.Fatal("no resubmit span in the job trace after failover")
	}
	if resubSpan.Attrs["was"] != primary.srv.URL || resubSpan.Attrs["node"] != successor.srv.URL {
		t.Errorf("resubmit span attrs %v, want was=%s node=%s", resubSpan.Attrs, primary.srv.URL, successor.srv.URL)
	}
}

// metricsWorker is a stub worker that serves a fixed Prometheus
// exposition alongside the usual intake/status stubs.
func metricsWorker(t *testing.T, jobsSubmitted float64) *httptest.Server {
	t.Helper()
	var sb strings.Builder
	p := obs.NewPromWriter(&sb)
	p.Counter("slj_jobs_submitted_total", "Jobs accepted into the queue.", jobsSubmitted)
	p.Gauge("slj_jobs_queue_depth", "Jobs currently waiting in the queue.", 0)
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	exposition := sb.String()
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.URL.Path == "/v1/metrics":
			w.Header().Set("Content-Type", obs.ContentType)
			fmt.Fprint(w, exposition)
		case r.Method == http.MethodPost:
			w.WriteHeader(http.StatusAccepted)
			fmt.Fprintln(w, `{"id":"feedface00000001","state":"queued"}`)
		default:
			fmt.Fprintln(w, `{"status":"ok"}`)
		}
	}))
}

// TestFederatedMetricsMergesWorkers: the dispatcher scrapes every member
// and serves one lint-clean node-labelled exposition; a dead member is
// reported as a failed scrape, not dropped silently.
func TestFederatedMetricsMergesWorkers(t *testing.T) {
	w1 := metricsWorker(t, 3)
	w2 := metricsWorker(t, 5)
	defer w1.Close()
	defer w2.Close()
	dead := metricsWorker(t, 0)
	dead.Close()

	d, err := New(Config{
		Nodes:          []string{w1.URL, w2.URL, dead.URL},
		HealthInterval: time.Hour, // the sync stale-refresh path does the scraping
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close(context.Background())

	merged, stats, err := d.FederatedMetrics()
	if err != nil {
		t.Fatal(err)
	}
	if stats.NodesScraped != 2 || stats.ScrapeFailures < 1 {
		t.Errorf("federation stats %+v, want 2 scraped and >= 1 failure", stats)
	}

	res := obs.LintExposition(merged, []string{
		"slj_fleet_members", "slj_fleet_scrape_ok", "slj_jobs_submitted_total",
	})
	if len(res.Issues) != 0 {
		t.Fatalf("federated exposition fails lint: %v", res.Issues)
	}
	submitted := map[string]float64{}
	scrapeOK := map[string]float64{}
	for _, s := range res.Samples {
		switch s.Name {
		case "slj_jobs_submitted_total":
			submitted[s.Labels["node"]] = s.Value
		case "slj_fleet_scrape_ok":
			scrapeOK[s.Labels["node"]] = s.Value
		case "slj_fleet_members":
			if s.Value != 3 {
				t.Errorf("slj_fleet_members = %v, want 3", s.Value)
			}
		}
	}
	if submitted[w1.URL] != 3 || submitted[w2.URL] != 5 {
		t.Errorf("per-node submitted %v, want %s=3 %s=5", submitted, w1.URL, w2.URL)
	}
	if scrapeOK[w1.URL] != 1 || scrapeOK[w2.URL] != 1 || scrapeOK[dead.URL] != 0 {
		t.Errorf("scrape_ok %v, want live nodes 1 and the dead node 0", scrapeOK)
	}

	// The cache-only stats view must agree without re-scraping.
	if cached := d.FederationStats(); cached.NodesScraped != stats.NodesScraped {
		t.Errorf("FederationStats() = %+v, want the cached %+v", cached, stats)
	}
}

// TestDispatchComponentHealth: the "dispatch" component degrades when the
// last healthy node is demoted.
func TestDispatchComponentHealth(t *testing.T) {
	dead := metricsWorker(t, 0)
	dead.Close()
	d, err := New(Config{Nodes: []string{dead.URL}, HealthInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close(context.Background())

	if h := d.ComponentHealth()["dispatch"]; h.Status != jobs.HealthOK {
		t.Fatalf("dispatch health before any traffic = %+v, want ok (unprobed nodes start healthy)", h)
	}
	// A failed submit demotes the only node.
	if _, err := d.Submit(jobs.Payload{Kind: jobs.KindAnalysis}); err == nil {
		t.Fatal("submit to a dead fleet succeeded")
	}
	h := d.ComponentHealth()["dispatch"]
	if h.Status != jobs.HealthDegraded {
		t.Fatalf("dispatch health with every node demoted = %+v, want degraded", h)
	}
}

// TestDrainStuckComponentHealth: a draining node whose pending count has
// not moved past the threshold flips the "drain" component.
func TestDrainStuckComponentHealth(t *testing.T) {
	// Workers that accept jobs and report them running forever: a drain of
	// a loaded node can never finish.
	mkWorker := func(idPrefix string) *httptest.Server {
		seq := 0
		var mu sync.Mutex
		return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost {
				mu.Lock()
				seq++
				id := fmt.Sprintf("%s%08d", idPrefix, seq)
				mu.Unlock()
				w.WriteHeader(http.StatusAccepted)
				fmt.Fprintf(w, `{"id":%q,"state":"queued"}`, id)
				return
			}
			fmt.Fprintln(w, `{"id":"x","state":"running","created_at":"2026-01-01T00:00:00Z"}`)
		}))
	}
	wa := mkWorker("aaaaaaaa")
	wb := mkWorker("bbbbbbbb")
	defer wa.Close()
	defer wb.Close()

	clk := struct {
		mu  sync.Mutex
		now time.Time
	}{now: time.Unix(1_000_000, 0)}
	now := func() time.Time {
		clk.mu.Lock()
		defer clk.mu.Unlock()
		return clk.now
	}
	advance := func(dur time.Duration) {
		clk.mu.Lock()
		clk.now = clk.now.Add(dur)
		clk.mu.Unlock()
	}

	d, err := New(Config{
		Nodes:          []string{wa.URL, wb.URL},
		HealthInterval: time.Hour,
		Clock:          now,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close(context.Background())

	// Spread keys so both nodes hold pending jobs.
	for i := 0; i < 8; i++ {
		if _, err := d.Submit(jobs.Payload{Kind: jobs.KindAnalysis, CacheKey: strconv.Itoa(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Drain a node that actually holds pending work.
	var drained string
	for _, n := range d.Fleet().Nodes {
		if n.Pending > 0 {
			drained = n.URL
			break
		}
	}
	if drained == "" {
		t.Fatal("no node with pending jobs to drain")
	}
	if _, err := d.DrainNode(drained); err != nil {
		t.Fatal(err)
	}

	if h := d.ComponentHealth()["drain"]; h.Status != jobs.HealthOK {
		t.Fatalf("drain health inside the threshold = %+v, want ok", h)
	}
	advance(drainStuckWindow + time.Minute)
	h := d.ComponentHealth()["drain"]
	if h.Status != jobs.HealthDegraded {
		t.Fatalf("drain health past the threshold = %+v, want degraded", h)
	}
	if !strings.Contains(h.Reason, drained) {
		t.Errorf("degraded reason %q does not name the stuck node %s", h.Reason, drained)
	}
}
