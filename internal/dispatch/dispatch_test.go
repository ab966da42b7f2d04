package dispatch

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"github.com/sljmotion/sljmotion/internal/httpbody"
	"github.com/sljmotion/sljmotion/internal/jobs"
)

func TestConfigValidate(t *testing.T) {
	// An empty node list is valid: an elastic fleet may start with zero
	// members and grow via JoinNode. Submits against it fail with
	// ErrQueueFull until a node joins.
	r, err := New(Config{})
	if err != nil {
		t.Fatalf("New must accept an empty fleet, got %v", err)
	}
	defer r.Close(context.Background())
	if _, err := r.Submit(jobs.Payload{}); !errors.Is(err, jobs.ErrQueueFull) {
		t.Errorf("submit on an empty fleet = %v, want ErrQueueFull", err)
	}
	if _, err := New(Config{Nodes: []string{""}}); err == nil {
		t.Error("New must reject empty node URLs")
	}
}

// TestRingStableRouting pins the consistent-hashing properties: a key's
// primary node is deterministic, every node owns a share of the key space,
// and removing one node only re-homes that node's keys.
func TestRingStableRouting(t *testing.T) {
	urls := []string{"http://a", "http://b", "http://c"}
	r := buildRing(urls, 64)

	hits := make([]int, len(urls))
	const keys = 2000
	for i := 0; i < keys; i++ {
		key := hashString("clip-" + strconv.Itoa(i))
		order := r.walk(key)
		if len(order) != len(urls) {
			t.Fatalf("walk must cover all nodes, got %v", order)
		}
		// Deterministic.
		if again := r.walk(key); again[0] != order[0] {
			t.Fatal("primary node not deterministic")
		}
		hits[order[0]]++
	}
	for n, h := range hits {
		if h < keys/len(urls)/3 {
			t.Errorf("node %d owns %d/%d keys — distribution badly skewed", n, h, keys)
		}
	}

	// Failover stability: skipping the primary (dead node) must fall to the
	// walk's second entry, and keys whose primary is alive are unaffected.
	dead := 0
	for i := 0; i < 200; i++ {
		key := hashString("clip-" + strconv.Itoa(i))
		order := r.walk(key)
		if order[0] == dead && order[1] == dead {
			t.Fatal("failover order repeats the dead node")
		}
		if order[0] != dead {
			// Unaffected key: its primary stays its primary.
			if r.walk(key)[0] != order[0] {
				t.Fatal("live key re-homed by unrelated death")
			}
		}
	}
}

// TestSubmitBusyPropagatesRetryAfter turns a worker's 503 + Retry-After
// into retryable backpressure carrying the node's hint.
func TestSubmitBusyPropagatesRetryAfter(t *testing.T) {
	busy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "7")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, `{"error":"jobs: queue full, retry later"}`)
	}))
	defer busy.Close()

	d, err := New(Config{Nodes: []string{busy.URL}, HealthInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close(context.Background())

	_, err = d.Submit(jobs.Payload{Kind: jobs.KindAnalysis, CacheKey: "ab"})
	if !jobs.Retryable(err) {
		t.Fatalf("busy worker error %v must be retryable", err)
	}
	if got := jobs.RetryAfterHint(err, 1); got != 7 {
		t.Errorf("RetryAfterHint = %d, want the node's 7", got)
	}
	m := d.Metrics()
	if len(m.Nodes) != 1 || m.Nodes[0].Rejected != 1 || m.Rejected != 1 {
		t.Errorf("rejection not counted: %+v", m.Nodes)
	}
}

// TestSubmitFailsOverBusyNode: a saturated primary's 503 must not fail the
// submission while a healthy ring successor sits idle — the payload fails
// over exactly like it does on a transport error, whichever of the two
// nodes the ring picks first.
func TestSubmitFailsOverBusyNode(t *testing.T) {
	busyHits := 0
	busy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		busyHits++
		w.Header().Set("Retry-After", "7")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, `{"error":"jobs: queue full, retry later"}`)
	}))
	defer busy.Close()
	accepted := 0
	idle := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		accepted++
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprintf(w, `{"id":"beef%012d","state":"queued"}`, accepted)
	}))
	defer idle.Close()

	d, err := New(Config{Nodes: []string{busy.URL, idle.URL}, HealthInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close(context.Background())

	// Across many keys some are primarily homed on the busy node (the ring
	// hashes the nodes' random ports, so keep submitting until one is);
	// every submission must still land on the idle successor.
	submitted := 0
	for submitted < 8 || (busyHits == 0 && submitted < 256) {
		if _, err := d.Submit(jobs.Payload{Kind: jobs.KindAnalysis, CacheKey: strconv.Itoa(submitted)}); err != nil {
			t.Fatalf("submit %d failed despite an idle healthy node: %v", submitted, err)
		}
		submitted++
	}
	if accepted != submitted {
		t.Errorf("idle node accepted %d/%d", accepted, submitted)
	}
	if busyHits == 0 {
		t.Error("ring never tried the busy primary — test proves nothing")
	}
	m := d.Metrics()
	for _, n := range m.Nodes {
		if n.URL == busy.URL {
			if !n.Healthy {
				t.Error("busy node must stay healthy (saturated, not dead)")
			}
			if n.Rejected == 0 {
				t.Error("busy node rejections not counted")
			}
		}
	}
}

// TestSubmitAllBusySurfacesSmallestHint: only when every healthy candidate
// rejects does BusyError surface, carrying the smallest positive
// Retry-After across the pool.
func TestSubmitAllBusySurfacesSmallestHint(t *testing.T) {
	mkBusy := func(after string) *httptest.Server {
		return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if after != "" {
				w.Header().Set("Retry-After", after)
			}
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, `{"error":"jobs: queue full, retry later"}`)
		}))
	}
	b1, b2, b3 := mkBusy("9"), mkBusy("3"), mkBusy("")
	defer b1.Close()
	defer b2.Close()
	defer b3.Close()

	d, err := New(Config{Nodes: []string{b1.URL, b2.URL, b3.URL}, HealthInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close(context.Background())

	_, err = d.Submit(jobs.Payload{Kind: jobs.KindAnalysis, CacheKey: "ff"})
	if !jobs.Retryable(err) {
		t.Fatalf("all-busy submit error %v must be retryable", err)
	}
	if got := jobs.RetryAfterHint(err, 0); got != 3 {
		t.Errorf("RetryAfterHint = %d, want the smallest positive hint 3", got)
	}
	if m := d.Metrics(); m.Rejected != 3 {
		t.Errorf("fleet rejections = %d, want one per node", m.Rejected)
	}
}

// TestSubmitFailsOverDeadNode: a transport error on the primary demotes it
// and the payload lands on the next ring node.
func TestSubmitFailsOverDeadNode(t *testing.T) {
	accepted := 0
	live := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		accepted++
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprintln(w, `{"id":"deadbeef00000001","state":"queued"}`)
	}))
	defer live.Close()
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	dead.Close() // immediately unreachable

	d, err := New(Config{Nodes: []string{dead.URL, live.URL}, HealthInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close(context.Background())

	// Submit enough distinct keys that at least one is primarily homed on
	// the dead node; all must succeed via failover.
	for i := 0; i < 8; i++ {
		if _, err := d.Submit(jobs.Payload{Kind: jobs.KindAnalysis, CacheKey: strconv.Itoa(i)}); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if accepted != 8 {
		t.Errorf("live node accepted %d/8", accepted)
	}
	m := d.Metrics()
	var deadM, liveM *jobs.NodeMetrics
	for i := range m.Nodes {
		switch m.Nodes[i].URL {
		case dead.URL:
			deadM = &m.Nodes[i]
		case live.URL:
			liveM = &m.Nodes[i]
		}
	}
	if deadM == nil || liveM == nil {
		t.Fatalf("node metrics missing: %+v", m.Nodes)
	}
	if deadM.Healthy || deadM.LastError == "" {
		t.Errorf("dead node should be demoted with an error: %+v", deadM)
	}
	if liveM.Submitted != 8 {
		t.Errorf("live node submitted = %d, want 8", liveM.Submitted)
	}
	if m.Workers != 1 {
		t.Errorf("healthy workers = %d, want 1", m.Workers)
	}
}

// TestSubmitAllNodesDown answers retryable backpressure, not a hard error.
func TestSubmitAllNodesDown(t *testing.T) {
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	dead.Close()
	d, err := New(Config{Nodes: []string{dead.URL}, HealthInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close(context.Background())
	if _, err := d.Submit(jobs.Payload{Kind: jobs.KindAnalysis}); !jobs.Retryable(err) {
		t.Errorf("all-down submit error %v must be retryable", err)
	}
}

// TestUnknownJobID: ids the dispatcher never routed are ErrNotFound.
func TestUnknownJobID(t *testing.T) {
	live := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	defer live.Close()
	d, err := New(Config{Nodes: []string{live.URL}, HealthInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close(context.Background())
	if _, err := d.Status("deadbeef"); !errors.Is(err, jobs.ErrNotFound) {
		t.Errorf("status of unknown id = %v, want ErrNotFound", err)
	}
	if _, err := d.Result("deadbeef"); !errors.Is(err, jobs.ErrNotFound) {
		t.Errorf("result of unknown id = %v, want ErrNotFound", err)
	}
}

// TestSweepSparesRunningJobs pins the Manager-matching TTL semantics: a
// routed job still running on its worker is never evicted by ResultTTL
// (which counts from the observed terminal state, not from submission).
func TestSweepSparesRunningJobs(t *testing.T) {
	worker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == http.MethodPost:
			w.WriteHeader(http.StatusAccepted)
			fmt.Fprintln(w, `{"id":"feedface00000001","state":"queued"}`)
		default:
			fmt.Fprintln(w, `{"id":"feedface00000001","state":"running","created_at":"2026-01-01T00:00:00Z"}`)
		}
	}))
	defer worker.Close()

	clk := struct {
		mu  sync.Mutex
		now time.Time
	}{now: time.Unix(1_000_000, 0)}
	now := func() time.Time {
		clk.mu.Lock()
		defer clk.mu.Unlock()
		return clk.now
	}
	advance := func(d time.Duration) {
		clk.mu.Lock()
		clk.now = clk.now.Add(d)
		clk.mu.Unlock()
	}

	d, err := New(Config{
		Nodes:          []string{worker.URL},
		HealthInterval: time.Hour,
		ResultTTL:      time.Minute,
		Clock:          now,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close(context.Background())

	id, err := d.Submit(jobs.Payload{Kind: jobs.KindAnalysis})
	if err != nil {
		t.Fatal(err)
	}
	// Far past the TTL while the worker still reports running: the record
	// must survive, so polling keeps working.
	advance(5 * time.Minute)
	st, err := d.Status(id)
	if err != nil {
		t.Fatalf("running job evicted by TTL sweep: %v", err)
	}
	if st.State != jobs.StateRunning {
		t.Errorf("state = %s, want running", st.State)
	}
	// But a record that never terminates is still bounded (8× TTL).
	advance(10 * time.Minute)
	if _, err := d.Status(id); !errors.Is(err, jobs.ErrNotFound) {
		t.Errorf("abandoned record must eventually evict, got %v", err)
	}
}

// TestQueueDepthConvergesWithoutPolling: jobs that finish on their worker
// but are never polled by a client must not inflate queue_depth until the
// record TTL sweep — the health cycle resolves their terminal state.
func TestQueueDepthConvergesWithoutPolling(t *testing.T) {
	var mu sync.Mutex
	states := map[string]string{}
	next := 0
	worker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		switch {
		case r.Method == http.MethodPost:
			next++
			id := fmt.Sprintf("cafe%012d", next)
			// The worker finishes instantly: submitted work is already
			// done by the time anyone could ask.
			states[id] = "done"
			w.WriteHeader(http.StatusAccepted)
			fmt.Fprintf(w, `{"id":%q,"state":"queued"}`, id)
		case r.URL.Path == "/v1/healthz":
			fmt.Fprintln(w, `{"status":"ok"}`)
		default:
			id := r.URL.Path[len("/v1/jobs/"):]
			st, ok := states[id]
			if !ok {
				w.WriteHeader(http.StatusNotFound)
				fmt.Fprintln(w, `{"error":"jobs: no such job"}`)
				return
			}
			fmt.Fprintf(w, `{"id":%q,"state":%q,"created_at":"2026-01-01T00:00:00Z"}`, id, st)
		}
	}))
	defer worker.Close()

	d, err := New(Config{Nodes: []string{worker.URL}, HealthInterval: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close(context.Background())

	for i := 0; i < 3; i++ {
		if _, err := d.Submit(jobs.Payload{Kind: jobs.KindAnalysis, CacheKey: strconv.Itoa(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// No Status/Result calls from here on: only the health cycle may
	// resolve the records.
	deadline := time.Now().Add(5 * time.Second)
	for {
		m := d.Metrics()
		if m.QueueDepth == 0 {
			if m.Completed != 3 {
				t.Errorf("resolved jobs not counted completed: %+v", m)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("queue_depth stuck at %d without client polling", m.QueueDepth)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The resolved jobs show up terminal in the listing too.
	done := d.Jobs(jobs.JobFilter{State: jobs.StateDone})
	if len(done) != 3 {
		t.Errorf("listing shows %d done jobs, want 3", len(done))
	}
}

// TestClosedRejectsSubmit: Close stops intake with ErrClosed.
func TestClosedRejectsSubmit(t *testing.T) {
	live := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	defer live.Close()
	d, err := New(Config{Nodes: []string{live.URL}, HealthInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Submit(jobs.Payload{Kind: jobs.KindAnalysis}); !errors.Is(err, jobs.ErrClosed) {
		t.Errorf("submit after close = %v, want ErrClosed", err)
	}
	// Idempotent.
	if err := d.Close(context.Background()); err != nil {
		t.Errorf("second close: %v", err)
	}
}

// TestResultRefusesOversizedDocument: a worker answer over the front end's
// body limit is refused, not cut short and cached as the document; once
// the worker answers properly, its bytes are served as they are.
func TestResultRefusesOversizedDocument(t *testing.T) {
	const doc = "{\n  \"score\": 7\n}\n"
	var mu sync.Mutex
	oversized := true
	worker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/worker/jobs":
			w.WriteHeader(http.StatusAccepted)
			fmt.Fprint(w, `{"id":"w1"}`)
		case "/v1/jobs/w1/result":
			mu.Lock()
			big := oversized
			mu.Unlock()
			if big {
				// Declares more than the limit; the front end must not
				// read on to find out.
				w.Header().Set("Content-Length", strconv.Itoa(maxWorkerBody+1))
			}
			fmt.Fprint(w, doc)
		default:
			http.NotFound(w, r)
		}
	}))
	defer worker.Close()
	d, err := New(Config{Nodes: []string{worker.URL}, HealthInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close(context.Background())
	id, err := d.Submit(jobs.Payload{Kind: jobs.KindAnalysis, CacheKey: "ab"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Result(id); !errors.Is(err, httpbody.ErrTooLarge) {
		t.Fatalf("oversized result: err = %v, want httpbody.ErrTooLarge", err)
	}
	mu.Lock()
	oversized = false
	mu.Unlock()
	res, err := d.Result(id)
	if err != nil {
		t.Fatalf("result after the worker recovered: %v", err)
	}
	got, ok := res.(*jobs.Document)
	if !ok || string(got.Served()) != doc {
		t.Fatalf("result = %T %v, want the worker's bytes %q", res, res, doc)
	}
	if string(got.Compact()) != `{"score":7}` {
		t.Fatalf("compact form %q", got.Compact())
	}
}
