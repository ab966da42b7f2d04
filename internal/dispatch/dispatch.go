// Package dispatch is the remote HTTP fan-out implementation of the
// jobs.Dispatcher seam: instead of an in-process worker pool, each
// submitted payload is routed to one of N slj-serve worker nodes (started
// with -worker) and executed there, with the submit/poll lifecycle, the
// error contract and the /metrics schema unchanged from the in-process
// Manager.
//
// Routing is a consistent-hash ring keyed on the payload's cache key — the
// same SHA-256 content address the result cache uses — so an identical
// clip always lands on the node that already cached its result and is
// answered without re-running the pipeline. Node health is probed in the
// background; a dead node's keys fall clockwise to its ring successors
// (failover re-hash) while every other key keeps its node and its cache.
//
// Worker protocol (see internal/server's worker intake):
//
//	POST {node}/v1/worker/jobs      the payload as JSON
//	GET  {node}/v1/jobs/{id}        lifecycle polling
//	GET  {node}/v1/jobs/{id}/result the finished response document
//	GET  {node}/v1/healthz          liveness probing
//
// Backpressure propagates end to end: a worker's 503 surfaces as
// jobs.ErrQueueFull with the node's Retry-After carried through
// jobs.RetryAfterHint.
package dispatch

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/sljmotion/sljmotion/internal/httpbody"
	"github.com/sljmotion/sljmotion/internal/jobs"
	"github.com/sljmotion/sljmotion/internal/obs"
)

// roundtripSeconds is the submit→terminal round-trip latency histogram of
// dispatched jobs, the bucketed companion of the rtt ring behind
// /metrics. Bucketed histograms merge correctly across dispatch nodes
// where percentile snapshots cannot.
var roundtripSeconds = obs.Default.Histogram("slj_dispatch_roundtrip_seconds",
	"Dispatch submit to observed-terminal round-trip time, in seconds.", obs.DefBuckets)

// Config parameterises a Remote dispatcher.
type Config struct {
	// Nodes are the worker base URLs (e.g. "http://10.0.0.7:8080").
	Nodes []string
	// Client overrides the HTTP client (tests, custom timeouts).
	Client *http.Client
	// HealthInterval is the liveness probe period; dead nodes rejoin the
	// ring at the first probe that succeeds again.
	HealthInterval time.Duration
	// Replicas is the number of virtual ring points per node.
	Replicas int
	// ResultTTL evicts the dispatcher's local job records (node mapping,
	// locally held results) this long after creation, mirroring the
	// Manager's result TTL.
	ResultTTL time.Duration
	// Clock overrides time.Now, a test seam for TTL eviction.
	Clock func() time.Time
	// Log receives structured dispatch logs (routing, demotions, terminal
	// observations), correlated by job_id and trace_id. Nil discards.
	Log *slog.Logger
	// ArtifactOrigin is this front end's public base URL (e.g.
	// "http://10.0.0.1:8080"), stamped into by-reference payloads so worker
	// nodes know where to pull artifacts they do not hold. Empty leaves
	// payloads unstamped; workers can then only serve references they have
	// already cached.
	ArtifactOrigin string
	// Replicate turns on successor replication and failover recovery: each
	// payload is stamped with its key's ring successor (the worker pushes
	// its finished result there), the dispatcher retains the
	// payload until the job is terminal, and a job stranded on a lost node
	// is resubmitted to the next ring candidate — where the replicated
	// cache answers without recomputing. Costs payload retention memory for
	// the lifetime of each in-flight job.
	Replicate bool
}

// DefaultConfig returns a small-deployment default.
func DefaultConfig() Config {
	return Config{
		HealthInterval: 2 * time.Second,
		Replicas:       64,
		ResultTTL:      15 * time.Minute,
	}
}

// Validate rejects unusable configurations. An empty node list is valid:
// the fleet starts empty and workers join at runtime via JoinNode —
// submissions before the first join fail with jobs.ErrQueueFull.
func (c Config) Validate() error {
	for _, n := range c.Nodes {
		if n == "" {
			return errors.New("dispatch: empty node URL")
		}
	}
	if c.HealthInterval < 0 || c.Replicas < 0 || c.ResultTTL < 0 {
		return errors.New("dispatch: negative durations/counts")
	}
	return nil
}

// BusyError is a worker node's backpressure answer. It unwraps to
// jobs.ErrQueueFull (so jobs.Retryable reports true) and carries the
// node's Retry-After hint for jobs.RetryAfterHint.
type BusyError struct {
	Node  string
	After int // seconds; 0 = no hint
}

func (e *BusyError) Error() string {
	return fmt.Sprintf("dispatch: worker %s busy: %v", e.Node, jobs.ErrQueueFull)
}

// Unwrap makes the error retryable.
func (e *BusyError) Unwrap() error { return jobs.ErrQueueFull }

// RetryAfterSeconds exposes the propagated Retry-After hint.
func (e *BusyError) RetryAfterSeconds() int { return e.After }

// node is one worker's live state and counters; guarded by Remote.mu. The
// pointer identity is stable across membership epochs — views share node
// pointers with Remote.nodes, so counters and health survive ring rebuilds.
type node struct {
	url      string
	healthy  bool
	weight   int  // ring share multiplier (vnodes = Replicas × weight)
	draining bool // out of the ring; running jobs finishing
	// drainPending/drainChanged track drain progress for the drain-stuck
	// watchdog: the pending count when it last moved, and when that was.
	drainPending int
	drainChanged time.Time
	lastErr      string
	submitted    uint64
	rejected     uint64
	completed    uint64
	failed       uint64
	cacheHits    uint64
}

// entry is the dispatcher's local record of one routed job.
type entry struct {
	node *node
	// workerID is the job's id on its current worker node. It starts equal
	// to the public id and diverges after a failover resubmission: the
	// public id is this dispatcher's stable handle, workerID addresses the
	// node that is actually running the job now.
	workerID string
	// hash is the payload's ring placement, kept for failover re-walks.
	hash     uint64
	created  time.Time
	done     bool      // terminal state observed (counters recorded)
	finished time.Time // when the terminal state was observed
	status   *jobs.Status
	result   *jobs.Document // response document, once known
	err      error          // terminal failure, once known
	// payload is retained until terminal when Config.Replicate is on, so a
	// job stranded on a dead node can be resubmitted to the ring successor.
	payload    *jobs.Payload
	resubmits  int
	recovering bool // a failover resubmission is in flight
	// local marks a job born done from a node's result cache: the id
	// exists only in this dispatcher (the node never enqueued a job), so
	// streams are synthesized locally instead of proxied.
	local bool
	// trace is the dispatcher's span tree for the job (root "dispatch",
	// one "submit" child per node attempt); the worker's own tree is
	// grafted under the successful submit span by Trace. Evicted with the
	// record.
	trace *obs.Trace
	root  *obs.Span
}

// Remote fans payloads out to worker nodes; it implements jobs.Dispatcher.
type Remote struct {
	cfg    Config
	client *http.Client
	// streamClient shares the transport but carries no overall timeout:
	// an event stream legitimately outlives any request deadline.
	streamClient *http.Client
	clock        func() time.Time
	log          *slog.Logger

	mu sync.Mutex
	// nodes is the full membership, draining members included; view is the
	// copy-on-write routing snapshot over the routable subset, rebuilt (and
	// epoch-bumped) on every membership mutation.
	nodes     []*node
	view      *view
	epoch     uint64
	failovers uint64
	entries   map[string]*entry
	closed    bool
	evicted   uint64
	lastSweep time.Time
	rtt       []time.Duration // submit→terminal round trips, ring buffer
	rttIdx    int

	// scrapeMu guards the metrics-federation cache, separate from mu so
	// serving the merged exposition never contends with routing.
	scrapeMu       sync.Mutex
	scrapes        map[string]memberScrape
	scrapeFailures uint64
	lastScrape     time.Time

	stop   chan struct{}
	health sync.WaitGroup
}

const rttSample = 256

// Remote is the fleet-managing Dispatcher.
var _ jobs.Fleet = (*Remote)(nil)

// New builds a dispatcher over the configured worker pool and starts its
// health prober. Nodes start healthy (optimistically routable) and are
// demoted by the first failed probe or transport error.
func New(cfg Config) (*Remote, error) {
	def := DefaultConfig()
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: 30 * time.Second}
	}
	if cfg.HealthInterval == 0 {
		cfg.HealthInterval = def.HealthInterval
	}
	if cfg.Replicas == 0 {
		cfg.Replicas = def.Replicas
	}
	if cfg.ResultTTL == 0 {
		cfg.ResultTTL = def.ResultTTL
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	lg := cfg.Log
	if lg == nil {
		lg = obs.Discard()
	}
	r := &Remote{
		cfg:          cfg,
		client:       cfg.Client,
		streamClient: &http.Client{Transport: cfg.Client.Transport},
		clock:        cfg.Clock,
		log:          lg,
		entries:      make(map[string]*entry),
		stop:         make(chan struct{}),
	}
	for _, u := range cfg.Nodes {
		r.nodes = append(r.nodes, &node{url: strings.TrimRight(u, "/"), healthy: true, weight: 1})
	}
	r.rebuildLocked() // epoch 1: the construction-time membership
	r.health.Add(1)
	go r.runHealth()
	return r, nil
}

// Submit routes one payload to its ring node and posts it. Dead or
// unreachable nodes are skipped clockwise, and so are saturated ones: a
// 503 from the primary falls through to the healthy ring successors the
// same way a transport failure does — a busy node must not fail a
// submission while the rest of the pool sits idle. Only when every
// healthy candidate rejected does BusyError surface, carrying the
// smallest Retry-After hint seen across the pool. A node answering from
// its result cache completes the job instantly without enqueueing
// anything.
func (r *Remote) Submit(p jobs.Payload) (string, error) {
	return r.SubmitTraced(p, obs.SpanContext{})
}

// SubmitTraced is Submit under a caller-supplied parent span context; the
// zero SpanContext starts a fresh trace. The dispatch trace records one
// "submit" span per node attempt, and the traceparent of the successful
// attempt is what the worker node's own job trace grafts under.
func (r *Remote) SubmitTraced(p jobs.Payload, parent obs.SpanContext) (string, error) {
	hash := r.placementHash(p)
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return "", jobs.ErrClosed
	}
	r.sweepLocked(r.clock())
	v := r.view
	r.mu.Unlock()
	order := v.order(hash)

	byRef := p.FramesRef != ""
	if byRef && p.ArtifactOrigin == "" {
		// Tell the worker where to pull the frames artifact if it lacks it.
		p.ArtifactOrigin = r.cfg.ArtifactOrigin
	}
	body, err := json.Marshal(p)
	if err != nil {
		return "", fmt.Errorf("dispatch: encode payload: %w", err)
	}
	// The trace is kept only if a node accepts the payload; a fully
	// rejected submission has no job record to hang it on.
	tr, root := obs.NewTraceFrom(parent, "dispatch")
	var lastTransport error
	var busy *BusyError
	for i, n := range order {
		r.mu.Lock()
		healthy := n.healthy
		r.mu.Unlock()
		if !healthy {
			continue
		}
		if r.cfg.Replicate {
			// Stamp this candidate's ring successor as the replica target
			// (the node failover would re-hash to), and keep the payload on
			// the entry so a lost node can be resubmitted there.
			p.ReplicaTarget = r.successorURL(order, i)
			if body, err = json.Marshal(p); err != nil {
				return "", fmt.Errorf("dispatch: encode payload: %w", err)
			}
		}
		att := root.Start("submit")
		att.SetAttr("node", n.url)
		id, err := r.submitTo(n, submission{body: body, byRef: byRef, hash: hash, payload: &p}, tr, root, att)
		att.End()
		var transport *transportError
		var be *BusyError
		switch {
		case errors.As(err, &transport):
			// Node unreachable: demote it and re-hash clockwise.
			att.SetAttr("error", transport.err.Error())
			r.demote(n, transport.err)
			lastTransport = transport.err
			continue
		case errors.As(err, &be):
			// Saturated but alive: keep the node in the ring and try its
			// successors; remember the smallest positive retry hint.
			att.SetAttr("error", "busy")
			if busy == nil || (be.After > 0 && (busy.After == 0 || be.After < busy.After)) {
				busy = be
			}
			continue
		}
		if err == nil {
			if i > 0 {
				// A non-primary candidate took the key: failover re-hash.
				r.mu.Lock()
				r.failovers++
				r.mu.Unlock()
			}
			r.log.Debug("dispatch routed", "job_id", id, "node", n.url, "trace_id", tr.TraceID())
		}
		return id, err
	}
	if busy != nil {
		return "", busy
	}
	if lastTransport != nil {
		return "", fmt.Errorf("dispatch: all worker nodes unreachable (last: %v): %w",
			lastTransport, jobs.ErrQueueFull)
	}
	return "", fmt.Errorf("dispatch: no healthy worker nodes: %w", jobs.ErrQueueFull)
}

// transportError marks connection-level submit failures (retryable on
// another node), as opposed to protocol answers from a live node.
type transportError struct{ err error }

func (e *transportError) Error() string { return e.err.Error() }

// submission bundles what one routed payload carries through submitTo.
type submission struct {
	body    []byte
	byRef   bool
	hash    uint64
	payload *jobs.Payload // retained on the entry only when replicating
}

// successorURL returns the first healthy candidate after position i in ring
// order — where a failover for this key would land — or "" when the fleet
// has no second routable node.
func (r *Remote) successorURL(order []*node, i int) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, n := range order[i+1:] {
		if n.healthy {
			return n.url
		}
	}
	return ""
}

// maxWorkerBody bounds a worker's answer to a submit or a result fetch.
const maxWorkerBody = 64 << 20

// postPayload performs the raw worker-intake POST, tagging connection-level
// failures as transportError.
func (r *Remote) postPayload(n *node, body []byte, byRef bool, traceparent string) (*http.Response, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, n.url+"/v1/worker/jobs", bytes.NewReader(body))
	if err != nil {
		return nil, nil, &transportError{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	if byRef {
		req.Header.Set(jobs.ArtifactPayloadHeader, "1")
	}
	if traceparent != "" {
		req.Header.Set(obs.TraceparentHeader, traceparent)
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return nil, nil, &transportError{err: err}
	}
	defer resp.Body.Close()
	raw, err := httpbody.Read(resp.Body, resp.ContentLength, maxWorkerBody)
	if errors.Is(err, httpbody.ErrTooLarge) {
		return nil, nil, fmt.Errorf("dispatch: %s answered the submit: %w", n.url, err)
	}
	if err != nil {
		return nil, nil, &transportError{err: err}
	}
	return resp, raw, nil
}

// submitTo posts the payload to one node and interprets the protocol. The
// request carries att's traceparent so the worker's job trace continues
// this dispatch trace; on acceptance the trace is attached to the local
// record (tr/root), on a cache hit the root is closed immediately.
func (r *Remote) submitTo(n *node, s submission, tr *obs.Trace, root, att *obs.Span) (string, error) {
	var traceparent string
	if sc := att.Context(); sc.Valid() {
		traceparent = sc.Traceparent()
	}
	resp, raw, err := r.postPayload(n, s.body, s.byRef, traceparent)
	if err != nil {
		return "", err
	}
	var retained *jobs.Payload
	if r.cfg.Replicate {
		retained = s.payload
	}

	switch resp.StatusCode {
	case http.StatusOK:
		// The node answered from its result cache: the job is born done.
		// No round trip is recorded — run_latency tracks real pipeline
		// executions, and a zero sample would mask worker latency.
		id, err := newID()
		if err != nil {
			return "", err
		}
		root.SetAttr("cache", "hit")
		root.SetAttr("node", n.url)
		att.End()
		root.End()
		now := r.clock()
		fin := now
		st := &jobs.Status{ID: id, State: jobs.StateDone, CreatedAt: now, FinishedAt: &fin}
		r.mu.Lock()
		n.submitted++
		n.cacheHits++
		n.completed++
		r.entries[id] = &entry{node: n, workerID: id, hash: s.hash, created: now, done: true, finished: now, status: st, result: jobs.NewDocument(raw), local: true, trace: tr, root: root}
		r.mu.Unlock()
		return id, nil

	case http.StatusAccepted:
		var sub struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(raw, &sub); err != nil || sub.ID == "" {
			return "", fmt.Errorf("dispatch: worker %s returned a malformed submit document", n.url)
		}
		root.SetAttr("node", n.url)
		now := r.clock()
		r.mu.Lock()
		n.submitted++
		r.entries[sub.ID] = &entry{node: n, workerID: sub.ID, hash: s.hash, created: now, trace: tr, root: root, payload: retained}
		r.mu.Unlock()
		return sub.ID, nil

	case http.StatusServiceUnavailable:
		after, _ := strconv.Atoi(resp.Header.Get("Retry-After"))
		r.mu.Lock()
		n.rejected++
		r.mu.Unlock()
		return "", &BusyError{Node: n.url, After: after}

	default:
		return "", fmt.Errorf("dispatch: worker %s rejected the payload: %s",
			n.url, envelopeError(raw, resp.StatusCode))
	}
}

// Status snapshots a routed job by polling its node.
func (r *Remote) Status(id string) (jobs.Status, error) {
	r.mu.Lock()
	r.sweepLocked(r.clock())
	e, ok := r.entries[id]
	if !ok {
		r.mu.Unlock()
		return jobs.Status{}, jobs.ErrNotFound
	}
	if e.status != nil {
		st := *e.status
		r.mu.Unlock()
		return st, nil
	}
	if e.done {
		// Terminal without a worker snapshot — a failover recovery finished
		// the job locally. The worker no longer knows it; answer locally.
		st := r.statusLocked(id, e)
		r.mu.Unlock()
		return st, nil
	}
	n := e.node
	wid := e.workerID
	r.mu.Unlock()

	resp, err := r.client.Get(n.url + "/v1/jobs/" + wid)
	if err != nil {
		return r.loseNode(id, e, err), nil
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		// Node died mid-response: same lost-node path as a failed dial, so
		// Status keeps its contract of never erroring for a known id.
		return r.loseNode(id, e, err), nil
	}
	if resp.StatusCode == http.StatusNotFound {
		r.forget(id)
		return jobs.Status{}, jobs.ErrNotFound
	}
	var st jobs.Status
	if err := json.Unmarshal(raw, &st); err != nil {
		return jobs.Status{}, fmt.Errorf("dispatch: worker %s status: %w", n.url, err)
	}
	// The worker knows the job by workerID; the caller by the public id.
	st.ID = id
	if st.State.Terminal() {
		snap := st
		r.mu.Lock()
		// Keep the snapshot: later Status calls skip the HTTP round trip,
		// and the Jobs listing reports the true terminal state (done vs
		// failed) regardless of which endpoint observed it first.
		e.status = &snap
		r.finishLocked(id, e, st.State == jobs.StateDone)
		r.mu.Unlock()
	}
	return st, nil
}

// Result fetches the finished response document from the job's node. Done
// jobs yield a *jobs.Document holding the worker's AnalysisResponse bytes
// as it served them; failed jobs yield the job's error.
func (r *Remote) Result(id string) (any, error) {
	r.mu.Lock()
	r.sweepLocked(r.clock())
	e, ok := r.entries[id]
	if !ok {
		r.mu.Unlock()
		return nil, jobs.ErrNotFound
	}
	if e.result != nil {
		res := e.result
		r.mu.Unlock()
		return res, nil
	}
	if e.err != nil {
		err := e.err
		r.mu.Unlock()
		return nil, err
	}
	n := e.node
	wid := e.workerID
	r.mu.Unlock()

	resp, err := r.client.Get(n.url + "/v1/jobs/" + wid + "/result")
	if err != nil {
		return r.resultAfterLoss(id, e, err)
	}
	defer resp.Body.Close()
	raw, err := httpbody.Read(resp.Body, resp.ContentLength, maxWorkerBody)
	if errors.Is(err, httpbody.ErrTooLarge) {
		// The node is alive but its answer is not a document this front
		// end serves: refuse it rather than cache a cut copy.
		return nil, fmt.Errorf("dispatch: result of job %s from %s: %w", id, n.url, err)
	}
	if err != nil {
		return r.resultAfterLoss(id, e, err)
	}

	switch resp.StatusCode {
	case http.StatusOK:
		res := jobs.NewDocument(raw)
		r.mu.Lock()
		e.result = res
		r.finishLocked(id, e, true)
		r.mu.Unlock()
		return res, nil
	case http.StatusAccepted:
		return nil, jobs.ErrNotFinished
	case http.StatusNotFound:
		r.forget(id)
		return nil, jobs.ErrNotFound
	default:
		// The worker's failed-job envelope: strip its route-level prefix so
		// the error matches what the in-process Manager would have returned.
		msg := strings.TrimPrefix(envelopeError(raw, resp.StatusCode), "analysis failed: ")
		jobErr := errors.New(msg)
		r.mu.Lock()
		e.err = jobErr
		r.finishLocked(id, e, false)
		r.mu.Unlock()
		return nil, jobErr
	}
}

// Metrics merges the per-node counters into the jobs.Metrics schema:
// throughput counters are fleet sums, Workers counts healthy nodes,
// QueueDepth the jobs routed but not yet terminal, and Run the
// submit→terminal round-trip latency observed by this dispatcher. Nodes
// carries the per-node breakdown.
func (r *Remote) Metrics() jobs.Metrics {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sweepLocked(r.clock())
	m := jobs.Metrics{
		Run:             jobs.Summarise(r.rtt),
		Evicted:         r.evicted,
		MembershipEpoch: r.epoch,
		Failovers:       r.failovers,
	}
	for _, n := range r.nodes {
		if n.healthy && !n.draining {
			m.Workers++
		}
		m.Submitted += n.submitted
		m.Rejected += n.rejected
		m.Completed += n.completed
		m.Failed += n.failed
		m.Nodes = append(m.Nodes, jobs.NodeMetrics{
			URL:       n.url,
			Healthy:   n.healthy,
			Submitted: n.submitted,
			Rejected:  n.rejected,
			Completed: n.completed,
			Failed:    n.failed,
			CacheHits: n.cacheHits,
			Weight:    n.weight,
			Draining:  n.draining,
			LastError: n.lastErr,
		})
	}
	for _, e := range r.entries {
		if !e.done {
			m.QueueDepth++
		}
	}
	return m
}

// Jobs lists the dispatcher's routed jobs newest-first.
// Terminal jobs report their observed status; jobs still out on a worker
// report queued — the dispatcher deliberately does not fan a listing call
// out to every node, so the running/queued distinction is only as fresh
// as the last poll or health cycle.
func (r *Remote) Jobs(f jobs.JobFilter) []jobs.Status {
	r.mu.Lock()
	r.sweepLocked(r.clock())
	out := make([]jobs.Status, 0, len(r.entries))
	for id, e := range r.entries {
		st := jobs.Status{ID: id, State: jobs.StateQueued, CreatedAt: e.created}
		switch {
		case e.status != nil:
			st = *e.status
			// The listing position must be stable across the job's
			// lifetime: keep the dispatcher's own submit time (what
			// non-terminal entries already report), not the worker's
			// CreatedAt — a job whose listed time silently shifted once
			// its terminal status was cached could cross a pagination
			// cursor between pages and be skipped or served twice.
			st.CreatedAt = e.created
		case e.done:
			st.State = jobs.StateDone
			if e.err != nil {
				st.State = jobs.StateFailed
				st.Err = e.err.Error()
			}
			fin := e.finished
			st.FinishedAt = &fin
		}
		if f.State != "" && st.State != f.State {
			continue
		}
		if !f.AfterCursor(st.CreatedAt, id) {
			continue
		}
		out = append(out, st)
	}
	r.mu.Unlock()
	jobs.SortStatuses(out)
	if f.Limit > 0 && len(out) > f.Limit {
		out = out[:f.Limit]
	}
	return out
}

// Trace returns the dispatch-side span tree for a routed job with the
// worker node's own job trace grafted under the submit span that carried
// its traceparent. The worker fetch is best-effort: an unreachable node or
// a worker that no longer knows the id yields the dispatch spans alone
// rather than an error — cache-hit jobs never had a worker job to begin
// with.
func (r *Remote) Trace(id string) (*obs.TraceDoc, error) {
	r.mu.Lock()
	r.sweepLocked(r.clock())
	e, ok := r.entries[id]
	if !ok || e.trace == nil {
		r.mu.Unlock()
		return nil, jobs.ErrNotFound
	}
	doc := e.trace.Doc(id)
	local := e.local
	url := e.node.url
	wid := e.workerID
	r.mu.Unlock()
	if local {
		return doc, nil
	}
	resp, err := r.client.Get(url + "/v1/jobs/" + wid + "/trace")
	if err != nil {
		return doc, nil
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil || resp.StatusCode != http.StatusOK {
		return doc, nil
	}
	var worker obs.TraceDoc
	if json.Unmarshal(raw, &worker) != nil || worker.Root == nil {
		return doc, nil
	}
	graftSpan(doc.Root, worker.Root)
	return doc, nil
}

// graftSpan hangs a remote subtree under the span it names as its parent
// (the propagated traceparent's span id), falling back to the local root
// when the parent is not found — the tree stays coherent even if the
// remote recorded no parent.
func graftSpan(root, remote *obs.SpanDoc) {
	if p := findSpan(root, remote.ParentID); p != nil {
		p.Children = append(p.Children, remote)
		return
	}
	root.Children = append(root.Children, remote)
}

// findSpan walks the tree for the span with the given id.
func findSpan(s *obs.SpanDoc, id string) *obs.SpanDoc {
	if id == "" || s == nil {
		return nil
	}
	if s.SpanID == id {
		return s
	}
	for _, c := range s.Children {
		if hit := findSpan(c, id); hit != nil {
			return hit
		}
	}
	return nil
}

// Close stops intake and the health prober. Worker nodes drain their own
// queues; jobs already routed remain pollable on their nodes.
func (r *Remote) Close(ctx context.Context) error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	r.mu.Unlock()
	close(r.stop)
	r.health.Wait()
	return nil
}

// placementHash keys the payload onto the ring: the cache key when the
// payload carries one (identical clips → identical node), otherwise a hash
// of the serialized payload.
func (r *Remote) placementHash(p jobs.Payload) uint64 {
	if key, ok := p.Key(); ok {
		return hashString(key.String())
	}
	raw, _ := json.Marshal(p)
	return hashString(string(raw))
}

// demote marks a node unreachable until the prober revives it.
func (r *Remote) demote(n *node, err error) {
	r.mu.Lock()
	n.healthy = false
	n.lastErr = err.Error()
	r.mu.Unlock()
}

// loseNode reports a job stranded on an unreachable node: the node is
// demoted and the job reports failed with the transport error, matching
// the contract that Status never errors for a known id. The failure view
// is deliberately NOT latched onto the record: a single dropped
// connection or mid-restart poll must not permanently discard a result
// that is still sitting on the worker — if the prober revives the node,
// the next poll recovers the job's real state. A genuinely dead node
// keeps answering failed on every poll.
//
// Under Config.Replicate the retained payload is first resubmitted to the
// next ring candidate — the successor holding the replicated cache entry —
// and a successful recovery reports the job's live state instead of the
// failure.
func (r *Remote) loseNode(id string, e *entry, err error) jobs.Status {
	r.demote(e.node, err)
	if r.recover(id, e) {
		r.mu.Lock()
		defer r.mu.Unlock()
		return r.statusLocked(id, e)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	fin := r.clock()
	return jobs.Status{
		ID:         id,
		State:      jobs.StateFailed,
		CreatedAt:  e.created,
		FinishedAt: &fin,
		Err:        fmt.Sprintf("dispatch: worker %s unreachable: %v", e.node.url, err),
	}
}

// statusLocked snapshots an entry's locally known state. Caller holds mu.
func (r *Remote) statusLocked(id string, e *entry) jobs.Status {
	if e.status != nil {
		return *e.status
	}
	st := jobs.Status{ID: id, State: jobs.StateQueued, CreatedAt: e.created}
	if e.done {
		st.State = jobs.StateDone
		if e.err != nil {
			st.State = jobs.StateFailed
			st.Err = e.err.Error()
		}
		fin := e.finished
		st.FinishedAt = &fin
	}
	return st
}

// resultAfterLoss is Result's lost-node path: after loseNode (and its
// recovery attempt) the entry may hold the replicated result (served by the
// successor's cache), still be in flight on a new node, or be genuinely
// stranded.
func (r *Remote) resultAfterLoss(id string, e *entry, err error) (any, error) {
	st := r.loseNode(id, e, err)
	r.mu.Lock()
	res, jobErr := e.result, e.err
	r.mu.Unlock()
	switch {
	case res != nil:
		return res, nil
	case jobErr != nil:
		return nil, jobErr
	case !st.State.Terminal():
		return nil, jobs.ErrNotFinished // recovered onto a new node; poll on
	default:
		return nil, errors.New(st.Err)
	}
}

// maxResubmits bounds failover resubmissions per job, so a payload that
// kills every node it lands on cannot cycle through the fleet forever.
const maxResubmits = 3

// recover resubmits a stranded job's retained payload to the next ring
// candidate. The replica target stamped at original submit time was exactly
// the first such candidate, so when replication won the race the successor
// answers from its cache — the job completes byte-identical with zero
// recompute; otherwise the successor re-runs the deterministic pipeline.
// Reports whether the job found a new home (or finished outright).
func (r *Remote) recover(id string, e *entry) bool {
	if !r.cfg.Replicate {
		return false
	}
	r.mu.Lock()
	if e.done || e.recovering || e.payload == nil || e.resubmits >= maxResubmits || r.closed {
		r.mu.Unlock()
		return false
	}
	e.recovering = true
	dead := e.node
	hash := e.hash
	p := *e.payload
	v := r.view
	root := e.root
	r.mu.Unlock()
	defer func() {
		r.mu.Lock()
		e.recovering = false
		r.mu.Unlock()
	}()

	order := v.order(hash)
	byRef := p.FramesRef != ""
	for i, n := range order {
		r.mu.Lock()
		healthy := n.healthy
		r.mu.Unlock()
		if n == dead || !healthy {
			continue
		}
		// Re-stamp the successor for the job's NEW home, so its result
		// replicates onward instead of pointing back at the dead node.
		p.ReplicaTarget = r.successorURL(order, i)
		body, err := json.Marshal(p)
		if err != nil {
			return false
		}
		// The resubmit carries its own span's traceparent, so the successor's
		// job trace grafts under the same trace id as the original submit —
		// a failover must not sever the job's trace.
		att := root.Start("resubmit")
		att.SetAttr("node", n.url)
		att.SetAttr("was", dead.url)
		var traceparent string
		if sc := att.Context(); sc.Valid() {
			traceparent = sc.Traceparent()
		}
		resp, raw, err := r.postPayload(n, body, byRef, traceparent)
		if err != nil {
			var transport *transportError
			if errors.As(err, &transport) {
				att.SetAttr("error", transport.err.Error())
				att.End()
				r.demote(n, transport.err)
				continue
			}
			att.SetAttr("error", err.Error())
			att.End()
			return false
		}
		att.End()
		switch resp.StatusCode {
		case http.StatusOK:
			// The successor answered from its (replicated) cache.
			r.mu.Lock()
			e.node = n
			e.workerID = id
			e.result = jobs.NewDocument(raw)
			e.resubmits++
			r.failovers++
			n.submitted++
			n.cacheHits++
			r.finishLocked(id, e, true)
			r.mu.Unlock()
			r.log.Info("dispatch failover recovered from replica", "job_id", id,
				"node", n.url, "was", dead.url)
			return true
		case http.StatusAccepted:
			var sub struct {
				ID string `json:"id"`
			}
			if json.Unmarshal(raw, &sub) != nil || sub.ID == "" {
				return false
			}
			r.mu.Lock()
			e.node = n
			e.workerID = sub.ID
			e.resubmits++
			r.failovers++
			n.submitted++
			r.mu.Unlock()
			r.log.Info("dispatch failover resubmitted", "job_id", id,
				"node", n.url, "worker_id", sub.ID, "was", dead.url)
			return true
		case http.StatusServiceUnavailable:
			r.mu.Lock()
			n.rejected++
			r.mu.Unlock()
			continue
		default:
			return false
		}
	}
	return false
}

// finishLocked records a terminal observation exactly once. Caller holds
// mu.
func (r *Remote) finishLocked(id string, e *entry, ok bool) {
	if e.done {
		return
	}
	e.done = true
	e.payload = nil // replication retention ends at the terminal state
	e.finished = r.clock()
	state := jobs.StateDone
	if ok {
		e.node.completed++
	} else {
		e.node.failed++
		state = jobs.StateFailed
	}
	e.root.End()
	r.recordRTTLocked(e.finished.Sub(e.created))
	roundtripSeconds.Observe(e.finished.Sub(e.created).Seconds())
	r.log.Debug("dispatch terminal observed", "job_id", id, "node", e.node.url,
		"state", state, "trace_id", e.trace.TraceID(),
		"roundtrip_ms", float64(e.finished.Sub(e.created))/float64(time.Millisecond))
}

// forget drops a local record (the node no longer knows the id).
func (r *Remote) forget(id string) {
	r.mu.Lock()
	delete(r.entries, id)
	r.mu.Unlock()
}

// sweepLocked evicts expired local records, mirroring the Manager's TTL
// semantics: terminal jobs expire ResultTTL after their terminal state was
// observed — never while still queued or running on a worker. Records that
// never reach a terminal state (the client stopped polling a job on a
// node that later died) are bounded by a generous multiple of the TTL so
// the table cannot leak forever. The full-map scan is throttled to once
// per quarter-TTL so millisecond-interval pollers do not pay O(entries)
// under the lock on every call. Caller holds mu.
func (r *Remote) sweepLocked(now time.Time) {
	if r.cfg.ResultTTL <= 0 {
		return
	}
	if now.Sub(r.lastSweep) < r.cfg.ResultTTL/4 {
		return
	}
	r.lastSweep = now
	for id, e := range r.entries {
		expired := e.done && now.Sub(e.finished) >= r.cfg.ResultTTL ||
			!e.done && now.Sub(e.created) >= 8*r.cfg.ResultTTL
		if expired {
			delete(r.entries, id)
			r.evicted++
		}
	}
}

// recordRTTLocked appends to the round-trip ring. Caller holds mu.
func (r *Remote) recordRTTLocked(d time.Duration) {
	if len(r.rtt) < rttSample {
		r.rtt = append(r.rtt, d)
		return
	}
	r.rtt[r.rttIdx] = d
	r.rttIdx = (r.rttIdx + 1) % rttSample
}

// runHealth probes every node each interval; a probe success revives a
// demoted node, re-expanding the ring. Each cycle also resolves the
// terminal state of jobs nobody is polling, so queue_depth converges to
// the truth instead of counting finished-but-unpolled jobs for up to a
// whole record TTL.
func (r *Remote) runHealth() {
	defer r.health.Done()
	t := time.NewTicker(r.cfg.HealthInterval)
	defer t.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-t.C:
			r.probeAll()
			r.resolvePending()
			r.finalizeDrains()
			r.scrapeAll()
		}
	}
}

// resolveBatch bounds how many unresolved jobs one health cycle polls, so
// a deep backlog on a slow worker cannot stretch a cycle to minutes and
// starve probing (convergence just takes a few cycles instead of one).
const resolveBatch = 32

// resolvePending polls the status of routed jobs whose terminal state has
// not been observed yet, up to resolveBatch per cycle. Clients that fetch
// their results keep queue_depth accurate for free; jobs that finish on a
// worker and are never polled would otherwise inflate the gauge until the
// local-record TTL sweep. Transport failures demote the node but do not
// touch the record (the non-latching lost-node contract); the next cycle
// retries. The loop aborts between requests once the dispatcher stops, so
// Close never waits for more than one in-flight poll.
func (r *Remote) resolvePending() {
	type pending struct {
		id string
		e  *entry
	}
	r.mu.Lock()
	var ps []pending
	for id, e := range r.entries {
		if !e.done {
			ps = append(ps, pending{id: id, e: e})
			if len(ps) == resolveBatch {
				break
			}
		}
	}
	r.mu.Unlock()

	for _, p := range ps {
		select {
		case <-r.stop:
			return
		default:
		}
		r.mu.Lock()
		healthy := p.e.node.healthy
		url := p.e.node.url
		wid := p.e.workerID
		r.mu.Unlock()
		if !healthy {
			// The prober has not revived the node: under replication the
			// health cycle itself drives recovery, so an unpolled job does
			// not stay stranded until a client happens to ask for it.
			r.recover(p.id, p.e)
			continue
		}
		resp, err := r.client.Get(url + "/v1/jobs/" + wid)
		if err != nil {
			r.demote(p.e.node, err)
			r.recover(p.id, p.e)
			continue
		}
		raw, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
		if err != nil {
			continue
		}
		if resp.StatusCode == http.StatusNotFound {
			r.forget(p.id)
			continue
		}
		if resp.StatusCode != http.StatusOK {
			continue
		}
		var st jobs.Status
		if json.Unmarshal(raw, &st) != nil {
			continue
		}
		st.ID = p.id
		if st.State.Terminal() {
			snap := st
			r.mu.Lock()
			p.e.status = &snap
			r.finishLocked(p.id, p.e, st.State == jobs.StateDone)
			r.mu.Unlock()
		}
	}
}

// probeAll checks liveness of every current member (the list mutates under
// joins/drains, so it is snapshotted under the lock first).
func (r *Remote) probeAll() {
	r.mu.Lock()
	members := append([]*node(nil), r.nodes...)
	r.mu.Unlock()
	var wg sync.WaitGroup
	for _, n := range members {
		wg.Add(1)
		go func(n *node) {
			defer wg.Done()
			resp, err := r.client.Get(n.url + "/v1/healthz")
			if err != nil {
				r.demote(n, err)
				return
			}
			io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
			resp.Body.Close()
			r.mu.Lock()
			if resp.StatusCode == http.StatusOK {
				n.healthy = true
				n.lastErr = ""
			} else {
				n.healthy = false
				n.lastErr = fmt.Sprintf("healthz status %d", resp.StatusCode)
			}
			r.mu.Unlock()
		}(n)
	}
	wg.Wait()
}

// envelopeError extracts the shared JSON error envelope, falling back to
// the raw body / status code.
func envelopeError(raw []byte, status int) string {
	var doc struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(raw, &doc); err == nil && doc.Error != "" {
		return doc.Error
	}
	if len(raw) > 0 {
		return fmt.Sprintf("status %d: %s", status, bytes.TrimSpace(raw))
	}
	return fmt.Sprintf("status %d", status)
}

// newID returns a 16-hex-char random id for cache-answered jobs.
func newID() (string, error) {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", fmt.Errorf("dispatch: id generation: %w", err)
	}
	return hex.EncodeToString(b[:]), nil
}
