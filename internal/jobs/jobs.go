// Package jobs is the asynchronous analysis job manager behind the web
// service's non-blocking upload path. The paper's Section 6 future work — a
// web system where users upload a jump clip and read advice back — needs
// analyses that can take seconds (a GA fit per frame) to run off the request
// path: a request submits a job into a bounded queue, a fixed worker pool
// drains it, and the client polls the job until it is done.
//
// A job is *data*, not a closure: Submit takes a serializable Payload and
// the Manager runs it through the Executor it was constructed with. The
// payload/executor split is what lets work leave the process — the same
// Payload the in-process Manager executes locally is what the remote
// dispatcher (internal/dispatch) posts to a worker node as JSON.
//
// Semantics:
//
//   - bounded submission queue: Submit never blocks; a full queue returns
//     ErrQueueFull (retryable backpressure, HTTP 503 at the server);
//   - lifecycle: queued → running → done | failed, with the running stage
//     label (segmentation / pose / tracking / scoring) exposed for polling;
//   - TTL-based result eviction: finished jobs are dropped ResultTTL after
//     completion, lazily on access and by a background janitor;
//   - graceful shutdown: Close stops intake, drains queued work, and
//     hard-cancels in-flight tasks via their context when the shutdown
//     context expires.
package jobs

import (
	"context"
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"sort"
	"sync"
	"time"

	"github.com/sljmotion/sljmotion/internal/events"
	"github.com/sljmotion/sljmotion/internal/obs"
)

// Latency histograms feeding the Prometheus export, registered once so
// the per-job cost is a few atomic adds.
var (
	queueWaitSeconds = obs.Default.Histogram("slj_job_queue_wait_seconds",
		"Time jobs sat queued before a worker picked them up, in seconds.", obs.DefBuckets)
	runSeconds = obs.Default.Histogram("slj_job_run_seconds",
		"Payload execution time of finished jobs, in seconds.", obs.DefBuckets)
)

// State is a job lifecycle state.
type State string

// Job lifecycle states.
const (
	StateQueued  State = "queued"
	StateRunning State = "running"
	StateDone    State = "done"
	StateFailed  State = "failed"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool { return s == StateDone || s == StateFailed }

// Sentinel errors.
var (
	// ErrQueueFull is the backpressure signal: the submission queue is at
	// capacity. It is retryable — clients should back off and resubmit.
	ErrQueueFull = errors.New("jobs: queue full, retry later")
	// ErrClosed rejects submissions after Close.
	ErrClosed = errors.New("jobs: manager closed")
	// ErrNotFound marks an unknown or TTL-evicted job id.
	ErrNotFound = errors.New("jobs: no such job")
	// ErrNotFinished is returned by Result while the job is queued/running.
	ErrNotFinished = errors.New("jobs: job not finished")
)

// Retryable reports whether the error is transient backpressure the caller
// should retry after a delay.
func Retryable(err error) bool { return errors.Is(err, ErrQueueFull) }

// retryAfterer is implemented by backpressure errors that carry an explicit
// retry delay (the remote dispatcher propagates a worker node's Retry-After
// header this way).
type retryAfterer interface{ RetryAfterSeconds() int }

// RetryAfterHint extracts the retry delay carried by a retryable error, in
// seconds, or def when the error carries none.
func RetryAfterHint(err error, def int) int {
	var ra retryAfterer
	if errors.As(err, &ra) {
		if s := ra.RetryAfterSeconds(); s > 0 {
			return s
		}
	}
	return def
}

// Config parameterises a Manager.
type Config struct {
	// Workers is the analysis worker pool size (>= 1).
	Workers int
	// QueueSize is the number of jobs that may wait beyond the ones being
	// executed; 0 means a submission is accepted only when a worker can
	// receive it immediately.
	QueueSize int
	// ResultTTL evicts finished jobs this long after completion; 0 keeps
	// them until shutdown (unbounded — intended for tests only).
	ResultTTL time.Duration
	// Clock overrides time.Now, a test seam for TTL eviction.
	Clock func() time.Time
	// Journal, when set, makes the job table durable: every submission,
	// state transition and eviction is appended to it, and New replays the
	// log before the workers start — interrupted queued/running jobs are
	// re-enqueued and re-executed, terminal results are restored with
	// their original timestamps, evicted records are skipped. Replayed
	// pending jobs go to a backlog drained ahead of the queue, so recovery
	// never drops work and the QueueSize bound on new submissions is
	// unchanged.
	Journal Journal
	// Events, when set, is the hub every job lifecycle transition and
	// per-stage progress tick is published into (and Watch subscriptions
	// are served from). When nil, New creates one with
	// events.DefaultConfig(), so streaming always works on the in-process
	// backend. The Manager closes the hub on Close either way.
	Events *events.Hub
	// Log receives structured lifecycle logs, every line correlated by
	// job_id (and trace_id once the job carries a trace). Nil discards.
	Log *slog.Logger
	// StallAfter is the queue-stall watchdog threshold: when the oldest
	// queued job has waited longer than this, the manager's queue health
	// component reports degraded. 0 means DefaultStallAfter.
	StallAfter time.Duration
	// DisableObservability turns off per-job tracing and resource
	// accounting (jobs carry no span tree and no resources section). The
	// benchmark's overhead section uses it; services leave it off.
	DisableObservability bool
}

// DefaultConfig returns a small service-oriented configuration.
func DefaultConfig() Config {
	return Config{Workers: 2, QueueSize: 16, ResultTTL: 15 * time.Minute}
}

// Validate rejects unusable configurations.
func (c Config) Validate() error {
	if c.Workers < 1 {
		return fmt.Errorf("jobs: Workers must be >= 1, got %d", c.Workers)
	}
	if c.QueueSize < 0 {
		return fmt.Errorf("jobs: QueueSize must be >= 0, got %d", c.QueueSize)
	}
	if c.ResultTTL < 0 {
		return fmt.Errorf("jobs: ResultTTL must be >= 0, got %v", c.ResultTTL)
	}
	return nil
}

// Status is a point-in-time snapshot of one job.
type Status struct {
	ID    string `json:"id"`
	State State  `json:"state"`
	// Stage is the pipeline stage currently executing (running jobs only).
	Stage     string    `json:"stage,omitempty"`
	CreatedAt time.Time `json:"created_at"`
	// StartedAt/FinishedAt are nil until the job reaches that point
	// (pointers so the JSON omits them instead of a zero timestamp).
	StartedAt  *time.Time `json:"started_at,omitempty"`
	FinishedAt *time.Time `json:"finished_at,omitempty"`
	// QueueWaitMS is how long the job sat queued before a worker picked it
	// up; RunMS how long its execution took. Both are the per-job samples
	// feeding the aggregate queue_wait / run_latency metrics, surfaced so
	// a history listing explains individual jobs, not just the fleet.
	// Omitted until the job reaches the relevant point.
	QueueWaitMS float64 `json:"queue_wait_ms,omitempty"`
	RunMS       float64 `json:"run_ms,omitempty"`
	// Resources is the measured cost of the job's execution — CPU-time and
	// heap-allocation deltas sampled around the payload run — present once
	// the job finished (and accounting was not disabled).
	Resources *obs.ResourceUsage `json:"resources,omitempty"`
	// Err carries the failure message of failed jobs.
	Err string `json:"error,omitempty"`
}

// LatencyStats summarise a sample of durations in milliseconds.
type LatencyStats struct {
	Count  int     `json:"count"`
	MeanMS float64 `json:"mean_ms"`
	P50MS  float64 `json:"p50_ms"`
	P95MS  float64 `json:"p95_ms"`
	MaxMS  float64 `json:"max_ms"`
}

// Metrics is a point-in-time snapshot of the manager.
type Metrics struct {
	Workers       int    `json:"workers"`
	QueueCapacity int    `json:"queue_capacity"`
	QueueDepth    int    `json:"queue_depth"`
	Running       int    `json:"running"`
	Submitted     uint64 `json:"jobs_submitted"`
	Rejected      uint64 `json:"jobs_rejected"`
	Completed     uint64 `json:"jobs_completed"`
	Failed        uint64 `json:"jobs_failed"`
	Evicted       uint64 `json:"jobs_evicted"`
	// JournalFailures counts journal appends that errored after the job
	// was accepted (the durability guarantee is degraded until the sink
	// recovers). Omitted — and always zero — without a journal, keeping
	// the document byte-compatible with earlier releases.
	JournalFailures uint64 `json:"journal_append_failures,omitempty"`
	// Run is the payload execution latency of finished jobs; Wait the time
	// jobs spent queued before a worker picked them up.
	Run  LatencyStats `json:"run_latency"`
	Wait LatencyStats `json:"queue_wait"`
	// Nodes carries per-worker-node counters when the backend is a remote
	// dispatcher; the in-process Manager omits it, keeping the /metrics
	// document byte-compatible with earlier releases.
	Nodes []NodeMetrics `json:"nodes,omitempty"`
	// MembershipEpoch is the dispatch fleet's membership version (starts at
	// 1, bumps on every join/drain/weight change/removal); Failovers counts
	// submissions or recoveries served by a node other than the key's
	// primary ring owner. Both omitted for the in-process Manager.
	MembershipEpoch uint64 `json:"membership_epoch,omitempty"`
	Failovers       uint64 `json:"dispatch_failovers,omitempty"`
}

// NodeMetrics is one worker node's view inside a remote dispatcher.
type NodeMetrics struct {
	URL     string `json:"url"`
	Healthy bool   `json:"healthy"`
	// Submitted counts payloads accepted by the node; Rejected its 503
	// backpressure answers; Completed/Failed terminal results observed by
	// the dispatcher; CacheHits submissions the node answered directly from
	// its result cache without enqueueing a job.
	Submitted uint64 `json:"submitted"`
	Rejected  uint64 `json:"rejected"`
	Completed uint64 `json:"completed"`
	Failed    uint64 `json:"failed"`
	CacheHits uint64 `json:"cache_hits"`
	// Weight scales the node's share of the hash ring (vnode count); 1 for
	// fleets that never set weights, omitted when zero for byte-compat.
	Weight int `json:"weight,omitempty"`
	// Draining marks a node excluded from new-key routing while its running
	// jobs finish; it is removed from the fleet when none remain.
	Draining bool `json:"draining,omitempty"`
	// LastError is the most recent transport/health failure, for operators.
	LastError string `json:"last_error,omitempty"`
}

// latencySample bounds the memory of the latency window (a ring of the most
// recent finished jobs; enough for stable p95 under steady load).
const latencySample = 256

// job is the internal record; all fields are guarded by Manager.mu once the
// job is registered.
type job struct {
	id      string
	payload Payload
	state   State
	stage   string
	created time.Time
	// enqueued is when the job entered THIS process's queue — creation
	// time normally, replay time for journal-recovered jobs — so the
	// queue_wait metric never counts restart downtime as queueing.
	enqueued time.Time
	started  time.Time
	finished time.Time
	result   any
	err      error
	// aborted marks a job whose submit record could not be journaled: it
	// was already handed to the queue (the send is not undoable), so the
	// worker drops it instead of executing unjournaled work.
	aborted bool
	// trace is the job's span tree, rooted at submission; queueSpan is the
	// open queue-wait child the picking worker closes. Both nil for
	// journal-replayed jobs (their live spans died with the old process)
	// — Trace answers a minimal replayed stub for those once terminal.
	// The trace is evicted with the record, so trace memory is bounded by
	// the job table.
	trace     *obs.Trace
	root      *obs.Span
	queueSpan *obs.Span
	// resources is the execution's measured cost, stamped at terminal.
	resources *obs.ResourceUsage
}

// Manager owns the queue, the worker pool and the job table.
type Manager struct {
	cfg   Config
	exec  Executor
	clock func() time.Time
	hub   *events.Hub
	log   *slog.Logger

	runCtx  context.Context
	cancel  context.CancelFunc
	queue   chan *job
	workers sync.WaitGroup
	janitor sync.WaitGroup

	mu   sync.Mutex
	jobs map[string]*job
	// backlog holds journal-replayed pending jobs; workers drain it ahead
	// of the queue, so recovery never drops accepted work while the
	// channel keeps its configured capacity — the backpressure bound on
	// NEW submissions is unchanged by a restart.
	backlog []*job
	closed  bool
	running int

	submitted     uint64
	rejected      uint64
	completed     uint64
	failed        uint64
	evicted       uint64
	journalFailed uint64
	runLat        []time.Duration // ring, most recent latencySample entries
	waitLat       []time.Duration
	latIdx        int
}

// New starts a manager executing payloads through exec: Workers goroutines
// draining the queue plus, when a TTL is set, a janitor goroutine evicting
// expired results. With a Journal configured, the log is replayed first:
// the restored job table and the re-enqueued interrupted jobs are in place
// before the first worker starts.
func New(cfg Config, exec Executor) (*Manager, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if exec == nil {
		return nil, errNoExecutor
	}
	clock := cfg.Clock
	if clock == nil {
		clock = time.Now
	}
	restored, pending, err := replayJournal(cfg.Journal)
	if err != nil {
		return nil, err
	}
	hub := cfg.Events
	if hub == nil {
		hub = events.NewHub(events.DefaultConfig())
	}
	lg := cfg.Log
	if lg == nil {
		lg = obs.Discard()
	}
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		cfg:     cfg,
		exec:    exec,
		clock:   clock,
		hub:     hub,
		log:     lg,
		runCtx:  ctx,
		cancel:  cancel,
		queue:   make(chan *job, cfg.QueueSize),
		jobs:    restored,
		backlog: pending,
	}
	for _, j := range restored {
		m.submitted++
		switch j.state {
		case StateDone:
			m.completed++
		case StateFailed:
			m.failed++
		}
		// Seed the event hub from the replayed table so restored jobs are
		// streamable: a terminal job's stream opens onto its terminal event
		// immediately (with its original timestamp), a recovered pending
		// job's onto a queued event awaiting its re-run.
		switch {
		case j.state == StateDone:
			hub.Publish(events.Event{Type: events.TypeDone, JobID: j.id, At: j.finished, State: string(StateDone)})
		case j.state == StateFailed:
			hub.Publish(events.Event{Type: events.TypeFailed, JobID: j.id, At: j.finished, State: string(StateFailed), Error: j.err.Error()})
		default:
			hub.Publish(events.Event{Type: events.TypeQueued, JobID: j.id, At: j.created, State: string(StateQueued)})
		}
	}
	// Recovered pending jobs enter this process's queue now: their
	// queue_wait must not count the downtime between crash and restart.
	for _, j := range pending {
		j.enqueued = clock()
	}
	for i := 0; i < cfg.Workers; i++ {
		m.workers.Add(1)
		go m.worker()
	}
	if cfg.ResultTTL > 0 {
		m.janitor.Add(1)
		go m.runJanitor()
	}
	return m, nil
}

// replayJournal rebuilds the job table from the journal: the map of every
// live job plus, in submission order, the non-terminal ones to re-enqueue.
// Interrupted jobs come back in StateQueued with their original creation
// time (their next run stamps fresh started/finished times); terminal jobs
// keep all original timestamps and their recorded result or error. A done
// record without a serialized result counts as interrupted — the work
// re-runs rather than serving a hole.
func replayJournal(jrn Journal) (map[string]*job, []*job, error) {
	table := make(map[string]*job)
	if jrn == nil {
		return table, nil, nil
	}
	var order []string
	err := jrn.Replay(func(e JournalEntry) error {
		switch e.Op {
		case OpSubmit:
			if len(e.Payload) == 0 {
				return fmt.Errorf("jobs: journal submit record %s carries no payload", e.ID)
			}
			if _, ok := table[e.ID]; ok {
				return nil // duplicate segment overlap (interrupted compaction)
			}
			p, err := decodeJournalPayload(e.Payload)
			if err != nil {
				return fmt.Errorf("jobs: journal submit record %s: %w", e.ID, err)
			}
			// enqueued mirrors the original submission so a restored
			// terminal job's queue_wait reports the wait it really had
			// (pending jobs get this process's enqueue time instead).
			table[e.ID] = &job{id: e.ID, payload: p, state: StateQueued, created: e.At, enqueued: e.At}
			order = append(order, e.ID)
		case OpRunning:
			if j, ok := table[e.ID]; ok {
				j.started = e.At
			}
		case OpDone:
			j, ok := table[e.ID]
			if !ok || len(e.Result) == 0 {
				return nil
			}
			j.state, j.finished = StateDone, e.At
			j.result = CompactDocument(append([]byte(nil), e.Result...))
			j.payload = Payload{}
		case OpFailed:
			if j, ok := table[e.ID]; ok {
				j.state, j.finished = StateFailed, e.At
				j.err = errors.New(e.Error)
				j.payload = Payload{}
			}
		case OpEvict:
			delete(table, e.ID)
		}
		return nil
	})
	if err != nil {
		return nil, nil, fmt.Errorf("jobs: journal replay: %w", err)
	}
	var pending []*job
	for _, id := range order {
		if j, ok := table[id]; ok && !j.state.Terminal() {
			j.started = time.Time{} // the re-run stamps its own start
			pending = append(pending, j)
		}
	}
	return table, pending, nil
}

// Config returns the manager configuration.
func (m *Manager) Config() Config { return m.cfg }

// Submit enqueues a payload and returns its job id. It never blocks: a full
// queue returns ErrQueueFull, a closed manager ErrClosed.
func (m *Manager) Submit(p Payload) (string, error) {
	return m.SubmitTraced(p, obs.SpanContext{})
}

// SubmitTraced is Submit carrying a remote parent span context: a worker
// node receiving a dispatched payload passes the traceparent it was posted
// so this job's span tree grafts under the front end's dispatch trace.
// The zero SpanContext starts a fresh trace.
func (m *Manager) SubmitTraced(p Payload, parent obs.SpanContext) (string, error) {
	id, err := newID()
	if err != nil {
		return "", err
	}
	// Encode the submit record's payload before taking the lock: a clip
	// payload is megabytes and every poller shares the mutex.
	var praw []byte
	if m.cfg.Journal != nil {
		if praw, err = encodeJournalPayload(p); err != nil {
			return "", fmt.Errorf("jobs: encode payload for journal: %w", err)
		}
	}
	now := m.clock()
	j := &job{id: id, payload: p, state: StateQueued, created: now, enqueued: now}
	if !m.cfg.DisableObservability {
		j.trace, j.root = obs.NewTraceFrom(parent, "job")
		j.root.SetAttr("job_id", id)
		j.queueSpan = j.root.Start("queue_wait")
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return "", ErrClosed
	}
	select {
	case m.queue <- j:
		if m.cfg.Journal != nil {
			if jerr := m.cfg.Journal.Append(JournalEntry{Op: OpSubmit, ID: id, At: now, Payload: praw}); jerr != nil {
				// The send is not undoable, so the worker drops the job
				// instead of executing work the journal never recorded
				// (the slot frees as soon as a worker pops it). Counted:
				// this is the journal failure mode that actively rejects
				// traffic, and it must show in /metrics.
				m.journalFailed++
				j.aborted = true
				return "", fmt.Errorf("jobs: journal submit: %w", jerr)
			}
		}
		m.jobs[id] = j
		m.submitted++
		m.hub.Publish(events.Event{Type: events.TypeQueued, JobID: id, At: now, State: string(StateQueued)})
		m.log.Debug("job queued", "job_id", id, "trace_id", j.trace.TraceID())
		m.sweepLocked(now)
		return id, nil
	default:
		m.rejected++
		m.log.Warn("job rejected, queue full", "queue_capacity", m.cfg.QueueSize)
		return "", ErrQueueFull
	}
}

// Trace returns the job's span tree. Jobs submitted before the last
// restart (journal-replayed records) lost their live spans with the old
// process; once terminal they answer a minimal stub — the job span with
// its original timestamps, marked replayed — so post-restart debugging
// isn't blind. A replayed job still pending its re-run answers
// ErrNotFound until it finishes (its re-execution carries no trace).
func (m *Manager) Trace(id string) (*obs.TraceDoc, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sweepLocked(m.clock())
	j, ok := m.jobs[id]
	if !ok {
		return nil, ErrNotFound
	}
	if j.trace == nil {
		// With observability disabled jobs legitimately carry no trace;
		// answering the replayed stub would mislabel them.
		if m.cfg.DisableObservability || !j.state.Terminal() {
			return nil, ErrNotFound
		}
		return replayedTraceStub(j), nil
	}
	return j.trace.Doc(id), nil
}

// replayedTraceStub reconstructs a terminal trace for a job whose span
// tree did not survive a restart. The ids are derived from the job id so
// repeated fetches are stable; the root span covers creation to finish
// with the journal's original timestamps.
func replayedTraceStub(j *job) *obs.TraceDoc {
	sum := sha256.Sum256([]byte("slj-replayed-trace:" + j.id))
	root := &obs.SpanDoc{
		Name:        "job",
		SpanID:      hex.EncodeToString(sum[16:24]),
		StartUnixNS: j.created.UnixNano(),
		DurationMS:  float64(j.finished.Sub(j.created)) / float64(time.Millisecond),
		Attrs:       map[string]string{"replayed": "true"},
	}
	return &obs.TraceDoc{
		TraceID:  hex.EncodeToString(sum[:16]),
		JobID:    j.id,
		Replayed: true,
		Root:     root,
	}
}

// Status returns a snapshot of the job, or ErrNotFound for unknown/expired
// ids.
func (m *Manager) Status(id string) (Status, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sweepLocked(m.clock())
	j, ok := m.jobs[id]
	if !ok {
		return Status{}, ErrNotFound
	}
	return j.snapshotLocked(), nil
}

// Result returns the job's result value once it is done. While the job is
// queued or running it returns ErrNotFinished; for failed jobs it returns
// the task's error.
func (m *Manager) Result(id string) (any, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sweepLocked(m.clock())
	j, ok := m.jobs[id]
	if !ok {
		return nil, ErrNotFound
	}
	switch j.state {
	case StateDone:
		return j.result, nil
	case StateFailed:
		return nil, j.err
	default:
		return nil, ErrNotFinished
	}
}

// Metrics returns a consistent snapshot of queue depth, throughput counters
// and latency statistics.
func (m *Manager) Metrics() Metrics {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sweepLocked(m.clock())
	return Metrics{
		Workers:         m.cfg.Workers,
		QueueCapacity:   m.cfg.QueueSize,
		QueueDepth:      len(m.queue) + len(m.backlog),
		Running:         m.running,
		Submitted:       m.submitted,
		Rejected:        m.rejected,
		Completed:       m.completed,
		Failed:          m.failed,
		Evicted:         m.evicted,
		JournalFailures: m.journalFailed,
		Run:             Summarise(m.runLat),
		Wait:            Summarise(m.waitLat),
	}
}

// Jobs lists the known jobs newest-first by creation time (ties broken by
// id so the order is total), filtered and truncated per f. With a journal
// configured the table — and therefore this history — survives restarts.
func (m *Manager) Jobs(f JobFilter) []Status {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sweepLocked(m.clock())
	out := make([]Status, 0, len(m.jobs))
	for _, j := range m.jobs {
		if f.State != "" && j.state != f.State {
			continue
		}
		if !f.AfterCursor(j.created, j.id) {
			continue
		}
		out = append(out, j.snapshotLocked())
	}
	SortStatuses(out)
	if f.Limit > 0 && len(out) > f.Limit {
		out = out[:f.Limit]
	}
	return out
}

// SortStatuses orders a job listing newest-first by creation time, ties
// broken by id. Shared by every Dispatcher so histories paginate stably.
func SortStatuses(out []Status) {
	sort.Slice(out, func(i, k int) bool {
		if !out[i].CreatedAt.Equal(out[k].CreatedAt) {
			return out[i].CreatedAt.After(out[k].CreatedAt)
		}
		return out[i].ID < out[k].ID
	})
}

// Close shuts the manager down: intake stops immediately (ErrClosed), queued
// jobs are drained and executed, and if ctx expires before the drain
// completes, in-flight tasks are hard-cancelled through their context. The
// janitor always stops. Close is idempotent; later calls just wait again.
func (m *Manager) Close(ctx context.Context) error {
	m.mu.Lock()
	if !m.closed {
		m.closed = true
		close(m.queue)
	}
	m.mu.Unlock()

	done := make(chan struct{})
	go func() {
		m.workers.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
	}
	// Cancel tasks still running past the deadline (no-op on clean drain)
	// and stop the janitor. The event hub closes after the workers have
	// published their last terminal events, so subscribers drain a
	// complete stream before seeing ErrClosed.
	m.cancel()
	m.janitor.Wait()
	m.hub.Close()
	// Flush the journal so a graceful shutdown leaves every drained
	// transition on stable storage.
	if m.cfg.Journal != nil {
		if serr := m.cfg.Journal.Sync(); serr != nil && err == nil {
			err = serr
		}
	}
	return err
}

// worker drains the replay backlog, then the queue, until the queue is
// closed and both are empty.
func (m *Manager) worker() {
	defer m.workers.Done()
	for {
		m.mu.Lock()
		if n := len(m.backlog); n > 0 {
			j := m.backlog[0]
			m.backlog = m.backlog[1:]
			m.mu.Unlock()
			m.execute(j)
			continue
		}
		m.mu.Unlock()
		j, ok := <-m.queue
		if !ok {
			return
		}
		m.execute(j)
	}
}

// execute runs one job through its lifecycle.
func (m *Manager) execute(j *job) {
	start := m.clock()
	m.mu.Lock()
	if j.aborted {
		m.mu.Unlock()
		return
	}
	j.state = StateRunning
	j.started = start
	m.running++
	m.journalLocked(JournalEntry{Op: OpRunning, ID: j.id, At: start})
	m.hub.Publish(events.Event{Type: events.TypeRunning, JobID: j.id, At: start, State: string(StateRunning)})
	m.mu.Unlock()
	j.queueSpan.End()
	queueWaitSeconds.Observe(start.Sub(j.enqueued).Seconds())
	runSpan := j.root.Start("run")
	m.log.Debug("job running", "job_id", j.id, "trace_id", j.trace.TraceID(),
		"queue_wait_ms", float64(start.Sub(j.enqueued))/float64(time.Millisecond))

	progress := func(stage string) {
		m.mu.Lock()
		j.stage = stage
		m.hub.Publish(events.Event{
			Type: events.TypeStage, JobID: j.id, At: m.clock(),
			State: string(StateRunning), Stage: stage,
		})
		m.mu.Unlock()
	}
	// The run span rides the execution context: the core pipeline hangs
	// its per-stage (and per-frame GA) spans under it via obs.StartSpan.
	// The resource snapshot brackets exactly the payload run, so the
	// delta answers "where did this job spend cycles" — an upper bound on
	// a node executing jobs concurrently, since the counters are
	// process-wide.
	var snap obs.ResourceSnapshot
	if !m.cfg.DisableObservability {
		snap = obs.TakeResourceSnapshot()
	}
	val, err := m.exec.Execute(obs.ContextWithSpan(m.runCtx, runSpan), j.payload, progress)
	now := m.clock()
	var usage *obs.ResourceUsage
	if !m.cfg.DisableObservability {
		u := snap.Delta()
		u.Stamp(runSpan)
		usage = &u
	}
	runSpan.End()
	runSeconds.Observe(now.Sub(start).Seconds())

	// Journal the terminal record BEFORE taking the lock and before the
	// terminal state becomes visible: the result marshal can be megabytes
	// and the append fsyncs under the production policy — neither belongs
	// under the mutex every poller shares — and the ordering (record
	// durable, then state visible) is exactly what guarantees a result a
	// client polled can never evaporate across a crash. A failure caused
	// by the manager's own shutdown cancel is not journaled: the job is
	// interrupted, not failed — a restart must re-run it, exactly as
	// after a crash (in-memory it still reports failed to pollers of THIS
	// process, matching the pre-journal hard-cancel behaviour). A result
	// that fails to serialize is journaled without its document; replay
	// re-runs the job instead of serving a hole.
	if m.cfg.Journal != nil {
		var entry *JournalEntry
		if err == nil {
			entry = &JournalEntry{Op: OpDone, ID: j.id, At: now, Result: CompactJSON(val)}
		} else if m.runCtx.Err() == nil {
			entry = &JournalEntry{Op: OpFailed, ID: j.id, At: now, Error: err.Error()}
		}
		if entry != nil {
			jspan := j.root.Start("journal_append")
			if aerr := m.cfg.Journal.Append(*entry); aerr != nil {
				m.mu.Lock()
				m.journalFailed++
				m.mu.Unlock()
				m.log.Error("journal append failed", "job_id", j.id, "trace_id", j.trace.TraceID(), "error", aerr)
			}
			jspan.End()
		}
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	m.running--
	j.finished = now
	j.stage = ""
	j.payload = Payload{} // release the payload (it may pin a whole clip)
	j.resources = usage
	pubSpan := j.root.Start("publish")
	if err != nil {
		j.state = StateFailed
		j.err = err
		m.failed++
		m.hub.Publish(events.Event{
			Type: events.TypeFailed, JobID: j.id, At: now,
			State: string(StateFailed), Error: err.Error(),
		})
		m.log.Warn("job failed", "job_id", j.id, "trace_id", j.trace.TraceID(),
			"run_ms", float64(now.Sub(start))/float64(time.Millisecond), "error", err)
	} else {
		j.state = StateDone
		j.result = val
		m.completed++
		// Published after the terminal state is set, so a subscriber that
		// fetches the result on seeing this event always finds it.
		m.hub.Publish(events.Event{Type: events.TypeDone, JobID: j.id, At: now, State: string(StateDone)})
		m.log.Info("job done", "job_id", j.id, "trace_id", j.trace.TraceID(),
			"run_ms", float64(now.Sub(start))/float64(time.Millisecond),
			"queue_wait_ms", float64(start.Sub(j.enqueued))/float64(time.Millisecond))
	}
	pubSpan.End()
	j.root.End()
	m.recordLocked(now.Sub(start), start.Sub(j.enqueued))
}

// journalLocked appends one cheap lifecycle record (running/evict — the
// terminal records, which marshal documents and fsync, are appended
// outside the lock in execute), best-effort: a failed append past
// submission costs at most a re-execution after restart, never the live
// job — but it is counted, so operators see a dying journal in /metrics
// instead of discovering it at the next restart. Caller holds mu.
func (m *Manager) journalLocked(e JournalEntry) {
	if m.cfg.Journal == nil {
		return
	}
	if err := m.cfg.Journal.Append(e); err != nil {
		m.journalFailed++
	}
}

// runJanitor periodically evicts expired results so memory stays bounded
// even when nobody polls.
func (m *Manager) runJanitor() {
	defer m.janitor.Done()
	interval := m.cfg.ResultTTL / 4
	if interval < 100*time.Millisecond {
		interval = 100 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-m.runCtx.Done():
			return
		case <-t.C:
			m.mu.Lock()
			m.sweepLocked(m.clock())
			m.mu.Unlock()
		}
	}
}

// sweepLocked evicts finished jobs older than the TTL. Caller holds mu.
func (m *Manager) sweepLocked(now time.Time) {
	if m.cfg.ResultTTL <= 0 {
		return
	}
	for id, j := range m.jobs {
		if j.state.Terminal() && now.Sub(j.finished) >= m.cfg.ResultTTL {
			delete(m.jobs, id)
			m.evicted++
			m.journalLocked(JournalEntry{Op: OpEvict, ID: id, At: now})
			m.hub.Publish(events.Event{Type: events.TypeEvicted, JobID: id, At: now, State: string(j.state)})
		}
	}
}

// recordLocked appends to the latency rings. Caller holds mu.
func (m *Manager) recordLocked(run, wait time.Duration) {
	if len(m.runLat) < latencySample {
		m.runLat = append(m.runLat, run)
		m.waitLat = append(m.waitLat, wait)
		return
	}
	m.runLat[m.latIdx] = run
	m.waitLat[m.latIdx] = wait
	m.latIdx = (m.latIdx + 1) % latencySample
}

// snapshotLocked copies the job's visible state. Caller holds mu.
func (j *job) snapshotLocked() Status {
	s := Status{
		ID:        j.id,
		State:     j.state,
		Stage:     j.stage,
		CreatedAt: j.created,
	}
	if !j.started.IsZero() {
		t := j.started
		s.StartedAt = &t
		if !j.enqueued.IsZero() {
			s.QueueWaitMS = float64(j.started.Sub(j.enqueued)) / float64(time.Millisecond)
		}
	}
	if !j.finished.IsZero() {
		t := j.finished
		s.FinishedAt = &t
		if !j.started.IsZero() {
			s.RunMS = float64(j.finished.Sub(j.started)) / float64(time.Millisecond)
		}
	}
	if j.resources != nil {
		u := *j.resources
		s.Resources = &u
	}
	if j.err != nil {
		s.Err = j.err.Error()
	}
	return s
}

// Summarise computes latency statistics over a sample window of
// durations. It is shared by the Manager and the remote dispatcher so both
// backends report the same statistics shape.
func Summarise(sample []time.Duration) LatencyStats {
	if len(sample) == 0 {
		return LatencyStats{}
	}
	sorted := make([]time.Duration, len(sample))
	copy(sorted, sample)
	sort.Slice(sorted, func(i, k int) bool { return sorted[i] < sorted[k] })
	var sum time.Duration
	for _, d := range sorted {
		sum += d
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	// Nearest-rank percentile: the ⌈p·N⌉-th smallest sample. The floored
	// index it replaced reported the P95 of a 2-sample window as the
	// *minimum*, skewing /metrics and every committed BENCH document low.
	pct := func(p float64) time.Duration {
		i := int(math.Ceil(p*float64(len(sorted)))) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(sorted) {
			i = len(sorted) - 1
		}
		return sorted[i]
	}
	return LatencyStats{
		Count:  len(sorted),
		MeanMS: ms(sum) / float64(len(sorted)),
		P50MS:  ms(pct(0.50)),
		P95MS:  ms(pct(0.95)),
		MaxMS:  ms(sorted[len(sorted)-1]),
	}
}

// newID returns a 16-hex-char random job id.
func newID() (string, error) {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", fmt.Errorf("jobs: id generation: %w", err)
	}
	return hex.EncodeToString(b[:]), nil
}
