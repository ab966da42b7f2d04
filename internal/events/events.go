// Package events is the in-process job event bus behind the streaming
// surface: the job manager (and the remote dispatcher) publish every job
// lifecycle transition and per-stage progress tick into a Hub, and
// per-job subscribers — the server's server-sent-events route and the
// library's JobQueue.Watch — consume them without polling the job table.
//
// Design constraints, in order:
//
//   - publishing NEVER blocks: the analysis pipeline must not stall because
//     a web client reads its event stream slowly. Every subscriber owns a
//     bounded pending-event buffer; a subscriber that falls behind is
//     resynced — its buffer collapses to a single snapshot of the job's
//     latest state — and deltas continue from there;
//   - per-job sequence numbers are monotonic from 1 and stamp every event,
//     so a dropped connection resumes exactly where it left off
//     (Last-Event-ID over SSE): Subscribe(job, afterSeq) replays the
//     retained history after afterSeq, or starts with a snapshot when the
//     gap is no longer covered;
//   - memory is bounded: per-job history is a small ring, subscriber
//     buffers are rings, and a job's state leaves the hub with its
//     eviction event.
//
// The hub is pure data structure — no goroutines — so constructing one per
// job manager is free and Close is immediate.
package events

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Type names one kind of job event.
type Type string

// Event types. The lifecycle types mirror the job states; stage marks
// per-stage pipeline progress of a running job; snapshot is the synthetic
// event the hub (or a proxying dispatcher) injects when a subscriber
// cannot be given the full delta stream.
const (
	// TypeQueued: the job was accepted into the queue.
	TypeQueued Type = "queued"
	// TypeRunning: a worker picked the job up.
	TypeRunning Type = "running"
	// TypeStage: the running job entered a pipeline stage (Stage field).
	TypeStage Type = "stage"
	// TypeDone: the job finished; the SSE layer embeds the result document.
	TypeDone Type = "done"
	// TypeFailed: the job failed; Error carries the message.
	TypeFailed Type = "failed"
	// TypeEvicted: the finished job's record was dropped (TTL).
	TypeEvicted Type = "evicted"
	// TypeSnapshot: a synthetic catch-up event carrying the job's latest
	// state in place of deltas the subscriber can no longer receive (slow
	// consumer resync, Last-Event-ID gap, poll-backed fallback streams).
	TypeSnapshot Type = "snapshot"
)

// Event is one job event. Seq is monotonic per job starting at 1 (assigned
// by the hub on Publish) and doubles as the SSE resume token; State is the
// job's lifecycle state after the event; Result is populated only on the
// SSE wire, where the serving layer embeds the finished response document
// into the terminal event — the hub itself never stores result payloads.
// Result stays the last field: WriteFrame appends it to the encoded event
// without re-encoding it.
type Event struct {
	Seq    uint64          `json:"seq"`
	Type   Type            `json:"type"`
	JobID  string          `json:"job_id,omitempty"`
	At     time.Time       `json:"at"`
	State  string          `json:"state,omitempty"`
	Stage  string          `json:"stage,omitempty"`
	Error  string          `json:"error,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
}

// Terminal reports whether the event ends a job's stream: a terminal
// lifecycle event, or a snapshot of an already-terminal job.
func (e Event) Terminal() bool {
	switch e.Type {
	case TypeDone, TypeFailed, TypeEvicted:
		return true
	case TypeSnapshot:
		return e.State == "done" || e.State == "failed"
	}
	return false
}

// Sentinel errors.
var (
	// ErrClosed marks a subscription whose hub shut down (after its buffer
	// drained) or that was closed by its owner.
	ErrClosed = errors.New("events: subscription closed")
	// ErrTooManySubscribers is the backpressure signal of Subscribe: the
	// hub is at its subscriber limit. Retryable — clients should back off.
	ErrTooManySubscribers = errors.New("events: subscriber limit reached, retry later")
	// ErrNoJob rejects a subscription that names no job: every stream is
	// one job's.
	ErrNoJob = errors.New("events: subscription needs a job id")
)

// Config parameterises a Hub. The zero value of any field takes its
// DefaultConfig value, so the zero Config is usable as-is.
type Config struct {
	// SubscriberBuffer bounds each subscriber's pending-event buffer; a
	// subscriber this far behind is resynced instead of blocking Publish.
	// Minimum 2 (a snapshot plus one delta).
	SubscriberBuffer int
	// MaxSubscribers caps concurrent subscriptions; Subscribe returns
	// ErrTooManySubscribers beyond it.
	MaxSubscribers int
	// HistoryPerJob bounds the per-job event ring kept for Last-Event-ID
	// resume; a resume past the retained window starts with a snapshot.
	HistoryPerJob int
}

// DefaultConfig returns a small service-oriented configuration.
func DefaultConfig() Config {
	return Config{SubscriberBuffer: 256, MaxSubscribers: 1024, HistoryPerJob: 128}
}

// withDefaults fills zero fields from DefaultConfig.
func (c Config) withDefaults() Config {
	def := DefaultConfig()
	if c.SubscriberBuffer == 0 {
		c.SubscriberBuffer = def.SubscriberBuffer
	}
	if c.MaxSubscribers == 0 {
		c.MaxSubscribers = def.MaxSubscribers
	}
	if c.HistoryPerJob == 0 {
		c.HistoryPerJob = def.HistoryPerJob
	}
	return c
}

// Validate rejects unusable configurations.
func (c Config) Validate() error {
	if c.SubscriberBuffer < 2 {
		return fmt.Errorf("events: SubscriberBuffer must be >= 2, got %d", c.SubscriberBuffer)
	}
	if c.MaxSubscribers < 1 || c.HistoryPerJob < 1 {
		return fmt.Errorf("events: MaxSubscribers and HistoryPerJob must be >= 1")
	}
	return nil
}

// jobState is the hub's per-job record: the monotonic sequence counter,
// the latest event (the snapshot source) and the retained history — a
// circular buffer (start is the oldest slot once full), because sliding a
// full slice on every publish would cost O(HistoryPerJob) inside the two
// hottest locks in the system (the hub's, under the job manager's).
type jobState struct {
	seq     uint64
	last    Event
	history []Event
	start   int // index of the oldest retained event once len == cap
}

// histLen reports how many events are retained.
func (js *jobState) histLen() int { return len(js.history) }

// histAppend records one event, overwriting the oldest once full.
func (js *jobState) histAppend(e Event, max int) {
	if len(js.history) < max {
		js.history = append(js.history, e)
		return
	}
	js.history[js.start] = e
	js.start = (js.start + 1) % len(js.history)
}

// histAt returns the i-th retained event, oldest first.
func (js *jobState) histAt(i int) Event {
	return js.history[(js.start+i)%len(js.history)]
}

// Hub fans published job events out to subscribers. All methods are safe
// for concurrent use; Publish never blocks.
type Hub struct {
	cfg Config

	// dropped counts events discarded by the never-block resync policy
	// across all subscribers since the hub was built — the saturation
	// signal exported as slj_events_dropped_total.
	dropped atomic.Uint64

	mu     sync.Mutex
	jobs   map[string]*jobState
	subs   map[*Subscription]struct{}
	closed bool
}

// Dropped returns the number of events discarded because a subscriber's
// buffer was full (collapsed into a snapshot).
func (h *Hub) Dropped() uint64 { return h.dropped.Load() }

// NewHub builds a hub; zero Config fields take their defaults.
func NewHub(cfg Config) *Hub {
	cfg = cfg.withDefaults()
	return &Hub{
		cfg:  cfg,
		jobs: make(map[string]*jobState),
		subs: make(map[*Subscription]struct{}),
	}
}

// snapshotOf derives the synthetic catch-up event from a job's latest
// event: same sequence number (resume continues from it), latest state.
func snapshotOf(last Event) Event {
	return Event{
		Seq:   last.Seq,
		Type:  TypeSnapshot,
		JobID: last.JobID,
		At:    last.At,
		State: last.State,
		Stage: last.Stage,
		Error: last.Error,
	}
}

// Publish stamps the event with the job's next sequence number, records it
// in the job's history, and fans it out to the job's subscribers. It
// never blocks: a full subscriber is resynced (see package doc). An
// eviction event retires the job's hub state after delivery.
func (h *Hub) Publish(e Event) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed || e.JobID == "" {
		return
	}
	js := h.jobs[e.JobID]
	if js == nil {
		js = &jobState{}
		h.jobs[e.JobID] = js
	}
	js.seq++
	e.Seq = js.seq
	e.Result = nil // the hub never retains result payloads
	js.last = e
	js.histAppend(e, h.cfg.HistoryPerJob)
	if e.Type == TypeEvicted {
		delete(h.jobs, e.JobID)
	}
	for sub := range h.subs {
		if sub.jobID == e.JobID {
			sub.push(e)
		}
	}
}

// Subscribe registers a subscriber to one job's stream; an empty jobID is
// refused with ErrNoJob. afterSeq resumes after that sequence number: the
// retained history after it is replayed, and a gap — or a sequence
// regression after a restart — starts with a snapshot.
func (h *Hub) Subscribe(jobID string, afterSeq uint64) (*Subscription, error) {
	if jobID == "" {
		return nil, ErrNoJob
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return nil, ErrClosed
	}
	if len(h.subs) >= h.cfg.MaxSubscribers {
		return nil, ErrTooManySubscribers
	}
	sub := &Subscription{
		hub:    h,
		jobID:  jobID,
		max:    h.cfg.SubscriberBuffer,
		notify: make(chan struct{}, 1),
	}
	if js, ok := h.jobs[jobID]; ok {
		oldest := js.seq - uint64(js.histLen()) + 1
		switch {
		case afterSeq == js.seq:
			// Caught up exactly. For a live job that means deltas
			// only — but a client resuming at a *terminal* event
			// (e.g. an EventSource auto-reconnecting after the server
			// closed its completed stream) must get the terminal
			// snapshot back, so its watch closes instead of idling a
			// subscriber slot until TTL eviction.
			if snap := snapshotOf(js.last); snap.Terminal() {
				sub.buf = append(sub.buf, snap)
			}
		case afterSeq > js.seq:
			// The client is ahead of this hub (sequence regression —
			// typically a restart reset the counters): resync.
			sub.buf = append(sub.buf, snapshotOf(js.last))
		case afterSeq+1 >= oldest:
			for i := 0; i < js.histLen(); i++ {
				if ev := js.histAt(i); ev.Seq > afterSeq {
					sub.buf = append(sub.buf, ev)
				}
			}
		default:
			// The gap is past the retained window: snapshot + delta.
			sub.buf = append(sub.buf, snapshotOf(js.last))
		}
		if len(sub.buf) > sub.max {
			sub.buf = []Event{snapshotOf(js.last)}
		}
	}
	h.subs[sub] = struct{}{}
	return sub, nil
}

// Subscribers reports the current subscription count.
func (h *Hub) Subscribers() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.subs)
}

// Close shuts the hub down: registered subscriptions drain their buffered
// events and then report ErrClosed; later Publish calls are dropped.
// Idempotent.
func (h *Hub) Close() {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	h.closed = true
	subs := make([]*Subscription, 0, len(h.subs))
	for sub := range h.subs {
		subs = append(subs, sub)
	}
	h.mu.Unlock()
	for _, sub := range subs {
		sub.markClosed()
	}
}

// Subscription is one subscriber's bounded view of the event stream.
type Subscription struct {
	hub    *Hub
	jobID  string
	max    int
	notify chan struct{}

	mu     sync.Mutex
	buf    []Event
	closed bool
}

// push appends one event, resyncing instead of blocking when the buffer is
// full. Called with the hub lock held (the publisher's goroutine).
func (s *Subscription) push(e Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	if len(s.buf) >= s.max {
		// The newest event subsumes the backlog: collapse to its snapshot
		// form and continue with deltas.
		s.hub.dropped.Add(uint64(len(s.buf)))
		s.buf = append(s.buf[:0], snapshotOf(e))
	} else {
		s.buf = append(s.buf, e)
	}
	s.wake()
}

// wake nudges a Next call blocked on an empty buffer. Caller holds s.mu or
// is otherwise done mutating.
func (s *Subscription) wake() {
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

// Next returns the next event, blocking until one arrives, the context is
// cancelled, or the subscription is closed (ErrClosed after the buffer
// drains).
func (s *Subscription) Next(ctx context.Context) (Event, error) {
	for {
		s.mu.Lock()
		if len(s.buf) > 0 {
			e := s.buf[0]
			s.buf = s.buf[1:]
			s.mu.Unlock()
			return e, nil
		}
		closed := s.closed
		s.mu.Unlock()
		if closed {
			return Event{}, ErrClosed
		}
		select {
		case <-s.notify:
		case <-ctx.Done():
			return Event{}, ctx.Err()
		}
	}
}

// Close unregisters the subscription; a blocked Next returns ErrClosed.
func (s *Subscription) Close() {
	s.hub.mu.Lock()
	delete(s.hub.subs, s)
	s.hub.mu.Unlock()
	s.markClosed()
}

// markClosed flags the subscription closed and wakes any blocked reader.
func (s *Subscription) markClosed() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.wake()
}
