package jobs

import (
	"context"
	"time"

	"github.com/sljmotion/sljmotion/internal/events"
	"github.com/sljmotion/sljmotion/internal/obs"
)

// Dispatcher is the job-execution seam: everything the web service and the
// public JobQueue need from a job backend, abstracted from how and where
// the work runs. The in-process Manager (bounded queue + worker pool over
// an Executor) is the default implementation; the remote HTTP fan-out
// dispatcher (internal/dispatch) replaces it without touching the
// submit/poll lifecycle, the HTTP surface or the /metrics schema — payloads
// are data, so they serialise to worker nodes as JSON.
//
// Contract, matching Manager's behaviour:
//
//   - Submit and SubmitTraced never block: a saturated backend returns
//     ErrQueueFull (retryable — see Retryable, RetryAfterHint), a shut-down
//     backend ErrClosed;
//   - Status, Result, Watch and Trace return ErrNotFound for unknown or
//     expired ids, and Result returns ErrNotFinished while the job is
//     queued or running;
//   - Close stops intake, drains accepted work within ctx, then cancels.
type Dispatcher interface {
	// Submit enqueues one payload and returns its job id.
	Submit(p Payload) (string, error)
	// SubmitTraced is Submit under an inbound parent span context (the
	// traceparent a dispatching front end stamps); the zero SpanContext
	// starts a fresh trace.
	SubmitTraced(p Payload, parent obs.SpanContext) (string, error)
	// Status snapshots a job's lifecycle state and progress stage.
	Status(id string) (Status, error)
	// Result returns the finished job's value or its failure error.
	Result(id string) (any, error)
	// Jobs lists the known jobs matching f newest-first, as a non-nil
	// slice.
	Jobs(f JobFilter) []Status
	// Watch streams one job's events after sequence number afterSeq; the
	// channel closes after the terminal event, on ctx cancellation or on
	// shutdown. A saturated event bus returns
	// events.ErrTooManySubscribers (retryable).
	Watch(ctx context.Context, id string, afterSeq uint64) (<-chan events.Event, error)
	// EventHub returns the hub carrying every job's events.
	EventHub() *events.Hub
	// Trace returns the job's span tree; a journal-replayed job still
	// awaiting its re-run returns ErrNotFound.
	Trace(id string) (*obs.TraceDoc, error)
	// ComponentHealth reports the backend's deep-health components in a
	// fresh map the caller may extend.
	ComponentHealth() map[string]ComponentHealth
	// Metrics snapshots queue depth, throughput and latency counters.
	Metrics() Metrics
	// Close shuts the backend down, draining within ctx.
	Close(ctx context.Context) error
}

// JobFilter selects jobs for a history listing.
type JobFilter struct {
	// State keeps only jobs in this lifecycle state; "" keeps all.
	State State
	// Limit truncates the listing after this many jobs; 0 means no limit.
	Limit int
	// AfterCreated/AfterID resume a listing strictly after the job at this
	// position in the shared newest-first order — the pagination cursor.
	// Because the position is by value (creation time + id), not an
	// offset, it stays stable when jobs ahead of it are TTL-evicted
	// between pages. The zero values disable the cursor.
	AfterCreated time.Time
	AfterID      string
}

// HasCursor reports whether the filter carries a pagination cursor.
func (f JobFilter) HasCursor() bool {
	return f.AfterID != "" || !f.AfterCreated.IsZero()
}

// AfterCursor reports whether a job at (created, id) sorts strictly after
// the filter's cursor position in the newest-first order SortStatuses
// defines (creation time descending, ties by ascending id). Always true
// without a cursor.
func (f JobFilter) AfterCursor(created time.Time, id string) bool {
	if !f.HasCursor() {
		return true
	}
	if !created.Equal(f.AfterCreated) {
		return created.Before(f.AfterCreated)
	}
	return id > f.AfterID
}

// Manager is the canonical in-process Dispatcher.
var _ Dispatcher = (*Manager)(nil)
