package dispatch

import (
	"context"
	"errors"
	"net/http"
	"strconv"
	"time"

	"github.com/sljmotion/sljmotion/internal/events"
	"github.com/sljmotion/sljmotion/internal/jobs"
)

// EventHub returns the dispatcher's local event feed: its own observations
// of every routed job (submissions, cache-hit completions, terminal states
// resolved by polls or streams), for the global dashboard route. Sequence
// numbers on this feed are local to the dispatcher.
func (r *Remote) EventHub() *events.Hub { return r.hub }

// Watch streams one routed job's events by proxying the SSE stream from
// the worker node that owns it, preserving the node's per-job sequence
// numbers end to end — so a client's Last-Event-ID survives front-end
// reconnects unchanged. If the stream cannot be established, or is cut
// mid-flight, Watch degrades to polling-backed synthetic events: the
// node's status is polled every watchPollPeriod and each observed change
// becomes an event (opening with a snapshot, since the missed deltas are
// unrecoverable). A job already terminal in the local record is answered
// with an immediate terminal event — cache-hit submissions are streamable
// the moment Submit returns.
func (r *Remote) Watch(ctx context.Context, id string, afterSeq uint64) (<-chan events.Event, error) {
	r.mu.Lock()
	e, ok := r.entries[id]
	if !ok {
		r.mu.Unlock()
		return nil, jobs.ErrNotFound
	}
	// Only cache-born jobs synthesize their terminal event locally: the
	// worker never had a job under this id, so there is nothing to proxy.
	// Jobs that ran on a worker always proxy — the worker's retained
	// history serves resumes even after this dispatcher saw the terminal.
	if e.local {
		term, ok := r.terminalEventLocked(id, e, afterSeq)
		r.mu.Unlock()
		if !ok {
			return nil, jobs.ErrNotFound
		}
		ch := make(chan events.Event, 1)
		ch <- term
		close(ch)
		return ch, nil
	}
	r.mu.Unlock()

	ch := make(chan events.Event, 16)
	go r.watchProxy(ctx, id, e, afterSeq, ch)
	return ch, nil
}

// terminalEventLocked synthesizes the immediate terminal event of a job
// whose terminal state this dispatcher already holds. The sequence number
// continues after the client's resume point (the worker's numbering is
// unknowable for locally-terminal records). Caller holds mu.
func (r *Remote) terminalEventLocked(id string, e *entry, afterSeq uint64) (events.Event, bool) {
	if e.status != nil && !e.status.State.Terminal() {
		return events.Event{}, false
	}
	if e.status == nil && !e.done && e.err == nil && e.result == nil {
		return events.Event{}, false
	}
	ev := events.Event{Seq: afterSeq + 1, JobID: id, At: e.finished}
	if e.result != nil {
		ev.Result = e.result.Compact()
	}
	switch {
	case e.err != nil || (e.status != nil && e.status.State == jobs.StateFailed):
		ev.Type, ev.State = events.TypeFailed, string(jobs.StateFailed)
		if e.err != nil {
			ev.Error = e.err.Error()
		} else {
			ev.Error = e.status.Err
		}
	default:
		ev.Type, ev.State = events.TypeDone, string(jobs.StateDone)
	}
	return ev, true
}

// watchProxy drives one Watch channel: live SSE from the owning node
// first, the polling fallback after any stream failure.
func (r *Remote) watchProxy(ctx context.Context, id string, e *entry, afterSeq uint64, ch chan<- events.Event) {
	defer close(ch)
	lastSeq := afterSeq
	if r.streamFrom(ctx, id, e, &lastSeq, ch) || ctx.Err() != nil {
		return
	}
	r.watchPoll(ctx, id, lastSeq, ch)
}

// streamFrom proxies the worker's SSE stream into ch. It reports true when
// the stream delivered a terminal event (the watch is complete); false
// means the caller should fall back to polling. lastSeq tracks the highest
// forwarded sequence number so the fallback keeps the numbering monotonic.
func (r *Remote) streamFrom(ctx context.Context, id string, e *entry, lastSeq *uint64, ch chan<- events.Event) bool {
	r.mu.Lock()
	url := e.node.url
	wid := e.workerID
	r.mu.Unlock()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/v1/jobs/"+wid+"/events", nil)
	if err != nil {
		return false
	}
	if *lastSeq > 0 {
		req.Header.Set("Last-Event-ID", strconv.FormatUint(*lastSeq, 10))
	}
	resp, err := r.streamClient.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false
	}
	fr := events.NewFrameReader(resp.Body)
	for {
		f, err := fr.Next()
		if err != nil {
			return false // cut mid-stream (or clean close without terminal)
		}
		ev, err := f.DecodeEvent()
		if err != nil {
			return false
		}
		ev.JobID = id
		if ev.Seq > *lastSeq {
			*lastSeq = ev.Seq
		}
		r.observeStreamed(id, e, ev)
		select {
		case ch <- ev:
		case <-ctx.Done():
			return true // stop entirely; no fallback after cancellation
		}
		if ev.Terminal() {
			return true
		}
	}
}

// observeStreamed folds a proxied terminal event into the local record:
// the embedded result document (when the worker attached one) makes the
// job servable from this dispatcher without another round trip, and the
// listing/metrics converge without a poll.
func (r *Remote) observeStreamed(id string, e *entry, ev events.Event) {
	if !ev.Terminal() {
		return
	}
	now := r.clock()
	fin := ev.At
	if fin.IsZero() {
		fin = now
	}
	st := jobs.Status{ID: id, State: jobs.State(ev.State), CreatedAt: e.created, FinishedAt: &fin, Err: ev.Error}
	r.mu.Lock()
	defer r.mu.Unlock()
	if e.status == nil {
		e.status = &st
	}
	if ev.Type == events.TypeFailed && e.err == nil && ev.Error != "" {
		e.err = errors.New(ev.Error)
	}
	if len(ev.Result) > 0 && e.result == nil {
		e.result = jobs.CompactDocument(append([]byte(nil), ev.Result...))
	}
	r.finishLocked(id, e, ev.Type != events.TypeFailed)
}

// watchPollPeriod paces watchPoll's status polls.
const watchPollPeriod = 250 * time.Millisecond

// watchPoll is the synthetic-event fallback: the job's status is polled
// every watchPollPeriod and every observed change is emitted as an event.
// The first emission is a snapshot — the deltas between the stream cut and
// now are unrecoverable — and sequence numbers continue after lastSeq.
func (r *Remote) watchPoll(ctx context.Context, id string, lastSeq uint64, ch chan<- events.Event) {
	seq := lastSeq
	first := true
	var lastState jobs.State
	var lastStage string
	t := time.NewTicker(watchPollPeriod)
	defer t.Stop()
	for {
		st, err := r.Status(id)
		if err != nil {
			// The node forgot the id (TTL) or the record was swept: the
			// stream ends with an eviction event.
			seq++
			send(ctx, ch, events.Event{Seq: seq, Type: events.TypeEvicted, JobID: id, At: r.clock()})
			return
		}
		if first || st.State != lastState || st.Stage != lastStage {
			seq++
			ev := events.Event{Seq: seq, JobID: id, At: r.clock(), State: string(st.State), Stage: st.Stage, Error: st.Err}
			switch {
			case first:
				ev.Type = events.TypeSnapshot
			case st.State == jobs.StateDone:
				ev.Type = events.TypeDone
			case st.State == jobs.StateFailed:
				ev.Type = events.TypeFailed
			case st.Stage != "":
				ev.Type = events.TypeStage
			case st.State == jobs.StateRunning:
				ev.Type = events.TypeRunning
			default:
				ev.Type = events.TypeQueued
			}
			if !send(ctx, ch, ev) {
				return
			}
			if ev.Terminal() {
				return
			}
			first, lastState, lastStage = false, st.State, st.Stage
		}
		select {
		case <-ctx.Done():
			return
		case <-r.stop:
			return
		case <-t.C:
		}
	}
}

// send delivers one event unless the context ends first.
func send(ctx context.Context, ch chan<- events.Event, e events.Event) bool {
	select {
	case ch <- e:
		return true
	case <-ctx.Done():
		return false
	}
}
