// Server-sent-events routes: the streaming face of the job pipeline.
//
//	GET /v1/jobs/{id}/events   one job's lifecycle + per-stage progress
//	GET /v1/events             the global feed of every job (dashboards)
//
// Both routes speak the SSE wire format of internal/events: every frame
// carries the per-job sequence number as its id, so a client that loses
// the connection resumes exactly where it stopped by sending the standard
// Last-Event-ID header (or ?after=N) on reconnect. Keep-alive comments
// flow on EventHeartbeat. The terminal frame of a done job embeds the
// result document, byte-equivalent (up to JSON whitespace) to
// GET /v1/jobs/{id}/result — a streaming client never needs a single
// status poll.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"github.com/sljmotion/sljmotion/internal/events"
	"github.com/sljmotion/sljmotion/internal/jobs"
)

// afterSeq extracts the resume position: the standard Last-Event-ID
// header, or the ?after= query parameter (curl-friendly).
func afterSeq(r *http.Request) (uint64, error) {
	token := r.Header.Get("Last-Event-ID")
	if qv := r.URL.Query().Get("after"); token == "" && qv != "" {
		token = qv
	}
	if token == "" {
		return 0, nil
	}
	n, err := strconv.ParseUint(token, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("resume position %q is not a sequence number", token)
	}
	return n, nil
}

// acquireStream counts one event-stream client against the subscriber
// limit; ok=false means the server is at capacity.
func (s *Server) acquireStream() bool {
	if s.streams.Add(1) > int64(s.streamLimit) {
		s.streams.Add(-1)
		return false
	}
	return true
}

func (s *Server) releaseStream() { s.streams.Add(-1) }

// handleJobEvents streams one job's events (GET /v1/jobs/{id}/events).
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request, id string) {
	after, err := afterSeq(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if !s.acquireStream() {
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, "event subscriber limit reached, retry later")
		return
	}
	defer s.releaseStream()
	ch, err := s.jobs.Watch(r.Context(), id, after)
	switch {
	case errors.Is(err, jobs.ErrNotFound):
		writeError(w, http.StatusNotFound, err.Error())
		return
	case errors.Is(err, events.ErrTooManySubscribers):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, err.Error())
		return
	case err != nil:
		writeError(w, http.StatusBadGateway, err.Error())
		return
	}
	s.streamSSE(w, r, ch, id)
}

// handleEventFeed streams the global job feed (GET /v1/events). The
// optional state= parameter keeps only events whose post-event lifecycle
// state matches (resync markers always pass — they mean "you missed
// some"). The feed is live-only: there is no cross-job resume position,
// so Last-Event-ID is not honoured here.
func (s *Server) handleEventFeed(w http.ResponseWriter, r *http.Request) {
	state := r.URL.Query().Get("state")
	if state != "" {
		switch jobs.State(state) {
		case jobs.StateQueued, jobs.StateRunning, jobs.StateDone, jobs.StateFailed:
		default:
			writeError(w, http.StatusBadRequest,
				fmt.Sprintf("unknown state %q; use queued, running, done or failed", state))
			return
		}
	}
	if !s.acquireStream() {
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, "event subscriber limit reached, retry later")
		return
	}
	defer s.releaseStream()
	sub, err := s.jobs.EventHub().Subscribe("", 0)
	if err != nil {
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	defer sub.Close()

	// Bridge the subscription into a channel so the firehose shares the
	// per-job streaming loop (heartbeats, flush discipline).
	ctx := r.Context()
	ch := make(chan events.Event, 16)
	go func() {
		defer close(ch)
		for {
			e, err := sub.Next(ctx)
			if err != nil {
				return
			}
			if state != "" && e.State != state && e.Type != events.TypeResync {
				continue
			}
			select {
			case ch <- e:
			case <-ctx.Done():
				return
			}
		}
	}()
	s.streamSSE(w, r, ch, "")
}

// streamSSE writes events from ch as SSE frames until the channel closes
// or the client disconnects, heartbeating while idle. For per-job streams
// (id != ""), a terminal done event without an embedded result gets the
// finished response document attached, so the stream's last frame carries
// the same data the result route serves.
func (s *Server) streamSSE(w http.ResponseWriter, r *http.Request, ch <-chan events.Event, id string) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported by this connection")
		return
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-store")
	h.Set("X-Accel-Buffering", "no") // SSE must not be proxy-buffered
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	hb := time.NewTicker(s.heartbeat)
	defer hb.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-hb.C:
			if events.WriteHeartbeat(w) != nil {
				return
			}
			flusher.Flush()
		case e, ok := <-ch:
			if !ok {
				return
			}
			// Terminal done events (including a terminal snapshot of a
			// done job) carry the result document.
			if id != "" && e.Terminal() && len(e.Result) == 0 &&
				e.Type != events.TypeFailed && e.Type != events.TypeEvicted && e.State != string(jobs.StateFailed) {
				e.Result = s.resultDocument(id)
			}
			if events.WriteFrame(w, e) != nil {
				return
			}
			flusher.Flush()
		}
	}
}

// resultDocument fetches a finished job's result in compact form, the
// embedded form of the terminal event, derived once per result. Nil when
// the result is not (or no longer) available; the client falls back to
// the result route.
func (s *Server) resultDocument(id string) json.RawMessage {
	val, err := s.jobs.Result(id)
	if err != nil {
		return nil
	}
	return jobs.CompactJSON(val)
}
