// Package server implements the paper's stated future work (Section 6):
// "a web-based system on the Internet — the user will be able to upload a
// video sequence of a standing long jump ... the system will be able to
// respond with advices to the user."
//
// The service accepts a clip as a multipart upload of PPM frames (plus a
// truth.txt carrying the manual first-frame stick figure), runs the
// requested pipeline stages, and responds with a JSON report: per-rule
// outcomes, advice strings, jump phases and distance.
//
// The versioned surface lives under /v1:
//
//	POST /v1/analyze        synchronous analysis (the caller waits);
//	POST /v1/jobs           asynchronous: 202 + job id into the bounded
//	                        queue of the configured jobs.Dispatcher;
//	GET  /v1/jobs           job history, newest-first (state=, limit=);
//	GET  /v1/jobs/{id}      lifecycle state and pipeline stage;
//	GET  /v1/jobs/{id}/result  the finished AnalysisResponse;
//	GET  /v1/metrics        queue, throughput, latency and cache counters;
//	GET  /v1/rules          Tables 1-2; GET /v1/healthz liveness.
//
// Uploads take optional form fields: poses=1 / silhouettes=1 shape the
// response, and stages selects a pipeline prefix (e.g. stages=segmentation
// returns silhouettes without running the GA). Every resource has exactly
// one route, under /v1; only the upload form at / sits outside it.
//
// Results are cached content-addressed in the artifact store: the SHA-256
// of the frames' artifact hash, manual pose, analyzer-config fingerprint,
// stage selection and response options (jobs.RequestKey) keys the finished
// response document, stored as a result/v1 blob, and a resubmission of an
// identical clip — on either the sync or the async route — is answered
// from the store without re-running the pipeline or enqueueing a job.
// Every route answers wrong methods with 405, an Allow header and the
// shared JSON error envelope.
package server

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/sljmotion/sljmotion/internal/artifacts"
	"github.com/sljmotion/sljmotion/internal/cache"
	"github.com/sljmotion/sljmotion/internal/core"
	"github.com/sljmotion/sljmotion/internal/events"
	"github.com/sljmotion/sljmotion/internal/imaging"
	"github.com/sljmotion/sljmotion/internal/jobs"
	"github.com/sljmotion/sljmotion/internal/obs"
	"github.com/sljmotion/sljmotion/internal/pose"
	"github.com/sljmotion/sljmotion/internal/scoring"
	"github.com/sljmotion/sljmotion/internal/stickmodel"
)

// MaxUploadBytes bounds one upload (frames are small PPMs; 64 MiB is ample).
const MaxUploadBytes = 64 << 20

// AnalysisResponse is the JSON document returned for one analysed clip.
// Stage-limited requests fill only the fields their stages computed; the
// stages field names them (it is omitted on full-pipeline runs).
type AnalysisResponse struct {
	Frames       int             `json:"frames"`
	TakeoffFrame int             `json:"takeoff_frame"`
	LandingFrame int             `json:"landing_frame"`
	DistancePx   float64         `json:"distance_px"`
	DistanceM    float64         `json:"distance_m,omitempty"`
	Score        string          `json:"score"` // e.g. "7/7"
	Passed       int             `json:"passed"`
	Total        int             `json:"total"`
	Rules        []RuleOut       `json:"rules"`
	Advice       []string        `json:"advice"`
	Poses        []PoseOut       `json:"poses,omitempty"`
	Phases       []string        `json:"phases"`
	Stages       []string        `json:"stages,omitempty"`
	Silhouettes  []SilhouetteOut `json:"silhouettes,omitempty"`
	// StageMS records wall-clock milliseconds per executed pipeline stage.
	// It is the one non-deterministic field of the document: cross-run
	// byte-comparisons must strip it (e2etest.StripVolatile) before diffing.
	StageMS map[string]float64 `json:"stage_ms,omitempty"`
}

// RuleOut is one scored rule in the response.
type RuleOut struct {
	ID       string  `json:"id"`
	Standard string  `json:"standard"`
	Formula  string  `json:"formula"`
	Stage    string  `json:"stage"`
	Value    float64 `json:"value_deg"`
	Passed   bool    `json:"passed"`
	AtFrame  int     `json:"at_frame"`
}

// PoseOut is one estimated stick model in the response.
type PoseOut struct {
	Frame int        `json:"frame"`
	X     float64    `json:"x"`
	Y     float64    `json:"y"`
	Rho   [8]float64 `json:"rho"`
}

// SilhouetteOut is one segmented frame in the response (silhouettes=1).
// Mask is the silhouette bitmap, row-major, bit-packed MSB-first within
// each byte and base64-encoded.
type SilhouetteOut struct {
	Frame int    `json:"frame"`
	W     int    `json:"w"`
	H     int    `json:"h"`
	Area  int    `json:"area"`
	BBox  [4]int `json:"bbox"` // x0, y0, x1, y1 (inclusive)
	Mask  string `json:"mask_b64"`
}

// errorResponse is the JSON error envelope shared by every route. State is
// set only where a job lifecycle state disambiguates the error (the result
// route of a failed job reports state "failed"); everywhere else it is
// omitted and the envelope is unchanged. Code, likewise optional, is a
// stable machine-readable discriminator for errors clients react to
// programmatically (e.g. "chunk_out_of_order" → resync the chunk counter),
// where matching the prose would be brittle.
type errorResponse struct {
	Error string `json:"error"`
	State string `json:"state,omitempty"`
	Code  string `json:"code,omitempty"`
}

// Options configure the asynchronous job path and the artifact store, which
// also holds finished results.
type Options struct {
	// Workers is the analysis worker pool size.
	Workers int
	// QueueSize bounds the number of jobs waiting beyond the running ones;
	// a full queue answers 503 with Retry-After.
	QueueSize int
	// ResultTTL evicts finished job results this long after completion.
	ResultTTL time.Duration
	// Journal makes the in-process job table durable: submissions, state
	// transitions and evictions are appended to it, and construction
	// replays the log — interrupted jobs re-run, finished results stay
	// pollable across a restart (slj-serve -journal; DESIGN.md §11). The
	// caller keeps ownership of closing it after the server closes.
	// Ignored when Dispatcher is set (a remote backend journals on its
	// worker nodes).
	Journal jobs.Journal
	// Dispatcher overrides the in-process worker pool with an external job
	// backend (e.g. the remote HTTP fan-out dispatcher). When set,
	// Workers/QueueSize/ResultTTL are ignored; on successful construction
	// the server takes ownership of closing it.
	Dispatcher jobs.Dispatcher
	// Worker additionally mounts the worker-node intake route
	// (POST /v1/worker/jobs): serialized job payloads in, the standard
	// submit/poll lifecycle out. Front ends fanning work out via a remote
	// dispatcher point it at nodes running with this enabled.
	Worker bool
	// EventSubscribers caps concurrently connected event-stream clients
	// across both SSE routes; excess subscribers answer 503 + Retry-After.
	// It also sizes the in-process event hub's subscriber limit.
	EventSubscribers int
	// EventBuffer bounds each subscriber's pending-event ring; a client
	// this far behind is resynced (snapshot + delta) instead of ever
	// blocking the pipeline.
	EventBuffer int
	// EventHeartbeat is the SSE keep-alive comment interval.
	EventHeartbeat time.Duration
	// Log receives the server's structured logs (and is threaded into the
	// in-process job manager so lifecycle lines correlate by job_id and
	// trace_id). When nil, the legacy *log.Logger passed to New is wrapped
	// as a plain text handler; if that is nil too, logs are discarded.
	Log *slog.Logger
	// PProf mounts net/http/pprof under /debug/pprof/ (slj-serve -pprof).
	// Off by default: the profiling surface is opt-in, never public.
	PProf bool
	// MaxPayloadBytes bounds one serialized payload on the worker intake
	// route (slj-serve -max-payload-bytes); 0 selects MaxUploadBytes.
	// Inline payloads get double this (base64 inflation headroom);
	// by-reference payloads get exactly this.
	MaxPayloadBytes int64
	// ArtifactBlobs / ArtifactBytes / ArtifactTTL bound the content-
	// addressed artifact store, finished results included; zero fields
	// take artifacts.DefaultConfig.
	ArtifactBlobs int
	ArtifactBytes int64
	ArtifactTTL   time.Duration
	// ArtifactSpillDir, when set, spills artifact blobs to disk so LRU
	// pressure demotes them instead of dropping them.
	ArtifactSpillDir string
	// ClipTTL expires idle clip-ingest sessions; 0 selects
	// artifacts.DefaultSessionTTL.
	ClipTTL time.Duration
	// Replicator, when set, pushes this node's finished results to the
	// ring successor named by each job's payload (Payload.ReplicaTarget),
	// turning a later node death into a successor cache hit instead of a
	// recompute. Worker nodes in a replicating fleet set this (slj-serve
	// wires a dispatch.Replicator); the caller keeps ownership of closing
	// it after the server closes.
	Replicator jobs.ReplicaSink
	// StallAfter is the in-process queue-stall watchdog threshold (deep
	// health degrades the "queue" component past it); zero selects
	// jobs.DefaultStallAfter. Ignored when Dispatcher is set.
	StallAfter time.Duration
}

// DefaultOptions returns a small-deployment default (jobs.DefaultConfig
// workers/queue, artifacts.DefaultConfig store).
func DefaultOptions() Options {
	d := jobs.DefaultConfig()
	e := events.DefaultConfig()
	return Options{
		Workers: d.Workers, QueueSize: d.QueueSize, ResultTTL: d.ResultTTL,
		EventSubscribers: e.MaxSubscribers, EventBuffer: e.SubscriberBuffer,
		EventHeartbeat:  15 * time.Second,
		MaxPayloadBytes: MaxUploadBytes,
	}
}

// Server is the HTTP front end over the analyzer.
type Server struct {
	cfg    core.Config
	cfgFP  string // config fingerprint folded into cache keys
	log    *slog.Logger
	jobs   jobs.Dispatcher
	fleet  jobs.Fleet // the backend's fleet surface; nil answers the fleet routes 501
	worker bool       // mounts the payload intake route
	pprof  bool       // mounts /debug/pprof/

	// artifacts is the content-addressed blob store behind /v1/artifacts,
	// the by-reference request path and the result cache; clips is the
	// chunked-ingest session layer over it; maxPayload is the
	// worker-intake body cap.
	artifacts  *artifacts.Store
	clips      *artifacts.Sessions
	maxPayload int64

	// SSE stream accounting: streams counts connected event-stream
	// clients against streamLimit; heartbeat paces keep-alive comments.
	streamLimit int
	heartbeat   time.Duration
	streams     atomic.Int64

	mu       sync.Mutex
	analyzed int // clips analysed since start, served by /v1/healthz

	// replica is the successor-replication push sink (worker side).
	replica jobs.ReplicaSink

	// testExec, when set, replaces the analysis executor behind POST /v1/jobs
	// (and makes the route skip upload parsing) — a white-box seam for
	// deterministic queue tests.
	testExec jobs.Executor
}

// New builds a server with DefaultOptions; logger may be nil for silent
// operation.
func New(cfg core.Config, logger *log.Logger) (*Server, error) {
	return NewWithOptions(cfg, logger, DefaultOptions())
}

// NewWithOptions builds a server with an explicitly configured job
// dispatcher and artifact store.
func NewWithOptions(cfg core.Config, logger *log.Logger, opts Options) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	lg := opts.Log
	if lg == nil {
		if logger != nil {
			lg = slog.New(slog.NewTextHandler(logger.Writer(), nil))
		} else {
			lg = obs.Discard()
		}
	}
	def := DefaultOptions()
	if opts.EventSubscribers <= 0 {
		opts.EventSubscribers = def.EventSubscribers
	}
	if opts.EventBuffer <= 0 {
		opts.EventBuffer = def.EventBuffer
	}
	if opts.EventHeartbeat <= 0 {
		opts.EventHeartbeat = def.EventHeartbeat
	}
	if opts.MaxPayloadBytes <= 0 {
		opts.MaxPayloadBytes = def.MaxPayloadBytes
	}
	// The artifact store and ingest sessions are built before the
	// dispatcher so a config error here never leaves a started worker pool
	// (or a caller-supplied dispatcher the server would own) leaking on the
	// error path.
	acfg := artifacts.DefaultConfig()
	if opts.ArtifactBlobs > 0 {
		acfg.MaxBlobs = opts.ArtifactBlobs
	}
	if opts.ArtifactBytes > 0 {
		acfg.MaxBytes = opts.ArtifactBytes
	}
	if opts.ArtifactTTL > 0 {
		acfg.TTL = opts.ArtifactTTL
	}
	acfg.SpillDir = opts.ArtifactSpillDir
	blobs, err := artifacts.NewStore(acfg)
	if err != nil {
		return nil, err
	}
	clips, err := artifacts.NewSessions(artifacts.SessionConfig{
		Store: blobs,
		TTL:   opts.ClipTTL,
	})
	if err != nil {
		blobs.Close()
		return nil, err
	}
	s := &Server{
		cfg:         cfg,
		cfgFP:       jobs.ConfigFingerprint(cfg),
		log:         lg,
		worker:      opts.Worker,
		pprof:       opts.PProf,
		streamLimit: opts.EventSubscribers,
		heartbeat:   opts.EventHeartbeat,
		artifacts:   blobs,
		clips:       clips,
		maxPayload:  opts.MaxPayloadBytes,
		replica:     opts.Replicator,
	}
	dispatcher := opts.Dispatcher
	if dispatcher == nil {
		// The manager executes payloads through the server's analysis
		// executor (decode → run → store → response document); the test
		// seam can shadow it per instance.
		exec := jobs.ExecutorFunc(func(ctx context.Context, p jobs.Payload, progress func(string)) (any, error) {
			if s.testExec != nil {
				return s.testExec.Execute(ctx, p, progress)
			}
			return s.executeAnalysis(ctx, p, progress)
		})
		mgr, err := jobs.New(jobs.Config{
			Workers:    opts.Workers,
			QueueSize:  opts.QueueSize,
			ResultTTL:  opts.ResultTTL,
			Journal:    opts.Journal,
			StallAfter: opts.StallAfter,
			Events: events.NewHub(events.Config{
				SubscriberBuffer: opts.EventBuffer,
				MaxSubscribers:   opts.EventSubscribers,
			}),
			Log: lg,
		}, exec)
		if err != nil {
			clips.Close()
			blobs.Close()
			return nil, err
		}
		dispatcher = mgr
	}
	s.jobs = dispatcher
	if fl, ok := dispatcher.(jobs.Fleet); ok {
		s.fleet = fl
	}
	return s, nil
}

// Close shuts the job dispatcher down (see jobs.Manager.Close for the
// drain and hard-cancel semantics) and releases the artifact store.
func (s *Server) Close(ctx context.Context) error {
	err := s.jobs.Close(ctx)
	s.clips.Close()
	s.artifacts.Close()
	return err
}

// Handler returns the routed HTTP handler: the upload form at / and the
// versioned /v1 surface, one route per resource.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handleIndex)
	mux.HandleFunc("/v1/analyze", method(http.MethodPost, s.handleAnalyze))
	mux.HandleFunc("/v1/jobs", s.handleJobsRoot)
	mux.HandleFunc("/v1/jobs/", method(http.MethodGet, s.handleJobPath))
	mux.HandleFunc("/v1/metrics", method(http.MethodGet, s.handleMetrics))
	mux.HandleFunc("/v1/rules", method(http.MethodGet, s.handleRules))
	mux.HandleFunc("/v1/healthz", method(http.MethodGet, s.handleHealth))
	mux.HandleFunc("/v1/events", method(http.MethodGet, s.handleEventFeed))
	// The artifact store and clip-ingest sessions (DESIGN.md §14).
	mux.HandleFunc("/v1/artifacts", method(http.MethodPost, s.handleArtifactPut))
	mux.HandleFunc("/v1/artifacts/", method(http.MethodGet, s.handleArtifactGet))
	mux.HandleFunc("/v1/clips", method(http.MethodPost, s.handleClipOpen))
	mux.HandleFunc("/v1/clips/", s.handleClipPath)
	// Fleet administration: answered 501 unless the job backend manages
	// an elastic fleet (jobs.Fleet).
	mux.HandleFunc("/v1/fleet", method(http.MethodGet, s.handleFleet))
	// The federated cluster scrape: every member's Prometheus exposition
	// merged under a node label.
	mux.HandleFunc("/v1/fleet/metrics", method(http.MethodGet, s.handleFleetMetrics))
	mux.HandleFunc("/v1/fleet/nodes", method(http.MethodPost, s.handleFleetJoin))
	mux.HandleFunc("/v1/fleet/drain", method(http.MethodPost, s.handleFleetDrain))
	if s.worker {
		// The worker intake: serialized payloads instead of multipart
		// uploads.
		mux.HandleFunc("/v1/worker/jobs", method(http.MethodPost, s.handleWorkerJobs))
	}
	if s.pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// method enforces one HTTP method per route: anything else is answered 405
// with an Allow header and the shared JSON error envelope.
func method(allow string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != allow {
			w.Header().Set("Allow", allow)
			writeError(w, http.StatusMethodNotAllowed,
				fmt.Sprintf("method %s not allowed; use %s", r.Method, allow))
			return
		}
		h(w, r)
	}
}

// indexHTML is the minimal upload form served at /, so the paper's
// envisioned workflow — a user uploads a clip and reads the advice — works
// from a plain browser.
const indexHTML = `<!doctype html>
<title>Standing Long Jump Motion Analysis</title>
<h1>Standing Long Jump Motion Analysis</h1>
<p>Upload the frames of a side-view jump clip (PPM, named frame_NN.ppm)
and a truth.txt whose first line is the manually drawn first-frame stick
model: <code>0 x0 y0 rho0..rho7</code>.</p>
<form action="/v1/analyze" method="post" enctype="multipart/form-data">
  <p>Frames: <input type="file" name="frames" multiple required></p>
  <p>First-frame stick model: <input type="file" name="truth" required></p>
  <p><label><input type="checkbox" name="poses" value="1"> include per-frame poses</label></p>
  <p><button type="submit">Analyze</button></p>
</form>
<p>Long clips can be analysed asynchronously: POST the same form to
<code>/v1/jobs</code>, then poll <code>/v1/jobs/&lt;id&gt;</code> and fetch
<code>/v1/jobs/&lt;id&gt;/result</code>. A resubmitted identical clip is
answered from the result store immediately. The optional
<code>stages</code> field runs a pipeline prefix (e.g.
<code>stages=segmentation</code> with <code>silhouettes=1</code>).</p>
<p>See <a href="/v1/rules">/v1/rules</a> for the scoring rules (Tables 1-2
of the paper), <a href="/v1/jobs">/v1/jobs</a> for the job history
(newest-first; <code>state=</code>, <code>limit=</code>),
<a href="/v1/metrics">/v1/metrics</a> for queue and cache statistics and
<a href="/v1/healthz">/v1/healthz</a> for service status.</p>
`

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		writeError(w, http.StatusNotFound, "not found")
		return
	}
	method(http.MethodGet, s.serveIndex)(w, r)
}

func (s *Server) serveIndex(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	_, _ = io.WriteString(w, indexHTML)
}

// store keeps a finished response as a result/v1 artifact holding the
// exact bytes writeJSON serves for it, and returns those bytes. A job with
// a replica target pushes the blob there: replication carries results
// only.
func (s *Server) store(key cache.Key, resp *AnalysisResponse, target string) []byte {
	doc := marshalJSON(resp)
	if doc == nil {
		return nil
	}
	blob := artifacts.EncodeResult(key, doc)
	hash, err := s.artifacts.Put(blob)
	if err != nil {
		s.log.Warn("result not stored", "key", key.String(), "err", err)
		return doc
	}
	if s.replica != nil && target != "" {
		s.replica.ReplicateArtifact(target, hash, blob)
	}
	return doc
}

// writeResolveError maps a reference-resolution failure onto the error
// envelope: unknown hashes are 404 with a machine-readable code, anything
// else (conflicting inline+ref, corrupt blob, undecodable payload) is a 400.
func writeResolveError(w http.ResponseWriter, err error) {
	if errors.Is(err, artifacts.ErrNotFound) {
		writeErrorCode(w, http.StatusNotFound, "artifact_not_found", err.Error())
		return
	}
	writeError(w, http.StatusBadRequest, err.Error())
}

// handleAnalyze accepts a multipart POST with fields:
//
//	frames      — one or more PPM files named frame_NN.ppm (order by name);
//	truth       — a truth.txt whose first line is the manual first pose;
//	poses       — optional flag ("1") to include estimated poses;
//	silhouettes — optional flag ("1") to include the segmented masks;
//	stages      — optional pipeline prefix, e.g. "segmentation" or
//	              "segmentation..pose" (default: the full pipeline).
//
// An identical resubmission is answered from the result cache.
func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	req, framesRef, ok := requestFromHTTP(w, r)
	if !ok {
		return
	}
	// A by-reference request is keyed by its ref and resolved on a miss.
	key, err := jobs.RefKey(s.cfgFP, framesRef, req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if _, cached, hit := s.artifacts.Result(key); hit {
		writeDoc(w, http.StatusOK, artifacts.ResultDoc(cached))
		s.log.Debug("analyze cache hit", "key", key.String())
		return
	}
	if framesRef != "" {
		if req.Frames, err = artifacts.ResolveFrames(s.artifacts, framesRef); err != nil {
			writeResolveError(w, err)
			return
		}
	}

	analyzer, err := core.New(s.cfg)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	result, err := analyzer.Run(r.Context(), req, nil)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, fmt.Sprintf("analysis failed: %v", err))
		return
	}

	s.mu.Lock()
	s.analyzed++
	s.mu.Unlock()

	resp := buildResponse(result, len(req.Frames), req)
	writeDoc(w, http.StatusOK, s.store(key, resp, ""))
	s.log.Info("clip analyzed", "frames", len(req.Frames), "score", resp.Score)
}

// submitResponse acknowledges an accepted asynchronous job.
type submitResponse struct {
	ID        string `json:"id"`
	State     string `json:"state"`
	StatusURL string `json:"status_url"`
	ResultURL string `json:"result_url"`
}

// handleJobsRoot routes the /v1/jobs collection: POST submits a job, GET
// lists the job history.
func (s *Server) handleJobsRoot(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		s.handleJobs(w, r)
	case http.MethodGet:
		s.handleJobList(w, r)
	default:
		w.Header().Set("Allow", "GET, POST")
		writeError(w, http.StatusMethodNotAllowed,
			fmt.Sprintf("method %s not allowed; use GET or POST", r.Method))
	}
}

// jobListResponse is the GET /v1/jobs history document. NextCursor, when
// present, is the opaque token of the next page: pass it back as cursor=
// to continue the listing exactly where this page stopped. The position is
// by value (creation time + id), so it stays correct even when jobs ahead
// of it are TTL-evicted between pages.
type jobListResponse struct {
	Jobs       []jobs.Status `json:"jobs"`
	Count      int           `json:"count"`
	NextCursor string        `json:"next_cursor,omitempty"`
}

// cursorPrefix versions the opaque pagination token.
const cursorPrefix = "c1:"

// encodeCursor packs a listing position into the opaque page token.
func encodeCursor(st jobs.Status) string {
	raw := fmt.Sprintf("%s%d:%s", cursorPrefix, st.CreatedAt.UnixNano(), st.ID)
	return base64.RawURLEncoding.EncodeToString([]byte(raw))
}

// decodeCursor unpacks a page token back into a listing position.
func decodeCursor(token string) (created time.Time, id string, err error) {
	raw, err := base64.RawURLEncoding.DecodeString(token)
	if err != nil {
		return time.Time{}, "", errors.New("malformed cursor")
	}
	rest, ok := strings.CutPrefix(string(raw), cursorPrefix)
	if !ok {
		return time.Time{}, "", errors.New("malformed cursor")
	}
	nanos, id, ok := strings.Cut(rest, ":")
	if !ok || id == "" {
		return time.Time{}, "", errors.New("malformed cursor")
	}
	n, err := strconv.ParseInt(nanos, 10, 64)
	if err != nil {
		return time.Time{}, "", errors.New("malformed cursor")
	}
	return time.Unix(0, n), id, nil
}

// handleJobList serves the job history: every job the backend still
// remembers (with a journal configured the table survives restarts),
// newest-first. Query parameters: state=queued|running|done|failed keeps
// one lifecycle state, limit=N truncates the listing (default 100). Note
// that a remote-dispatch backend reports every non-terminal job as queued
// (it does not fan the listing out to worker nodes), so state=running is
// only meaningful on the in-process backend.
func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	f := jobs.JobFilter{Limit: 100}
	if sv := r.URL.Query().Get("state"); sv != "" {
		switch st := jobs.State(sv); st {
		case jobs.StateQueued, jobs.StateRunning, jobs.StateDone, jobs.StateFailed:
			f.State = st
		default:
			writeError(w, http.StatusBadRequest,
				fmt.Sprintf("unknown state %q; use queued, running, done or failed", sv))
			return
		}
	}
	if lv := r.URL.Query().Get("limit"); lv != "" {
		n, err := strconv.Atoi(lv)
		if err != nil || n < 1 {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("limit %q is not a positive integer", lv))
			return
		}
		f.Limit = n
	}
	if cv := r.URL.Query().Get("cursor"); cv != "" {
		created, id, err := decodeCursor(cv)
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		f.AfterCreated, f.AfterID = created, id
	}
	// Ask for one job beyond the page: its presence is what proves a next
	// page exists, without a second listing call.
	limit := f.Limit
	f.Limit = limit + 1
	listed := s.jobs.Jobs(f)
	resp := jobListResponse{}
	if len(listed) > limit {
		listed = listed[:limit]
		resp.NextCursor = encodeCursor(listed[limit-1])
	}
	resp.Jobs, resp.Count = listed, len(listed)
	writeJSON(w, http.StatusOK, resp)
}

// handleJobs accepts the same multipart clip upload as /v1/analyze but runs
// it asynchronously: the upload is encoded into a serializable job payload
// and submitted to the configured dispatcher (the in-process worker pool,
// or a remote fan-out over worker nodes); the reply is 202 Accepted with
// the job id and poll URLs. A cached identical clip is answered 200 with
// the stored AnalysisResponse — no job is enqueued. A saturated backend
// answers 503 with Retry-After — the client should back off and resubmit.
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	var payload jobs.Payload
	if s.testExec == nil {
		req, framesRef, ok := requestFromHTTP(w, r)
		if !ok {
			return
		}
		var p jobs.Payload
		var err error
		if framesRef != "" {
			// By-reference submissions dispatch thin, keyed by the hash; the
			// clip is checked here and resolved when the job runs.
			if p, err = jobs.NewArtifactPayload(s.cfgFP, framesRef, req); err == nil {
				err = artifacts.CheckFrames(s.artifacts, framesRef)
			}
		} else {
			p, err = jobs.NewAnalysisPayload(s.cfgFP, req)
		}
		if err != nil {
			writeResolveError(w, err)
			return
		}
		if key, ok := p.Key(); ok {
			if _, cached, hit := s.artifacts.Result(key); hit {
				writeDoc(w, http.StatusOK, artifacts.ResultDoc(cached))
				s.log.Debug("jobs cache hit", "key", key.String())
				return
			}
		}
		payload = p
	}
	s.submitPayload(w, r, payload)
}

// submitPayload pushes one payload into the dispatcher and answers the
// submit/backpressure protocol shared by the upload and worker routes. An
// inbound Traceparent header (a front end fanning out over worker nodes
// stamps one on the payload POST) makes this job's trace a child of the
// remote dispatch span, so the front end can graft the worker's span tree
// under its own.
func (s *Server) submitPayload(w http.ResponseWriter, r *http.Request, p jobs.Payload) {
	parent, fromRemote := obs.ParseTraceparent(r.Header.Get(obs.TraceparentHeader))
	id, err := s.jobs.SubmitTraced(p, parent)
	switch {
	case jobs.Retryable(err):
		// Propagate the backend's retry hint (a remote dispatcher carries
		// the worker node's Retry-After through); default to 1s.
		w.Header().Set("Retry-After", strconv.Itoa(jobs.RetryAfterHint(err, 1)))
		writeError(w, http.StatusServiceUnavailable, err.Error())
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	s.log.Info("job accepted", "job_id", id, "remote_trace", fromRemote)
	writeJSON(w, http.StatusAccepted, submitResponse{
		ID:        id,
		State:     string(jobs.StateQueued),
		StatusURL: "/v1/jobs/" + id,
		ResultURL: "/v1/jobs/" + id + "/result",
	})
}

// executeAnalysis is the server's jobs.Executor: it decodes one payload
// back into a staged request, runs the pipeline reporting stages as
// progress, stores the finished response in the artifact store, and
// returns the stored bytes, the document the synchronous path serves, as
// the job's value.
func (s *Server) executeAnalysis(ctx context.Context, p jobs.Payload, progress func(string)) (any, error) {
	// A payload that crossed the wire still naming its frames by hash (a
	// journal replay, a by-reference submission; the worker intake stashes
	// its resolution) has them materialised here — pulled from the
	// originating front end when the local store misses — before running.
	req, err := artifacts.PayloadRequest(s.resolver(p.ArtifactOrigin), p)
	if err != nil {
		return nil, err
	}
	// Address the result under this server's own config fingerprint. A
	// payload this process built or resolved (worker intake) under it
	// carries the key it computed then; anything else — a journal replay —
	// is re-keyed, from its frames ref when it has one: the stamped
	// CacheKey is a routing hint, and trusting it for storage would let a
	// mislabelled payload poison the result cache.
	key, ok := p.LocalKey(s.cfgFP)
	if !ok {
		if key, err = jobs.RefKey(s.cfgFP, p.FramesRef, req); err != nil {
			return nil, err
		}
	}
	analyzer, err := core.New(s.cfg)
	if err != nil {
		return nil, err
	}
	result, err := analyzer.Run(ctx, req, func(st core.Stage) {
		progress(string(st))
	})
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.analyzed++
	s.mu.Unlock()
	resp := buildResponse(result, len(req.Frames), req)
	if doc := s.store(key, resp, p.ReplicaTarget); doc != nil {
		return jobs.NewDocument(doc), nil
	}
	return resp, nil
}

// handleJobPath routes GET /v1/jobs/{id} (status) and its /result,
// /events and /trace sub-resources.
func (s *Server) handleJobPath(w http.ResponseWriter, r *http.Request) {
	id, sub, _ := strings.Cut(strings.TrimPrefix(r.URL.Path, "/v1/jobs/"), "/")
	if id == "" {
		writeError(w, http.StatusNotFound, "missing job id")
		return
	}
	switch sub {
	case "":
		s.writeJobStatus(w, id)
	case "result":
		s.writeJobResult(w, id)
	case "events":
		s.handleJobEvents(w, r, id)
	case "trace":
		s.writeJobTrace(w, id)
	default:
		writeError(w, http.StatusNotFound, "not found")
	}
}

// writeJobTrace serves GET /v1/jobs/{id}/trace: the job's span tree, from
// submission to terminal publish. On a remote-dispatch backend the tree
// includes the fan-out spans with the worker node's own tree grafted under
// the winning submit attempt. Jobs that carry no trace — journal-replayed
// records from before the last restart — answer 404 like unknown ids.
func (s *Server) writeJobTrace(w http.ResponseWriter, id string) {
	doc, err := s.jobs.Trace(id)
	switch {
	case errors.Is(err, jobs.ErrNotFound):
		writeError(w, http.StatusNotFound, err.Error())
	case err != nil:
		writeError(w, http.StatusBadGateway, err.Error())
	default:
		writeJSON(w, http.StatusOK, doc)
	}
}

func (s *Server) writeJobStatus(w http.ResponseWriter, id string) {
	st, err := s.jobs.Status(id)
	switch {
	case errors.Is(err, jobs.ErrNotFound):
		writeError(w, http.StatusNotFound, err.Error())
	case err != nil:
		// A remote backend can fail in ways the in-process manager cannot
		// (e.g. a lost worker node); surface those instead of a zero doc.
		writeError(w, http.StatusBadGateway, err.Error())
	default:
		writeJSON(w, http.StatusOK, st)
	}
}

func (s *Server) writeJobResult(w http.ResponseWriter, id string) {
	val, err := s.jobs.Result(id)
	switch {
	case errors.Is(err, jobs.ErrNotFound):
		writeError(w, http.StatusNotFound, err.Error())
	case errors.Is(err, jobs.ErrNotFinished):
		// Not done yet: echo the status so pollers can use one URL.
		st, serr := s.jobs.Status(id)
		if serr != nil {
			writeError(w, http.StatusNotFound, serr.Error())
			return
		}
		writeJSON(w, http.StatusAccepted, st)
	case err != nil:
		// A failed job answers the shared error envelope carrying the
		// job's own error string plus the machine-readable terminal state,
		// so clients can distinguish "analysis failed" from transport
		// problems without parsing prose.
		writeJSON(w, http.StatusUnprocessableEntity, errorResponse{
			Error: fmt.Sprintf("analysis failed: %v", err),
			State: string(jobs.StateFailed),
		})
	default:
		if doc, ok := val.(*jobs.Document); ok {
			writeDoc(w, http.StatusOK, doc.Served())
			return
		}
		writeJSON(w, http.StatusOK, val)
	}
}

// handleMetrics exposes queue, throughput and cache statistics for
// scrapers. The default document is JSON, byte-identical to earlier
// releases; format=prometheus selects the text exposition format instead
// (counters, gauges and the latency histograms — see metrics_prom.go).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	switch f := r.URL.Query().Get("format"); f {
	case "", "json":
	case "prometheus":
		s.writePrometheus(w)
		return
	default:
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("unknown format %q; use json or prometheus", f))
		return
	}
	s.mu.Lock()
	analyzed := s.analyzed
	s.mu.Unlock()
	doc := map[string]any{
		"clips_analyzed": analyzed,
		"jobs":           s.jobs.Metrics(),
		"artifacts":      s.artifacts.Metrics(),
		"clip_sessions":  s.clips.Metrics(),
		"ga":             pose.GAMetrics(),
		"cache":          s.artifacts.ResultMetrics(),
	}
	if s.replica != nil {
		doc["replication"] = map[string]jobs.ReplicaMetrics{"push": s.replica.ReplicaMetrics()}
	}
	writeJSON(w, http.StatusOK, doc)
}

// handleRules lists Table 1 and Table 2 so clients can render them.
func (s *Server) handleRules(w http.ResponseWriter, r *http.Request) {
	type ruleDoc struct {
		ID       string `json:"id"`
		Standard string `json:"standard"`
		Stage    string `json:"stage"`
		Formula  string `json:"formula"`
		Text     string `json:"text"`
	}
	std := map[string]string{}
	for _, s := range scoring.Standards() {
		std[s.ID] = s.Description
	}
	var docs []ruleDoc
	for _, rl := range scoring.Rules() {
		docs = append(docs, ruleDoc{
			ID: rl.ID, Standard: rl.Standard, Stage: rl.Stage.String(),
			Formula: rl.Formula, Text: std[rl.Standard],
		})
	}
	writeJSON(w, http.StatusOK, docs)
}

// handleHealth serves the deep-health document: the overall status plus
// one verdict per watchdog component (queue stall, fleet routability,
// drain progress, replication backlog). The HTTP status is 200
// even when degraded — a stalled process is alive, and the dispatch
// liveness prober must not mistake degraded for dead; the fleet JOIN
// probe, by contrast, reads the body and refuses degraded members.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	n := s.analyzed
	s.mu.Unlock()
	components := s.componentHealth()
	status := jobs.HealthOK
	for _, c := range components {
		if c.Status != jobs.HealthOK {
			status = jobs.HealthDegraded
			break
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":         status,
		"clips_analyzed": n,
		"components":     components,
	})
}

// componentHealth merges every subsystem's watchdog verdict: the job
// backend's own components (queue stall for the Manager; fleet
// routability and drain progress for the remote dispatcher) and the
// replication push backlog.
func (s *Server) componentHealth() map[string]jobs.ComponentHealth {
	components := s.jobs.ComponentHealth()
	if s.replica != nil {
		comp := jobs.HealthOKComponent()
		if depth, capacity := s.replica.Backlog(); capacity > 0 && depth*5 >= capacity*4 {
			comp = jobs.HealthDegradedComponent(
				"replication backlog %d/%d: pushes are about to drop", depth, capacity)
		}
		components["replication"] = comp
	}
	return components
}

// requestFromHTTP parses one analysis request off the HTTP request. Two
// content types are accepted: the multipart clip upload (frames inline),
// and an application/json document naming a sealed clip's frames by
// content hash (see requestFromJSON), returned as framesRef for the caller
// to resolve. On any problem it writes the HTTP error itself and returns
// ok=false. Both routes take frames, so every request enters the pipeline
// at segmentation (parseStages); mid-pipeline entry is a library feature.
func requestFromHTTP(w http.ResponseWriter, r *http.Request) (req core.Request, framesRef string, ok bool) {
	if ct := r.Header.Get("Content-Type"); strings.HasPrefix(ct, "application/json") {
		return requestFromJSON(w, r)
	}
	u, err := readUpload(w, r)
	var frames []*imaging.Image
	var manual stickmodel.Pose
	if err == nil {
		frames, err = u.clip()
	}
	if err == nil {
		manual, err = u.manual()
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return core.Request{}, "", false
	}
	req = core.Request{
		Frames:             frames,
		ManualFirst:        manual,
		IncludePoses:       u.values.Get("poses") == "1",
		IncludeSilhouettes: u.values.Get("silhouettes") == "1",
	}
	if req.Stages, ok = parseStages(w, u.values.Get("stages")); !ok {
		return core.Request{}, "", false
	}
	return req, "", true
}

// parseStages parses an HTTP stage selection ("" = the full pipeline),
// which must start at segmentation: HTTP requests carry frames, not
// intermediate artifacts. On a bad selection it writes the 400 itself.
func parseStages(w http.ResponseWriter, sv string) (core.StageSelection, bool) {
	if sv == "" {
		return core.StageSelection{}, true
	}
	sel, err := core.ParseStageSelection(sv)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return core.StageSelection{}, false
	}
	if sel.Normalize().First != core.StageSegmentation {
		writeError(w, http.StatusBadRequest,
			"stage selection over HTTP must start at segmentation; mid-pipeline entry is a library feature")
		return core.StageSelection{}, false
	}
	return sel, true
}

// buildResponse converts a (possibly stage-limited) analysis result to the
// wire document. Full-pipeline documents are identical to the pre-/v1 API;
// stage-limited ones fill only what their stages computed and name them in
// the stages field.
func buildResponse(result *core.Result, nFrames int, req core.Request) *AnalysisResponse {
	resp := &AnalysisResponse{Frames: nFrames}
	sel := req.Stages.Normalize()
	if !sel.IsFull() {
		for _, st := range sel.Selected() {
			resp.Stages = append(resp.Stages, string(st))
		}
	}
	if result.Track != nil {
		resp.TakeoffFrame = result.Track.TakeoffFrame
		resp.LandingFrame = result.Track.LandingFrame
		resp.DistancePx = result.Track.JumpDistancePx
		resp.DistanceM = result.Track.JumpDistanceM
		for _, ph := range result.Track.Phases {
			resp.Phases = append(resp.Phases, ph.String())
		}
	}
	if result.Report != nil {
		resp.Passed = result.Report.Passed
		resp.Total = result.Report.Total
		resp.Score = fmt.Sprintf("%d/%d", result.Report.Passed, result.Report.Total)
		resp.Advice = append([]string(nil), result.Report.Advice...)
		for _, rr := range result.Report.Results {
			resp.Rules = append(resp.Rules, RuleOut{
				ID:       rr.Rule.ID,
				Standard: rr.Rule.Standard,
				Formula:  rr.Rule.Formula,
				Stage:    rr.Rule.Stage.String(),
				Value:    rr.Value,
				Passed:   rr.Passed,
				AtFrame:  rr.AtFrame,
			})
		}
	}
	if req.IncludePoses {
		for k, p := range result.Poses {
			resp.Poses = append(resp.Poses, PoseOut{Frame: k, X: p.X, Y: p.Y, Rho: p.Rho})
		}
	}
	if len(result.StageMS) > 0 {
		resp.StageMS = make(map[string]float64, len(result.StageMS))
		for k, v := range result.StageMS {
			resp.StageMS[k] = v
		}
	}
	if req.IncludeSilhouettes {
		for _, sil := range result.Silhouettes {
			resp.Silhouettes = append(resp.Silhouettes, SilhouetteOut{
				Frame: sil.Frame,
				W:     sil.Mask.W,
				H:     sil.Mask.H,
				Area:  sil.Area,
				BBox:  [4]int{sil.BBox.X0, sil.BBox.Y0, sil.BBox.X1, sil.BBox.Y1},
				Mask:  maskToB64(sil.Mask),
			})
		}
	}
	return resp
}

// maskToB64 bit-packs a mask row-major (MSB first within each byte) and
// base64-encodes it.
func maskToB64(m *imaging.Mask) string {
	packed := make([]byte, (len(m.Bits)+7)/8)
	for i, b := range m.Bits {
		if b {
			packed[i/8] |= 1 << (7 - i%8)
		}
	}
	return base64.StdEncoding.EncodeToString(packed)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	writeDoc(w, status, marshalJSON(v))
}

// marshalJSON renders v as every route serves it: two-space indent and a
// trailing newline. It returns nil if v cannot be encoded.
func marshalJSON(v any) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return nil
	}
	return buf.Bytes()
}

// writeDoc writes an already-encoded JSON document.
func writeDoc(w http.ResponseWriter, status int, doc []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(doc)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, errorResponse{Error: msg})
}

// writeErrorCode writes the error envelope with a machine-readable code.
func writeErrorCode(w http.ResponseWriter, status int, code, msg string) {
	writeJSON(w, status, errorResponse{Error: msg, Code: code})
}
