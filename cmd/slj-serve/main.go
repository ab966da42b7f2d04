// Command slj-serve runs the web service the paper names as future work:
// upload a standing-long-jump clip, receive a JSON analysis with scores and
// advice.
//
// Usage:
//
//	slj-serve [-addr :8080] [-workers N] [-queue N] [-result-ttl 15m]
//	          [-parallelism N]
//	          [-journal path] [-worker] [-dispatch-nodes url1,url2,...]
//	          [-fleet] [-replicate]
//	          [-join url -advertise url] [-join-weight N] [-drain-on-shutdown]
//	          [-event-subscribers N] [-event-buffer N]
//	          [-log-level info] [-log-format text] [-pprof]
//
// Endpoints (one route per resource, all under /v1):
//
//	POST /v1/analyze  synchronous: multipart form with 'frames' = PPM
//	                  files (ordered by name), 'truth' = truth.txt with
//	                  the manual first-frame pose, optional 'poses=1' /
//	                  'silhouettes=1' to shape the response and 'stages'
//	                  to run a pipeline prefix (e.g. stages=segmentation).
//	POST /v1/jobs     asynchronous: same form; replies 202 with a job id,
//	                  200 with the stored response for a resubmitted
//	                  identical clip, or 503 + Retry-After when the queue
//	                  is full.
//	GET  /v1/jobs     job history, newest-first (state=..., limit=N,
//	                  cursor= pagination; the reply's next_cursor token
//	                  continues the listing).
//	GET  /v1/jobs/{id}         job lifecycle state and pipeline stage.
//	GET  /v1/jobs/{id}/result  the AnalysisResponse once the job is done.
//	GET  /v1/jobs/{id}/trace   the job's span tree: where the wall-clock
//	                  time went (queue wait, each pipeline stage, journal
//	                  append, publish; on a dispatching front end, the
//	                  fan-out attempts with the worker node's tree grafted
//	                  underneath).
//	GET  /v1/jobs/{id}/events  server-sent events: live lifecycle and
//	                  per-stage progress (curl -N; Last-Event-ID resumes
//	                  a dropped stream; the terminal frame embeds the
//	                  result document).
//	GET  /v1/events   the global event feed of every job (state= filter),
//	                  for dashboards.
//	GET  /v1/metrics  queue depth, throughput counters, latency stats and
//	                  result-cache hit/miss counters (JSON by default;
//	                  ?format=prometheus serves the text exposition format
//	                  with latency histograms and runtime gauges).
//	GET  /v1/rules    the encoded Tables 1-2.
//	GET  /v1/healthz  deep health: overall status, clips analysed, and one
//	                  verdict per watchdog component (queue stall, fleet
//	                  routability, drain progress, replication backlog).
//	                  HTTP 200 even when degraded.
//	GET  /v1/fleet/metrics  the federated cluster scrape: every fleet
//	                  member's Prometheus exposition merged under a node
//	                  label (dispatching front ends only).
//
// /v1/metrics?format=prometheus exposes the deep-health verdicts as
// per-component gauges (slj_health_component_ok).
//
// Streaming ingest + content-addressed artifacts (DESIGN.md §14): POST
// /v1/clips opens a chunked upload session, PUT /v1/clips/{id}/frames
// appends ordered frame chunks, POST /v1/clips/{id}/seal stores the
// complete clip as one frames artifact and yields its hash, and an
// application/json POST to /v1/analyze or /v1/jobs naming frames_ref
// analyses the stored clip without re-uploading a byte. Frames are the
// only artifact a request names, and HTTP stage selections start at
// segmentation. Artifact blobs are stored/served at /v1/artifacts
// (-artifact-blobs/-artifact-bytes/
// -artifact-ttl bound the store, -artifact-spill adds a disk tier,
// -clip-ttl expires idle sessions). The same store is the result cache:
// every finished response is kept as a result/v1 blob under its request
// key, so an identical resubmission is answered without re-running the
// pipeline, within the same -artifact-* bounds. A dispatching front end sets
// -artifact-origin to its own public base URL so worker nodes can pull
// a referenced frames artifact by hash (-max-payload-bytes caps the
// worker intake body; by-reference payloads skip the base64 headroom).
//
// -workers sizes the analysis worker pool and -queue the submission queue
// (backpressure beyond it). -result-ttl bounds how long finished results
// stay pollable. -parallelism fans the per-frame hot paths of one analysis
// out over that many goroutines (0 keeps each analysis sequential).
// -event-subscribers caps concurrently
// connected event-stream clients (excess answers 503 + Retry-After) and
// -event-buffer sizes each subscriber's pending-event ring (a slower
// client is resynced — snapshot + delta — never allowed to stall the
// pipeline).
//
// -journal makes the job table durable (DESIGN.md §11): every submission,
// state transition and TTL eviction is appended to a JSON-lines journal at
// the given path (fsynced on terminal transitions; clip payloads and
// results live as blob files in path+".blobs"), and a restart replays
// it — interrupted jobs re-run to identical results, finished results stay
// pollable with their original timestamps, and GET /v1/jobs serves the
// surviving history. Without -journal jobs live in memory only and a
// restart drops them.
//
// Multi-node deployment (DESIGN.md §10): start N nodes with -worker — they
// additionally accept serialized job payloads at POST /v1/worker/jobs —
// and one front end with -dispatch-nodes listing them. The front end then
// fans every asynchronous job out over the pool, hash-routed by the
// request's cache key so identical clips hit the node that already cached
// their result:
//
//	slj-serve -worker -addr :8081 &
//	slj-serve -worker -addr :8082 &
//	slj-serve -dispatch-nodes http://localhost:8081,http://localhost:8082
//
// The fleet is elastic (DESIGN.md §16): -fleet runs the front end even with
// an empty node list, workers register themselves at runtime with -join
// http://front -advertise http://me (weighted by -join-weight for uneven
// hardware), and -drain-on-shutdown makes SIGTERM leave the ring gracefully
// — no new keys, in-flight jobs finish, then removal — before the listener
// stops. -replicate on the front end stamps every payload with its ring
// successor; workers push finished results, and only those, to its
// POST /v1/artifacts, so a node death fails over to a warm cache instead
// of recomputing. A by-hash job whose result never reached the successor
// fails over to a recompute there, its frames pulled from the front end.
//
// Example round trip against a synthetic clip:
//
//	slj-synth -out /tmp/clip
//	curl -s -X POST http://localhost:8080/v1/jobs \
//	  $(for f in /tmp/clip/frame_*.ppm; do printf ' -F frames=@%s' "$f"; done) \
//	  -F truth=@/tmp/clip/truth.txt
//	curl -s http://localhost:8080/v1/jobs/<id>/result | head
//
// Logging is structured (log/slog) and correlated: every job lifecycle
// line carries its job_id and trace_id. -log-level picks the threshold
// (debug, info, warn, error) and -log-format the encoding (text or json).
// -pprof mounts net/http/pprof under /debug/pprof/ for live CPU and heap
// profiles — opt-in, never on by default.
//
// SIGINT/SIGTERM shut the service down gracefully: the listener stops, the
// job queue drains (up to -drain-timeout), then in-flight work is cancelled.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/sljmotion/sljmotion/internal/core"
	"github.com/sljmotion/sljmotion/internal/dispatch"
	"github.com/sljmotion/sljmotion/internal/journal"
	"github.com/sljmotion/sljmotion/internal/obs"
	"github.com/sljmotion/sljmotion/internal/server"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "slj-serve:", err)
		os.Exit(1)
	}
}

func run() error {
	defaults := server.DefaultOptions()
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		workers     = flag.Int("workers", defaults.Workers, "analysis worker pool size")
		queue       = flag.Int("queue", defaults.QueueSize, "job submission queue size (backpressure beyond it)")
		resultTTL   = flag.Duration("result-ttl", defaults.ResultTTL, "how long finished job results stay pollable")
		parallelism = flag.Int("parallelism", 0, "per-analysis frame/fitness fan-out (0 = sequential)")
		drain       = flag.Duration("drain-timeout", 30*time.Second, "graceful shutdown drain budget")
		journalPath = flag.String("journal", "", "durable job journal path; restarts replay it (re-running interrupted jobs, restoring finished results)")
		worker      = flag.Bool("worker", false, "run as a worker node: accept serialized job payloads at POST /v1/worker/jobs")
		nodes       = flag.String("dispatch-nodes", "", "comma-separated worker base URLs; fan asynchronous jobs out over them instead of the in-process pool")
		eventSubs   = flag.Int("event-subscribers", defaults.EventSubscribers, "max concurrently connected event-stream (SSE) clients; excess answers 503")
		eventBuffer = flag.Int("event-buffer", defaults.EventBuffer, "per-subscriber pending-event ring; slower clients are resynced, never block the pipeline")
		logLevel    = flag.String("log-level", "info", "log threshold: debug, info, warn or error")
		logFormat   = flag.String("log-format", "text", "log encoding: text or json")
		pprofOn     = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (live CPU/heap profiles)")

		maxPayload    = flag.Int64("max-payload-bytes", defaults.MaxPayloadBytes, "worker-intake payload body cap; inline payloads get double this (base64 headroom), by-reference payloads exactly this")
		artifactBlobs = flag.Int("artifact-blobs", 0, "artifact store blob-count bound (0 = default)")
		artifactBytes = flag.Int64("artifact-bytes", 0, "artifact store byte bound (0 = default)")
		artifactTTL   = flag.Duration("artifact-ttl", 0, "artifact lifetime after last store (0 = default)")
		artifactSpill = flag.String("artifact-spill", "", "directory to write-through-spill artifact blobs to (survives LRU eviction and restarts)")
		clipTTL       = flag.Duration("clip-ttl", 0, "idle clip-ingest session lifetime (0 = default)")
		artOrigin     = flag.String("artifact-origin", "", "this front end's public base URL, stamped into by-reference payloads so workers know where to pull artifacts (front ends with -dispatch-nodes)")

		fleet           = flag.Bool("fleet", false, "run the elastic dispatch front end even with an empty -dispatch-nodes; workers join at runtime via POST /v1/fleet/nodes")
		replicate       = flag.Bool("replicate", false, "front end: stamp each payload's ring successor so workers push their finished results there (node death becomes a cache hit)")
		joinURL         = flag.String("join", "", "worker: front-end base URL to register with at startup (POST /v1/fleet/nodes, retried until admitted)")
		advertise       = flag.String("advertise", "", "worker: this node's base URL as the fleet should reach it (required with -join)")
		joinWeight      = flag.Int("join-weight", 1, "worker: consistent-hash weight to register with (vnode multiplier for heterogeneous hardware)")
		drainOnShutdown = flag.Bool("drain-on-shutdown", false, "worker: on SIGINT/SIGTERM, drain out of the fleet (-join front end) before stopping — no new keys, in-flight finishes, then removal")

		stallAfter = flag.Duration("stall-after", 0, "queue-stall watchdog threshold: the queue health component degrades when the oldest queued job has waited longer (0 = default 2m)")
	)
	flag.Parse()

	logger, err := obs.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		return err
	}
	cfg := core.DefaultConfig()
	cfg.Parallelism = *parallelism
	opts := server.Options{
		Workers:          *workers,
		QueueSize:        *queue,
		ResultTTL:        *resultTTL,
		Worker:           *worker,
		EventSubscribers: *eventSubs,
		EventBuffer:      *eventBuffer,
		Log:              logger,
		PProf:            *pprofOn,
		MaxPayloadBytes:  *maxPayload,
		ArtifactBlobs:    *artifactBlobs,
		ArtifactBytes:    *artifactBytes,
		ArtifactTTL:      *artifactTTL,
		ArtifactSpillDir: *artifactSpill,
		ClipTTL:          *clipTTL,
		StallAfter:       *stallAfter,
	}
	var jrn *journal.Journal
	if *journalPath != "" {
		if *nodes != "" {
			return errors.New("-journal applies to the in-process job table; with -dispatch-nodes, journal on the worker nodes instead")
		}
		var err error
		if jrn, err = journal.Open(*journalPath, journal.DefaultConfig()); err != nil {
			return err
		}
		defer jrn.Close()
		opts.Journal = jrn
		logger.Info("journaling jobs (fsync on terminal transitions)", "path", *journalPath)
	}
	if *nodes != "" || *fleet {
		if *worker {
			return errors.New("-worker and -dispatch-nodes/-fleet are mutually exclusive (a node is either a front end or a worker)")
		}
		var urls []string
		for _, u := range strings.Split(*nodes, ",") {
			if u = strings.TrimSpace(u); u != "" {
				urls = append(urls, u)
			}
		}
		dcfg := dispatch.DefaultConfig()
		dcfg.Nodes = urls
		dcfg.ResultTTL = *resultTTL
		dcfg.Events.MaxSubscribers = *eventSubs
		dcfg.Events.SubscriberBuffer = *eventBuffer
		dcfg.Log = logger
		dcfg.ArtifactOrigin = strings.TrimRight(*artOrigin, "/")
		dcfg.Replicate = *replicate
		d, err := dispatch.New(dcfg)
		if err != nil {
			return err
		}
		opts.Dispatcher = d
		logger.Info("dispatching jobs over worker nodes", "count", len(urls),
			"nodes", strings.Join(urls, ", "), "replicate", *replicate)
	}
	if *joinURL != "" && !*worker {
		return errors.New("-join registers a worker with a front end; it needs -worker")
	}
	if *joinURL != "" && *advertise == "" {
		return errors.New("-join needs -advertise: the base URL the fleet should reach this node at")
	}
	if *worker {
		// Workers carry the successor-replication sink unconditionally: it
		// only activates when a payload names a replica target, which the
		// front end controls with -replicate.
		repl := dispatch.NewReplicator(nil)
		defer repl.Close()
		opts.Replicator = repl
	}
	srv, err := server.NewWithOptions(cfg, nil, opts)
	if err != nil {
		if opts.Dispatcher != nil {
			_ = opts.Dispatcher.Close(context.Background())
		}
		return err
	}
	httpServer := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() {
		logger.Info("listening", "addr", *addr, "workers", *workers, "queue", *queue,
			"result_ttl", *resultTTL, "parallelism", *parallelism, "pprof", *pprofOn)
		errCh <- httpServer.ListenAndServe()
	}()
	if *joinURL != "" {
		// Register with the front end once our listener is answering probes.
		// The front end health-probes the advertised URL before admitting, so
		// a retry loop covers both orderings of startup.
		go fleetJoin(ctx, logger, strings.TrimRight(*joinURL, "/"), strings.TrimRight(*advertise, "/"), *joinWeight)
	}

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}

	if *drainOnShutdown && *joinURL != "" {
		// Leave the ring before the listener stops: the front end stops
		// routing new keys here, running jobs finish, and the membership
		// forgets this node — only then is it safe to stop serving.
		fleetDrain(logger, strings.TrimRight(*joinURL, "/"), strings.TrimRight(*advertise, "/"), *drain)
	}

	logger.Info("shutting down", "drain", *drain)
	httpCtx, cancelHTTP := context.WithTimeout(context.Background(), *drain)
	defer cancelHTTP()
	if err := httpServer.Shutdown(httpCtx); err != nil {
		logger.Warn("http shutdown", "err", err)
	}
	// The job queue gets its own drain budget: a slow in-flight synchronous
	// /v1/analyze may have consumed the whole HTTP budget above, and the queued
	// jobs still deserve their drain window before the hard cancel.
	jobsCtx, cancelJobs := context.WithTimeout(context.Background(), *drain)
	defer cancelJobs()
	if err := srv.Close(jobsCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	// The Manager's Close already synced the journal after the drain; the
	// explicit sync here covers the hard-cancel path, and the deferred
	// Close then just closes the file descriptor.
	if jrn != nil {
		if err := jrn.Sync(); err != nil {
			logger.Warn("journal sync", "err", err)
		}
	}
	logger.Info("bye")
	return nil
}

// fleetJoin registers this worker with the front end's membership, retrying
// with backoff until admitted or the process is shutting down. Admission can
// fail transiently in either direction — the front end may not be up yet, or
// its health probe of us may race our own listener — so every failure just
// waits and retries.
func fleetJoin(ctx context.Context, logger *slog.Logger, join, advertise string, weight int) {
	body, _ := json.Marshal(map[string]any{"url": advertise, "weight": weight})
	backoff := time.Second
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost,
			join+"/v1/fleet/nodes", bytes.NewReader(body))
		if err != nil {
			logger.Error("fleet join request", "err", err)
			return
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				logger.Info("joined fleet", "front", join, "as", advertise, "weight", weight)
				return
			}
			logger.Warn("fleet join refused, retrying", "front", join, "status", resp.StatusCode, "backoff", backoff)
		} else if ctx.Err() != nil {
			return
		} else {
			logger.Warn("fleet join unreachable, retrying", "front", join, "err", err, "backoff", backoff)
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(backoff):
		}
		if backoff < 30*time.Second {
			backoff *= 2
		}
	}
}

// fleetDrain asks the front end to drain this worker and waits until the
// membership has forgotten it (in-flight jobs finished) or the budget runs
// out. Best-effort: a front end that is itself gone just means there is
// nothing left to drain from.
func fleetDrain(logger *slog.Logger, join, advertise string, budget time.Duration) {
	logger.Info("draining out of fleet", "front", join, "as", advertise)
	body, _ := json.Marshal(map[string]string{"url": advertise})
	resp, err := http.Post(join+"/v1/fleet/drain", "application/json", bytes.NewReader(body))
	if err != nil {
		logger.Warn("fleet drain request failed", "err", err)
		return
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		logger.Warn("fleet drain refused", "status", resp.StatusCode)
		return
	}
	deadline := time.Now().Add(budget)
	for time.Now().Before(deadline) {
		time.Sleep(250 * time.Millisecond)
		r, err := http.Get(join + "/v1/fleet")
		if err != nil {
			return
		}
		var view struct {
			Nodes []struct {
				URL string `json:"url"`
			} `json:"nodes"`
		}
		err = json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&view)
		r.Body.Close()
		if err != nil {
			return
		}
		still := false
		for _, n := range view.Nodes {
			if n.URL == advertise {
				still = true
				break
			}
		}
		if !still {
			logger.Info("drained out of fleet")
			return
		}
	}
	logger.Warn("fleet drain budget exhausted; shutting down anyway", "budget", budget)
}
