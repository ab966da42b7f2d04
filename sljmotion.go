// Package sljmotion is the public API of the standing-long-jump motion
// analysis system — a from-scratch Go implementation of "Motion Analysis for
// the Standing Long Jump" (Hsu et al., ICDCSW 2006).
//
// The system takes a side-view video clip of a standing long jump and
// produces:
//
//   - the segmented silhouette of the jumper in every frame (Section 2 of
//     the paper: background estimation, background subtraction, noise/spot
//     removal, hole filling, HSV shadow removal);
//   - a stick-model pose (x0, y0, ρ0..ρ7) per frame, fitted by a genetic
//     algorithm with temporal seeding (Section 3);
//   - jump-phase tracking (initiation / flight / landing), jump distance;
//   - a score report over the seven rules of Table 2 with advice for the
//     jumper (Section 4).
//
// # Quick start
//
// Analysis is request-based: an AnalysisRequest carries the input frames,
// the manual first-frame pose and (optionally) a stage selection and
// response-shaping options.
//
//	video, _ := sljmotion.GenerateSyntheticJump(sljmotion.DefaultJumpParams())
//	manual := video.ManualAnnotation(sljmotion.DefaultAnnotationError(), 1)
//	analyzer, _ := sljmotion.NewAnalyzer(sljmotion.DefaultConfig())
//	result, _ := analyzer.Run(context.Background(), sljmotion.AnalysisRequest{
//		Frames:      video.Frames,
//		ManualFirst: manual,
//	}, nil)
//	fmt.Print(result.Report)
//
// The zero Stages value runs the full pipeline; Analyze(frames, manual)
// remains as shorthand for exactly that. Partial selections run a stage
// subrange over stored artifacts — segmentation only, pose estimation from
// cached silhouettes, or tracking+scoring re-runs from cached poses:
//
//	sils, _ := analyzer.Run(ctx, sljmotion.AnalysisRequest{
//		Frames: video.Frames,
//		Stages: sljmotion.OnlyStage(sljmotion.StageSegmentation),
//	}, nil)
//	rescored, _ := analyzer.Run(ctx, sljmotion.AnalysisRequest{
//		Poses:      result.Poses,
//		Dimensions: result.Dimensions,
//		Stages:     sljmotion.SelectStages(sljmotion.StageTracking, sljmotion.StageScoring),
//	}, nil)
//
// Real footage can be supplied as a slice of *sljmotion.Image decoded from
// PPM files (ReadPPMFile); the synthetic generator exists because the
// original CCD footage is unavailable (see DESIGN.md §1).
//
// # Streaming progress
//
// Asynchronous jobs are observable live instead of by polling: a JobQueue
// streams every lifecycle transition and per-stage progress tick over
// Watch, and the web service exposes the same feed as server-sent events
// (DESIGN.md §12):
//
//	id, _ := q.SubmitJob(video.Frames, manual)
//	ch, _ := q.Watch(context.Background(), id)
//	for e := range ch { // queued → running → stage ... → done
//		fmt.Printf("#%d %s %s\n", e.Seq, e.Type, e.Stage)
//	}
//	result, _ := q.JobResult(id) // terminal event ⇒ the result is ready
//
// Over HTTP the stream lives at GET /v1/jobs/{id}/events; a dashboard
// lists jobs with GET /v1/jobs and streams each on its own route. Try it
// from a shell — submit a job, then:
//
//	curl -N http://localhost:8080/v1/jobs/<id>/events
//
// Frames carry the per-job sequence number as the SSE id, so a dropped
// connection resumes losslessly with the standard Last-Event-ID header
// (curl -N -H 'Last-Event-ID: 3' ...); the terminal frame of a finished
// job embeds the result document, so a streaming client never polls.
package sljmotion

import (
	"context"
	"errors"
	"fmt"
	"time"

	"github.com/sljmotion/sljmotion/internal/core"
	"github.com/sljmotion/sljmotion/internal/dispatch"
	"github.com/sljmotion/sljmotion/internal/events"
	"github.com/sljmotion/sljmotion/internal/imaging"
	"github.com/sljmotion/sljmotion/internal/jobs"
	"github.com/sljmotion/sljmotion/internal/journal"
	"github.com/sljmotion/sljmotion/internal/metrics"
	"github.com/sljmotion/sljmotion/internal/obs"
	"github.com/sljmotion/sljmotion/internal/pose"
	"github.com/sljmotion/sljmotion/internal/scoring"
	"github.com/sljmotion/sljmotion/internal/segmentation"
	"github.com/sljmotion/sljmotion/internal/stickmodel"
	"github.com/sljmotion/sljmotion/internal/synth"
	"github.com/sljmotion/sljmotion/internal/track"
)

// Re-exported raster types (internal/imaging).
type (
	// Image is an RGB video frame.
	Image = imaging.Image
	// Color is a 24-bit RGB pixel.
	Color = imaging.Color
	// Mask is a binary raster (silhouettes, shadow masks).
	Mask = imaging.Mask
	// Gray is an 8-bit grayscale raster.
	Gray = imaging.Gray
	// Vec2 is a 2-D point in image coordinates.
	Vec2 = imaging.Vec2
)

// Re-exported stick-model types (internal/stickmodel).
type (
	// Pose is the stick-model state (x0, y0, ρ0..ρ7) of Section 3.
	Pose = stickmodel.Pose
	// Dimensions holds per-stick lengths and thicknesses in pixels.
	Dimensions = stickmodel.Dimensions
	// StickID identifies one of the eight sticks S0-S7 (Figure 4).
	StickID = stickmodel.StickID
	// JointID identifies a named joint of the kinematic tree.
	JointID = stickmodel.JointID
)

// Stick identifiers, in the paper's numbering (Figure 4).
const (
	Trunk    = stickmodel.Trunk
	Neck     = stickmodel.Neck
	UpperArm = stickmodel.UpperArm
	Thigh    = stickmodel.Thigh
	Head     = stickmodel.Head
	Forearm  = stickmodel.Forearm
	Shank    = stickmodel.Shank
	Foot     = stickmodel.Foot
	// NumSticks is the stick count of the model.
	NumSticks = stickmodel.NumSticks
)

// Re-exported pipeline types.
type (
	// Config assembles all stage configurations of the analyzer.
	Config = core.Config
	// Result is the complete analysis of one clip.
	Result = core.Result
	// Silhouette is the segmented human object in one frame.
	Silhouette = segmentation.Silhouette
	// SegmentationConfig parameterises the five-step pipeline of Section 2.
	SegmentationConfig = segmentation.Config
	// PoseConfig parameterises the GA pose estimation of Section 3.
	PoseConfig = pose.Config
	// Estimate is a per-frame pose estimation outcome.
	Estimate = pose.Estimate
	// Report is the Table 2 scoring outcome with advice.
	Report = scoring.Report
	// RuleResult is the outcome of a single scoring rule.
	RuleResult = scoring.RuleResult
	// Rule is one row of Table 2.
	Rule = scoring.Rule
	// Standard is one row of Table 1.
	Standard = scoring.Standard
	// TrackAnalysis carries phases, trajectories and jump distance.
	TrackAnalysis = track.Analysis
	// Window is an inclusive frame range used by scoring stages.
	Window = track.Window
	// PoseError aggregates pose-vs-truth error measures.
	PoseError = metrics.PoseError
	// MaskScores aggregates mask overlap measures (IoU, precision, recall).
	MaskScores = metrics.MaskScores
)

// Window modes for scoring stages.
const (
	// WindowsFixed reproduces the paper's fixed frame windows.
	WindowsFixed = core.WindowsFixed
	// WindowsDetected derives the windows from takeoff/landing detection.
	WindowsDetected = core.WindowsDetected
)

// Re-exported synthetic-data types (the data substrate replacing the
// paper's CCD footage; see DESIGN.md §1).
type (
	// Video is a synthetic jump clip with ground truth.
	Video = synth.Video
	// JumpParams configures the synthetic jump generator.
	JumpParams = synth.JumpParams
	// FormDefects plants form errors for scoring experiments.
	FormDefects = synth.FormDefects
	// ManualAnnotationError models the first-frame annotation imprecision.
	ManualAnnotationError = synth.ManualAnnotationError
)

// Analyzer is the end-to-end system: frames in, analysis out.
type Analyzer struct {
	inner *core.Analyzer
}

// NewAnalyzer builds an analyzer from a configuration (DefaultConfig for
// the paper-faithful setup).
func NewAnalyzer(cfg Config) (*Analyzer, error) {
	inner, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	return &Analyzer{inner: inner}, nil
}

// Analyze runs segmentation, pose estimation, tracking and scoring on a
// clip. manualFirst is the hand-drawn stick figure for the first frame that
// the paper's method requires for calibration.
func (a *Analyzer) Analyze(frames []*Image, manualFirst Pose) (*Result, error) {
	return a.inner.Analyze(frames, manualFirst)
}

// AnalyzeContext is Analyze with cooperative cancellation and per-stage
// progress reporting (see DESIGN.md §8); progress may be nil.
func (a *Analyzer) AnalyzeContext(ctx context.Context, frames []*Image, manualFirst Pose, progress func(PipelineStage)) (*Result, error) {
	return a.inner.AnalyzeContext(ctx, frames, manualFirst, progress)
}

// Run executes the stages selected by the request (see AnalysisRequest):
// the full pipeline for the zero Stages value, or a subrange over supplied
// artifacts — segmentation only, pose estimation from stored silhouettes,
// tracking+scoring re-runs from stored poses. ctx cancels cooperatively and
// progress (may be nil) observes each executed stage (DESIGN.md §9).
func (a *Analyzer) Run(ctx context.Context, req AnalysisRequest, progress func(PipelineStage)) (*Result, error) {
	return a.inner.Run(ctx, req, progress)
}

// Config returns the analyzer configuration.
func (a *Analyzer) Config() Config { return a.inner.Config() }

// Re-exported request types (internal/core; DESIGN.md §9).
type (
	// AnalysisRequest is a staged analysis request: inline inputs plus
	// the stage selection to run. The zero Stages value is the full
	// pipeline; later entry points consume Silhouettes or
	// Poses+Dimensions the caller holds instead of frames. It names no
	// artifact by hash: a sealed clip is analysed through
	// ClipSession.Analyze. IncludePoses and IncludeSilhouettes shape
	// serialised responses (the web service); the in-process Result
	// always carries every computed artifact.
	AnalysisRequest = core.Request
	// StageSelection is a contiguous, inclusive range of pipeline stages.
	StageSelection = core.StageSelection
)

// AllStages selects the full pipeline explicitly (same as the zero value).
func AllStages() StageSelection { return core.AllStages() }

// OnlyStage selects a single pipeline stage.
func OnlyStage(s PipelineStage) StageSelection { return core.OnlyStage(s) }

// SelectStages selects the inclusive stage range first..last.
func SelectStages(first, last PipelineStage) StageSelection { return core.SelectStages(first, last) }

// ParseStageSelection parses "all", one stage name ("segmentation"), or an
// inclusive range "first..last" ("tracking..scoring").
func ParseStageSelection(s string) (StageSelection, error) { return core.ParseStageSelection(s) }

// Re-exported asynchronous job types (internal/jobs; DESIGN.md §8, §10).
type (
	// JobState is a job lifecycle state: queued, running, done, failed.
	JobState = jobs.State
	// JobStatus is a point-in-time snapshot of one job.
	JobStatus = jobs.Status
	// JobMetrics is a queue/throughput/latency snapshot.
	JobMetrics = jobs.Metrics
	// JobNodeMetrics is one worker node's counters inside a remote
	// dispatcher's JobMetrics (DESIGN.md §10).
	JobNodeMetrics = jobs.NodeMetrics
	// JobDispatcher is the pluggable job backend: the in-process worker
	// pool by default, or the remote HTTP fan-out dispatcher, with the
	// submit/poll lifecycle unchanged (DESIGN.md §9-10). Its contract is
	// the whole job surface: Submit and SubmitTraced, Status, Result, the
	// Jobs history, Watch, Trace, ComponentHealth, Metrics and Close.
	JobDispatcher = jobs.Dispatcher
	// JobPayload is one unit of asynchronous work as serializable data —
	// what a JobQueue actually submits to its dispatcher (DESIGN.md §10).
	JobPayload = jobs.Payload
	// JobExecutor turns payloads into results; the Manager runs one
	// locally, worker nodes run the same payloads remotely.
	JobExecutor = jobs.Executor
	// JobJournal is the durability seam of a job queue: an append-only
	// record sink replayed on startup (DESIGN.md §11). OpenJobJournal
	// returns the canonical file-backed implementation.
	JobJournal = jobs.Journal
	// JobJournalFile is the file-backed JSON-lines journal: payloads and
	// results kept as content-addressed blobs beside the log, segment
	// rotation, live-record compaction, fsync on terminal transitions,
	// torn-final-record recovery.
	JobJournalFile = journal.Journal
	// JobFilter selects jobs for a history listing (JobQueue.Jobs).
	JobFilter = jobs.JobFilter
	// JobEvent is one streamed job event (JobQueue.Watch): lifecycle
	// transitions, per-stage progress, snapshots after a resync. Seq is
	// monotonic per job and doubles as the SSE resume token (DESIGN.md
	// §12).
	JobEvent = events.Event
	// JobEventType names one kind of JobEvent.
	JobEventType = events.Type
	// PipelineStage names one of the four analysis phases.
	PipelineStage = core.Stage
	// JobTrace is one job's span tree snapshot (JobQueue.Trace): the
	// lifecycle from submission through queue wait, the executed pipeline
	// stages and the terminal publish, each with wall-clock timings
	// (DESIGN.md §13).
	JobTrace = obs.TraceDoc
	// TraceSpan is one node of a JobTrace.
	TraceSpan = obs.SpanDoc
)

// Job event types.
const (
	JobEventQueued   = events.TypeQueued
	JobEventRunning  = events.TypeRunning
	JobEventStage    = events.TypeStage
	JobEventDone     = events.TypeDone
	JobEventFailed   = events.TypeFailed
	JobEventEvicted  = events.TypeEvicted
	JobEventSnapshot = events.TypeSnapshot
)

// Job lifecycle states and pipeline stages.
const (
	JobQueued  = jobs.StateQueued
	JobRunning = jobs.StateRunning
	JobDone    = jobs.StateDone
	JobFailed  = jobs.StateFailed

	StageSegmentation = core.StageSegmentation
	StagePose         = core.StagePose
	StageTracking     = core.StageTracking
	StageScoring      = core.StageScoring
)

// Asynchronous submission errors.
var (
	// ErrQueueFull is the retryable backpressure signal of SubmitJob.
	ErrQueueFull = jobs.ErrQueueFull
	// ErrJobNotFound marks an unknown or expired job id.
	ErrJobNotFound = jobs.ErrNotFound
	// ErrJobNotFinished is returned by JobResult while the job runs.
	ErrJobNotFinished = jobs.ErrNotFinished
)

// JobQueueOptions sizes an asynchronous analysis queue.
type JobQueueOptions struct {
	// Workers is the analysis worker pool size (>= 1).
	Workers int
	// QueueSize bounds how many jobs may wait beyond the running ones.
	QueueSize int
	// ResultTTL evicts finished results this long after completion;
	// 0 keeps them until Close.
	ResultTTL time.Duration
	// Journal makes the queue durable: submissions, transitions and
	// evictions are appended to it and NewJobQueue replays the log —
	// interrupted jobs re-run, finished results stay pollable across a
	// restart. Open one with OpenJobJournal; the caller closes it after
	// the queue closes. Restored results of earlier processes are JSON
	// documents — read them with JobResultJSON.
	Journal JobJournal
}

// DefaultJobQueueOptions returns a small in-process queue configuration
// (jobs.DefaultConfig).
func DefaultJobQueueOptions() JobQueueOptions {
	d := jobs.DefaultConfig()
	return JobQueueOptions{Workers: d.Workers, QueueSize: d.QueueSize, ResultTTL: d.ResultTTL}
}

// JobQueue runs analyses asynchronously: Submit encodes an AnalysisRequest
// into a serializable JobPayload and enqueues it into the configured
// dispatcher (by default a bounded queue drained by an in-process worker
// pool; optionally a remote fan-out over slj-serve worker nodes), and the
// job is polled via JobStatus / JobResult. It is the in-process equivalent
// of the web service's POST /v1/jobs path (DESIGN.md §8-10).
type JobQueue struct {
	mgr   jobs.Dispatcher
	fleet jobs.Fleet // the backend's fleet surface; nil answers ErrFleetUnsupported
	fp    string     // config fingerprint stamped into payloads
}

// newJobQueue wraps a validated configuration's backend.
func newJobQueue(cfg Config, d jobs.Dispatcher) *JobQueue {
	fl, _ := d.(jobs.Fleet)
	return &JobQueue{mgr: d, fleet: fl, fp: jobs.ConfigFingerprint(cfg)}
}

// NewJobQueue builds an asynchronous analysis queue over the given analyzer
// configuration, backed by the in-process worker pool. The configuration is
// validated before the pool starts, so the error path leaks no goroutines.
func NewJobQueue(cfg Config, opts JobQueueOptions) (*JobQueue, error) {
	an, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	mgr, err := jobs.New(jobs.Config{
		Workers:   opts.Workers,
		QueueSize: opts.QueueSize,
		ResultTTL: opts.ResultTTL,
		Journal:   opts.Journal,
	}, jobs.ExecutorFunc(func(ctx context.Context, p JobPayload, progress func(string)) (any, error) {
		req, err := p.AnalysisRequest()
		if err != nil {
			return nil, err
		}
		return an.Run(ctx, req, func(s core.Stage) {
			progress(string(s))
		})
	}))
	if err != nil {
		return nil, err
	}
	return newJobQueue(cfg, mgr), nil
}

// NewJobQueueWithDispatcher builds an asynchronous analysis queue over an
// explicit job backend — the dispatcher executes payloads itself, the
// queue only encodes and routes them. On success the queue takes ownership
// of closing the dispatcher; on error the caller still owns it.
func NewJobQueueWithDispatcher(cfg Config, d JobDispatcher) (*JobQueue, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return newJobQueue(cfg, d), nil
}

// NewRemoteJobQueue builds an asynchronous analysis queue whose jobs fan
// out over remote slj-serve worker nodes (started with -worker) instead of
// an in-process pool: payloads are hash-routed by their request key, so
// identical clips land on the node that already stored their result. cfg
// must match the worker nodes' configuration for the keys to line up.
// Results arrive as the service's JSON documents — poll them with
// JobResultJSON (DESIGN.md §10).
func NewRemoteJobQueue(cfg Config, nodes []string) (*JobQueue, error) {
	return NewRemoteJobQueueWithOptions(cfg, RemoteJobQueueOptions{Nodes: nodes})
}

// RemoteJobQueueOptions configures a remote fan-out queue beyond its node
// list.
type RemoteJobQueueOptions struct {
	// Nodes is the initial worker membership (base URLs). It may be empty:
	// an elastic fleet starts with zero members and grows via JoinNode.
	Nodes []string
	// Replicate stamps every payload with its ring successor so worker
	// nodes push finished results (result/v1 artifacts) and pulled
	// artifacts to its artifact store — a node death then fails over to a
	// stored answer instead of recomputing (DESIGN.md §16).
	Replicate bool
	// ArtifactOrigin is this process's public base URL, stamped into
	// by-reference payloads so workers know where to pull artifacts.
	ArtifactOrigin string
}

// NewRemoteJobQueueWithOptions is NewRemoteJobQueue with the elastic-fleet
// knobs exposed: an optionally empty starting membership, successor
// replication, and an artifact pull origin.
func NewRemoteJobQueueWithOptions(cfg Config, opts RemoteJobQueueOptions) (*JobQueue, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	d, err := dispatch.New(dispatch.Config{
		Nodes:          opts.Nodes,
		Replicate:      opts.Replicate,
		ArtifactOrigin: opts.ArtifactOrigin,
	})
	if err != nil {
		return nil, err
	}
	return newJobQueue(cfg, d), nil
}

// Fleet membership types of an elastic remote queue (DESIGN.md §16).
type (
	// FleetView is one immutable snapshot of the dispatch membership: the
	// epoch (bumped on every ring rebuild) and the per-node states.
	FleetView = jobs.FleetView
	// FleetNode is one member's state within a FleetView.
	FleetNode = jobs.FleetNode
)

// ErrFleetUnsupported is returned by the fleet methods of a queue whose
// backend has no runtime membership (the in-process pool).
var ErrFleetUnsupported = errors.New("sljmotion: this queue's backend does not support fleet management")

// Fleet snapshots the current membership of a remote queue.
func (q *JobQueue) Fleet() (FleetView, error) {
	if q.fleet == nil {
		return FleetView{}, ErrFleetUnsupported
	}
	return q.fleet.Fleet(), nil
}

// JoinFleetNode admits a worker node (base URL, consistent-hash weight >= 1;
// 0 means 1) into a remote queue's membership. The node is health-probed
// first and refused if unreachable. Joining is idempotent; re-announcing an
// unchanged member keeps the current epoch.
func (q *JobQueue) JoinFleetNode(url string, weight int) (FleetView, error) {
	if q.fleet == nil {
		return FleetView{}, ErrFleetUnsupported
	}
	return q.fleet.JoinNode(url, weight)
}

// DrainFleetNode starts a graceful drain: the node stops receiving new keys
// immediately, its running jobs finish, and the membership then forgets it.
// Draining the last routable member is refused.
func (q *JobQueue) DrainFleetNode(url string) (FleetView, error) {
	if q.fleet == nil {
		return FleetView{}, ErrFleetUnsupported
	}
	return q.fleet.DrainNode(url)
}

// Submit encodes one staged analysis request into a serializable payload
// and enqueues it, returning the job id immediately. A full queue returns
// ErrQueueFull — retryable backpressure, not failure.
func (q *JobQueue) Submit(req AnalysisRequest) (string, error) {
	p, err := jobs.NewAnalysisPayload(q.fp, req)
	if err != nil {
		return "", err
	}
	return q.mgr.Submit(p)
}

// SubmitJob enqueues one full-pipeline clip analysis: shorthand for Submit
// of a full-range AnalysisRequest.
func (q *JobQueue) SubmitJob(frames []*Image, manualFirst Pose) (string, error) {
	return q.Submit(AnalysisRequest{Frames: frames, ManualFirst: manualFirst})
}

// JobStatus snapshots a job's lifecycle state and current pipeline stage.
func (q *JobQueue) JobStatus(id string) (JobStatus, error) { return q.mgr.Status(id) }

// JobResult returns the finished analysis: ErrJobNotFinished while the job
// is queued or running, the analysis error if it failed. Remote queues
// produce JSON documents, not in-process Results — use JobResultJSON there.
func (q *JobQueue) JobResult(id string) (*Result, error) {
	val, err := q.mgr.Result(id)
	if err != nil {
		return nil, err
	}
	res, ok := val.(*Result)
	if !ok {
		if _, ok := val.(*jobs.Document); ok {
			return nil, errors.New("sljmotion: remote job results are JSON documents; use JobResultJSON")
		}
		return nil, fmt.Errorf("sljmotion: unexpected job result type %T", val)
	}
	return res, nil
}

// JobResultJSON returns the finished analysis as the web service's JSON
// document (AnalysisResponse). It is how results of a remote job queue are
// read; in-process queues hold Results instead — use JobResult there.
func (q *JobQueue) JobResultJSON(id string) ([]byte, error) {
	val, err := q.mgr.Result(id)
	if err != nil {
		return nil, err
	}
	if doc, ok := val.(*jobs.Document); ok {
		return doc.Served(), nil
	}
	return nil, fmt.Errorf("sljmotion: job result is %T, not a JSON document; use JobResult", val)
}

// JobMetrics snapshots queue depth, throughput counters and latency stats.
func (q *JobQueue) JobMetrics() JobMetrics { return q.mgr.Metrics() }

// Jobs lists the queue's job history newest-first, filtered per f. With a
// journal configured the history survives restarts.
func (q *JobQueue) Jobs(f JobFilter) []JobStatus { return q.mgr.Jobs(f) }

// Trace returns the span tree of a job the queue still remembers: where
// its wall-clock time went, from submission through queue wait, the
// executed pipeline stages and the terminal publish. Remote queues include
// the dispatch fan-out spans with the worker node's tree grafted under the
// winning submit attempt. It returns ErrJobNotFound for unknown or expired
// ids and for journal-replayed jobs of an earlier process still awaiting
// their re-run (DESIGN.md §13).
func (q *JobQueue) Trace(id string) (*JobTrace, error) { return q.mgr.Trace(id) }

// Watch streams one job's lifecycle and per-stage progress events: queued
// → running → one stage event per executed pipeline stage → done or
// failed. The channel closes after the terminal event (the result is
// guaranteed fetchable by then), on ctx cancellation, or on queue
// shutdown. Watching an already-finished job delivers its terminal event
// immediately. Remote queues proxy the stream from the job's worker node,
// falling back to polling-backed synthetic events if the stream drops
// (DESIGN.md §12).
func (q *JobQueue) Watch(ctx context.Context, id string) (<-chan JobEvent, error) {
	return q.mgr.Watch(ctx, id, 0)
}

// OpenJobJournal opens (or creates) the durable job journal at path, and
// its blob directory path+".blobs", with the production policy: fsync on terminal transitions, 64 MiB segments,
// compaction once half the records belong to evicted jobs. Pass it to
// JobQueueOptions.Journal and close it after the queue closes.
func OpenJobJournal(path string) (*JobJournalFile, error) {
	return journal.Open(path, journal.DefaultConfig())
}

// Close drains the queue and shuts the workers down; a cancelled ctx
// hard-aborts in-flight analyses (see DESIGN.md §8).
func (q *JobQueue) Close(ctx context.Context) error { return q.mgr.Close(ctx) }

// DefaultConfig returns the paper-faithful analyzer configuration.
func DefaultConfig() Config { return core.DefaultConfig() }

// DefaultJumpParams returns the default synthetic clip parameters
// (192×144, 20 frames, well-formed jump).
func DefaultJumpParams() JumpParams { return synth.DefaultJumpParams() }

// DefaultAnnotationError returns a plausible human annotation error model.
func DefaultAnnotationError() ManualAnnotationError { return synth.DefaultAnnotationError() }

// GenerateSyntheticJump renders a synthetic standing-long-jump clip with
// full ground truth (poses, masks, true background).
func GenerateSyntheticJump(p JumpParams) (*Video, error) { return synth.Generate(p) }

// ChildDimensions returns stick dimensions for a subject of the given
// height in pixels, with child body proportions.
func ChildDimensions(heightPx float64) Dimensions { return stickmodel.ChildDimensions(heightPx) }

// Standards returns Table 1 of the paper.
func Standards() []Standard { return scoring.Standards() }

// Rules returns Table 2 of the paper.
func Rules() []Rule { return scoring.Rules() }

// FixedWindows returns the paper's stage windows for an n-frame clip.
func FixedWindows(n int) (initiation, airLanding Window) { return track.FixedWindows(n) }

// ComparePoses computes pose error measures under shared dimensions.
func ComparePoses(est, truth Pose, dims Dimensions) PoseError {
	return metrics.ComparePoses(est, truth, dims)
}

// CompareMasks scores a predicted mask against ground truth.
func CompareMasks(pred, truth *Mask) (MaskScores, error) { return metrics.CompareMasks(pred, truth) }

// ReadPPMFile loads an RGB frame from a binary PPM file.
func ReadPPMFile(path string) (*Image, error) { return imaging.ReadPPMFile(path) }

// WritePPMFile saves an RGB frame as a binary PPM file.
func WritePPMFile(path string, img *Image) error { return imaging.WritePPMFile(path, img) }

// ASCIIMask renders a silhouette as terminal-friendly ASCII art, the form
// in which the repository reproduces the paper's figures.
func ASCIIMask(m *Mask, maxW int) string { return imaging.ASCIIMask(m, maxW) }
