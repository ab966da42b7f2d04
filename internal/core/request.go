package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"github.com/sljmotion/sljmotion/internal/imaging"
	"github.com/sljmotion/sljmotion/internal/obs"
	"github.com/sljmotion/sljmotion/internal/pose"
	"github.com/sljmotion/sljmotion/internal/scoring"
	"github.com/sljmotion/sljmotion/internal/segmentation"
	"github.com/sljmotion/sljmotion/internal/stickmodel"
	"github.com/sljmotion/sljmotion/internal/track"
)

// StageSelection picks a contiguous run of pipeline stages to execute,
// inclusive on both ends. The pipeline is linear (segmentation → pose →
// tracking → scoring), so a selection is a range, not an arbitrary set.
// The zero value selects the full pipeline.
type StageSelection struct {
	// First is the earliest stage to run; empty means StageSegmentation.
	First Stage
	// Last is the latest stage to run; empty means StageScoring.
	Last Stage
}

// AllStages selects the full pipeline explicitly.
func AllStages() StageSelection {
	return StageSelection{First: StageSegmentation, Last: StageScoring}
}

// OnlyStage selects a single pipeline stage.
func OnlyStage(s Stage) StageSelection { return StageSelection{First: s, Last: s} }

// SelectStages selects the inclusive stage range first..last.
func SelectStages(first, last Stage) StageSelection {
	return StageSelection{First: first, Last: last}
}

// stageIndex returns the position of s in the execution order, or -1.
func stageIndex(s Stage) int {
	for i, st := range Stages() {
		if st == s {
			return i
		}
	}
	return -1
}

// Normalize fills empty endpoints with the pipeline's ends.
func (sel StageSelection) Normalize() StageSelection {
	if sel.First == "" {
		sel.First = StageSegmentation
	}
	if sel.Last == "" {
		sel.Last = StageScoring
	}
	return sel
}

// Validate rejects unknown stages and reversed ranges. Endpoints are
// normalised first, so the zero value is valid.
func (sel StageSelection) Validate() error {
	sel = sel.Normalize()
	fi, li := stageIndex(sel.First), stageIndex(sel.Last)
	if fi < 0 {
		return fmt.Errorf("core: unknown stage %q", sel.First)
	}
	if li < 0 {
		return fmt.Errorf("core: unknown stage %q", sel.Last)
	}
	if fi > li {
		return fmt.Errorf("core: stage range %s..%s is reversed", sel.First, sel.Last)
	}
	return nil
}

// Includes reports whether the (normalised) selection covers stage s.
func (sel StageSelection) Includes(s Stage) bool {
	sel = sel.Normalize()
	i := stageIndex(s)
	return i >= 0 && i >= stageIndex(sel.First) && i <= stageIndex(sel.Last)
}

// IsFull reports whether the selection covers the whole pipeline.
func (sel StageSelection) IsFull() bool {
	sel = sel.Normalize()
	return sel.First == StageSegmentation && sel.Last == StageScoring
}

// Selected lists the covered stages in execution order.
func (sel StageSelection) Selected() []Stage {
	sel = sel.Normalize()
	var out []Stage
	for _, s := range Stages() {
		if sel.Includes(s) {
			out = append(out, s)
		}
	}
	return out
}

// String renders the selection in the form ParseStageSelection accepts.
func (sel StageSelection) String() string {
	sel = sel.Normalize()
	if sel.First == sel.Last {
		return string(sel.First)
	}
	return string(sel.First) + ".." + string(sel.Last)
}

// ParseStageSelection parses a stage-selection string: "" or "all" for the
// full pipeline, one stage name ("segmentation") for a single stage, or an
// inclusive range "first..last" ("segmentation..pose", "tracking..scoring").
func ParseStageSelection(s string) (StageSelection, error) {
	s = strings.TrimSpace(strings.ToLower(s))
	if s == "" || s == "all" {
		return StageSelection{}, nil
	}
	var sel StageSelection
	if first, last, ok := strings.Cut(s, ".."); ok {
		sel = StageSelection{First: Stage(strings.TrimSpace(first)), Last: Stage(strings.TrimSpace(last))}
	} else {
		sel = OnlyStage(Stage(s))
	}
	if err := sel.Validate(); err != nil {
		return StageSelection{}, err
	}
	return sel, nil
}

// Request is a staged analysis request: the input artifacts plus the stage
// selection to run over them. The zero Stages value runs the full pipeline,
// making Request{Frames: f, ManualFirst: m} equivalent to Analyze(f, m).
//
// Later entry points consume previously computed artifacts instead of
// frames: a selection starting at StagePose needs Silhouettes (and
// ManualFirst for calibration), and one starting at StageTracking or
// StageScoring needs Poses and the calibrated Dimensions. This is the seam
// the result cache and re-scoring workloads attach to: segmentation can be
// run once, and pose/tracking/scoring re-run against the stored outputs.
type Request struct {
	// Frames is the clip; required when the selection includes segmentation.
	Frames []*imaging.Image
	// ManualFirst is the hand-drawn first-frame stick figure the paper
	// requires; consumed by the pose stage (calibration + temporal seed).
	ManualFirst stickmodel.Pose
	// Stages selects the contiguous pipeline range to execute.
	Stages StageSelection

	// Silhouettes feeds a selection starting at StagePose (e.g. the stored
	// output of an earlier segmentation-only request).
	Silhouettes []segmentation.Silhouette
	// Background optionally carries the Step 1 estimate through to the
	// result when segmentation is skipped.
	Background *imaging.Image
	// Poses feeds a selection starting at StageTracking or StageScoring.
	Poses []stickmodel.Pose
	// Dimensions are the calibrated stick dimensions accompanying Poses.
	Dimensions stickmodel.Dimensions

	// IncludePoses and IncludeSilhouettes shape serialised responses built
	// from the result (the web service's JSON document). The in-process
	// Result always carries every computed artifact regardless.
	IncludePoses       bool
	IncludeSilhouettes bool
}

// Validate checks that the stage selection is runnable and that the inputs
// it needs are present. windows is the analyzer's window mode: detected
// windows need the tracking stage to feed scoring.
func (r Request) Validate(windows WindowMode) error {
	sel := r.Stages.Normalize()
	if err := sel.Validate(); err != nil {
		return err
	}
	switch sel.First {
	case StageSegmentation:
		if len(r.Frames) == 0 {
			return ErrNoFrames
		}
	case StagePose:
		if len(r.Silhouettes) == 0 {
			return errors.New("core: a request starting at the pose stage needs Silhouettes")
		}
		if r.ManualFirst == (stickmodel.Pose{}) {
			return errors.New("core: a request starting at the pose stage needs ManualFirst (calibration + temporal seed)")
		}
	case StageTracking, StageScoring:
		if len(r.Poses) == 0 {
			return fmt.Errorf("core: a request starting at the %s stage needs Poses", sel.First)
		}
		if r.Dimensions == (stickmodel.Dimensions{}) {
			return fmt.Errorf("core: a request starting at the %s stage needs the calibrated Dimensions", sel.First)
		}
	}
	if sel.First == StageScoring && windows == WindowsDetected {
		return errors.New("core: detected windows need the tracking stage; select tracking..scoring")
	}
	return nil
}

// Run executes the selected stages of the pipeline. Artifacts of stages
// that ran are set on the Result; artifacts supplied as request inputs are
// passed through, and everything downstream of the selection stays nil.
// ctx and progress behave as in AnalyzeContext. A full-range request takes
// exactly the AnalyzeContext code path, so its Result is identical.
func (a *Analyzer) Run(ctx context.Context, req Request, progress ProgressFunc) (*Result, error) {
	if err := req.Validate(a.cfg.Windows); err != nil {
		return nil, err
	}
	sel := req.Stages.Normalize()
	res := &Result{Background: req.Background, Silhouettes: req.Silhouettes, StageMS: make(map[string]float64)}
	// enter starts one stage's bookkeeping: cancellation check, progress
	// callback, a trace span (a no-op unless ctx carries one), and the
	// wall-clock timer behind Result.StageMS and the per-stage histogram.
	// Each stage block must call the returned done exactly once.
	enter := func(s Stage) (context.Context, func(), error) {
		if err := ctx.Err(); err != nil {
			return ctx, nil, err
		}
		if progress != nil {
			progress(s)
		}
		stageCtx, span := obs.StartSpan(ctx, string(s))
		start := time.Now()
		var snap obs.ResourceSnapshot
		if span != nil {
			// Per-stage resource accounting rides on tracing: the deltas
			// land as span attributes, and the untraced synchronous and
			// benchmark paths pay nothing.
			snap = obs.TakeResourceSnapshot()
		}
		done := func() {
			d := time.Since(start)
			if span != nil {
				snap.Delta().Stamp(span)
			}
			span.End()
			res.StageMS[string(s)] = float64(d) / float64(time.Millisecond)
			stageSeconds(s).Observe(d.Seconds())
		}
		return stageCtx, done, nil
	}

	if sel.Includes(StageSegmentation) {
		_, done, err := enter(StageSegmentation)
		if err != nil {
			return nil, err
		}
		seg, err := segmentation.New(a.cfg.Segmentation)
		if err != nil {
			return nil, fmt.Errorf("segmentation: %w", err)
		}
		bg, sils, err := seg.SegmentClip(req.Frames, maxParallel(a.cfg.Parallelism))
		if err != nil {
			return nil, fmt.Errorf("segmentation: %w", err)
		}
		done()
		res.Background = bg
		res.Silhouettes = sils
	}

	res.Poses = req.Poses
	res.Dimensions = req.Dimensions
	if sel.Includes(StagePose) {
		poseCtx, done, err := enter(StagePose)
		if err != nil {
			return nil, err
		}
		if len(res.Silhouettes) == 0 {
			return nil, errors.New("core: pose stage has no silhouettes")
		}
		dims, err := a.dimensionPrior(res.Silhouettes[0])
		if err != nil {
			return nil, err
		}
		poseCfg := a.cfg.Pose
		if poseCfg.Parallelism == 0 {
			poseCfg.Parallelism = a.cfg.Parallelism
		}
		est, err := pose.NewEstimator(dims, poseCfg)
		if err != nil {
			return nil, fmt.Errorf("pose: %w", err)
		}
		calibrated, err := est.Calibrate(res.Silhouettes[0], req.ManualFirst)
		if err != nil {
			return nil, fmt.Errorf("calibrate: %w", err)
		}
		estimates, err := est.EstimateSequenceContext(poseCtx, res.Silhouettes, req.ManualFirst)
		if err != nil {
			return nil, fmt.Errorf("pose: %w", err)
		}
		done()
		poses := make([]stickmodel.Pose, len(estimates))
		for i, e := range estimates {
			poses[i] = e.Pose
		}
		res.Dimensions = calibrated
		res.Poses = poses
		res.Estimates = estimates
	}

	if sel.Includes(StageTracking) {
		_, done, err := enter(StageTracking)
		if err != nil {
			return nil, err
		}
		tracker := track.NewTracker(res.Dimensions, a.cfg.PxPerMeter)
		analysis, err := tracker.Analyze(res.Poses)
		if err != nil {
			return nil, fmt.Errorf("track: %w", err)
		}
		done()
		res.Track = analysis
	}

	if sel.Includes(StageScoring) {
		_, done, err := enter(StageScoring)
		if err != nil {
			return nil, err
		}
		var initW, airW track.Window
		switch {
		case a.cfg.Windows == WindowsDetected && res.Track != nil:
			initW, airW = res.Track.Initiation, res.Track.AirLanding
		default:
			initW, airW = track.FixedWindows(len(res.Poses))
		}
		report, err := scoring.NewScorer().Score(res.Poses, initW, airW)
		if err != nil {
			return nil, fmt.Errorf("scoring: %w", err)
		}
		done()
		res.Report = report
	}
	return res, nil
}

// stageSeconds returns the per-stage latency histogram, lazily registered
// once per stage in the process-wide registry.
func stageSeconds(s Stage) *obs.Histogram {
	return obs.Default.Histogram("slj_stage_seconds",
		"Wall-clock time per pipeline stage, in seconds.",
		obs.DefBuckets, "stage", string(s))
}
