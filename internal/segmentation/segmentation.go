// Package segmentation composes the paper's five-step human-object
// segmentation pipeline (Section 2):
//
//  1. estimate the background of the video sequence (change detection);
//  2. subtract the background from each frame;
//  3. remove noise (8-neighbour filter) and small spots (connected
//     components);
//  4. fill small holes (4-neighbour rule);
//  5. remove shadows (HSV detector, Eq. 1-2).
//
// The result per frame is a Silhouette: the binary mask of the human object
// plus derived statistics consumed by pose estimation.
package segmentation

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/sljmotion/sljmotion/internal/background"
	"github.com/sljmotion/sljmotion/internal/imaging"
	"github.com/sljmotion/sljmotion/internal/shadow"
)

// Config parameterises the pipeline. The zero value is NOT valid; use
// DefaultConfig and override fields as needed.
type Config struct {
	// StabilityThreshold is Step 1's "very small change" bound.
	StabilityThreshold int
	// SubtractThreshold is Step 2's foreground threshold; values ≤ 0
	// select background.DefaultSubtractThreshold.
	SubtractThreshold int
	// NoiseMinNeighbors is Step 3's 8-neighbour keep threshold.
	NoiseMinNeighbors int
	// SpotFraction and SpotFloor set the adaptive small-spot area bound:
	// max(SpotFraction × largest-component-area, SpotFloor).
	SpotFraction float64
	SpotFloor    int
	// HoleFillPasses is the number of Step 4 passes (paper uses one).
	HoleFillPasses int
	// Shadow holds the Eq. (1) constants.
	Shadow shadow.Params
	// DisableShadowRemoval skips Step 5 entirely (ablation A3).
	DisableShadowRemoval bool
	// KeepLargestOnly reduces the final mask to its largest component,
	// appropriate when exactly one jumper is in frame.
	KeepLargestOnly bool
}

// DefaultConfig returns the calibrated configuration of DESIGN.md §7.
func DefaultConfig() Config {
	return Config{
		StabilityThreshold: background.DefaultStabilityThreshold,
		SubtractThreshold:  background.DefaultSubtractThreshold,
		NoiseMinNeighbors:  3,
		SpotFraction:       0.2,
		SpotFloor:          40,
		HoleFillPasses:     1,
		Shadow:             shadow.DefaultParams(),
		KeepLargestOnly:    true,
	}
}

// Validate checks the configuration for usable values.
func (c Config) Validate() error {
	if c.NoiseMinNeighbors < 0 || c.NoiseMinNeighbors > 8 {
		return fmt.Errorf("segmentation: NoiseMinNeighbors must be in [0,8], got %d", c.NoiseMinNeighbors)
	}
	if !(c.SpotFraction >= 0 && c.SpotFraction <= 1) { // negated so NaN fails
		return fmt.Errorf("segmentation: SpotFraction must be in [0,1], got %v", c.SpotFraction)
	}
	if c.SpotFloor < 0 {
		return fmt.Errorf("segmentation: SpotFloor must be >= 0, got %d", c.SpotFloor)
	}
	if c.HoleFillPasses < 0 {
		return fmt.Errorf("segmentation: HoleFillPasses must be >= 0, got %d", c.HoleFillPasses)
	}
	if !c.DisableShadowRemoval {
		if err := c.Shadow.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Silhouette is the segmented human object in one frame.
type Silhouette struct {
	Frame    int
	Mask     *imaging.Mask
	Area     int
	Centroid imaging.Vec2
	BBox     imaging.Rect
}

// NewSilhouette derives statistics from a mask.
func NewSilhouette(frame int, m *imaging.Mask) Silhouette {
	s := Silhouette{Frame: frame, Mask: m, Area: m.Count()}
	if cx, cy, ok := m.Centroid(); ok {
		s.Centroid = imaging.Vec2{X: cx, Y: cy}
	}
	if bb, ok := m.BBox(); ok {
		s.BBox = bb
	}
	return s
}

// StageMasks captures every intermediate mask of one frame, mirroring the
// panels of the paper's Figure 2 and Figure 3.
type StageMasks struct {
	Subtracted   *imaging.Mask // Figure 2 (a)
	Denoised     *imaging.Mask // Figure 2 (b)
	SpotsRemoved *imaging.Mask // Figure 2 (c)
	HolesFilled  *imaging.Mask // Figure 2 (d)
	ShadowMask   *imaging.Mask // the SM_k pixels of Eq. (1)
	Object       *imaging.Mask // Figure 3 (a): final silhouette
}

// Pipeline runs the five-step segmentation.
type Pipeline struct {
	cfg      Config
	detector *shadow.Detector
	bgEst    background.Estimator
}

// ErrNoFrames is returned when Run receives an empty sequence.
var ErrNoFrames = errors.New("segmentation: no frames")

// New returns a pipeline for the given configuration.
func New(cfg Config) (*Pipeline, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p := &Pipeline{
		cfg:   cfg,
		bgEst: &background.ChangeDetection{StabilityThreshold: cfg.StabilityThreshold},
	}
	if !cfg.DisableShadowRemoval {
		det, err := shadow.NewDetector(cfg.Shadow)
		if err != nil {
			return nil, err
		}
		p.detector = det
	}
	return p, nil
}

// WithEstimator overrides the Step 1 background estimator (ablation A2).
func (p *Pipeline) WithEstimator(est background.Estimator) *Pipeline {
	p.bgEst = est
	return p
}

// Config returns the pipeline configuration.
func (p *Pipeline) Config() Config { return p.cfg }

// EstimateBackground runs only Step 1.
func (p *Pipeline) EstimateBackground(frames []*imaging.Image) (*imaging.Image, error) {
	if len(frames) == 0 {
		return nil, ErrNoFrames
	}
	return p.bgEst.Estimate(frames)
}

// SegmentFrame runs Steps 2-5 on a single frame against a known background,
// returning all intermediate masks.
func (p *Pipeline) SegmentFrame(frame, bg *imaging.Image) (*StageMasks, error) {
	var st StageMasks
	if _, err := p.segment(new(frameScratch), 0, frame, bg, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// segment runs Steps 2-5 on frame k of a clip against a known background,
// on the sparse representation of frameScratch. When st is non-nil it also
// receives every intermediate mask; st.Object is the silhouette's mask.
func (p *Pipeline) segment(s *frameScratch, k int, frame, bg *imaging.Image, st *StageMasks) (Silhouette, error) {
	if !frame.SameSize(bg) {
		return Silhouette{}, fmt.Errorf("step 2: subtract %dx%d vs %dx%d: %w",
			frame.W, frame.H, bg.W, bg.H, imaging.ErrSizeMismatch)
	}
	threshold := p.cfg.SubtractThreshold
	if threshold <= 0 {
		threshold = background.DefaultSubtractThreshold
	}
	var stages StageMasks
	snap := func(list []int32) *imaging.Mask {
		if st == nil {
			return nil
		}
		return s.mask(list)
	}

	s.reset(frame.W, frame.H)
	s.subtract(frame, bg, threshold)
	stages.Subtracted = snap(s.list)
	s.removeNoise(p.cfg.NoiseMinNeighbors)
	stages.Denoised = snap(s.list)
	s.removeSmallSpots(p.cfg.SpotFraction, p.cfg.SpotFloor)
	stages.SpotsRemoved = snap(s.list)
	for pass := 0; pass < p.cfg.HoleFillPasses; pass++ {
		if !s.fillHoles() {
			break
		}
	}
	stages.HolesFilled = snap(s.list)
	s.aside = s.aside[:0]
	if p.detector != nil {
		s.removeShadow(frame, bg, p.detector)
	}
	stages.ShadowMask = snap(s.aside)

	// Shadow removal can fragment the object or expose small residues;
	// re-run hole filling and keep the dominant component when configured.
	s.fillHoles()
	if p.cfg.KeepLargestOnly {
		s.keepLargest()
	}
	sil := s.silhouette(k)
	s.clear()
	if st != nil {
		stages.Object = sil.Mask
		*st = stages
	}
	return sil, nil
}

// Run executes the full pipeline on a sequence: Step 1 once, Steps 2-5 per
// frame. It returns one silhouette per input frame.
func (p *Pipeline) Run(frames []*imaging.Image) ([]Silhouette, error) {
	return p.RunWorkers(frames, 1)
}

// RunWorkers is Run with Steps 2-5 fanned out over a worker pool. Frames
// are independent once the background is estimated, so the result is
// identical to the sequential path regardless of worker count. workers <= 0
// selects GOMAXPROCS; workers == 1 is fully sequential.
func (p *Pipeline) RunWorkers(frames []*imaging.Image, workers int) ([]Silhouette, error) {
	_, _, sils, err := p.run(frames, workers, false)
	return sils, err
}

// SegmentClip is RunWorkers that also returns the Step 1 background: the
// whole of what a clip's segmentation produces, without the intermediate
// stages.
func (p *Pipeline) SegmentClip(frames []*imaging.Image, workers int) (*imaging.Image, []Silhouette, error) {
	bg, _, sils, err := p.run(frames, workers, false)
	return bg, sils, err
}

// RunDetailed is Run but also returns the background and every frame's
// intermediate stages; the figure harness uses it.
func (p *Pipeline) RunDetailed(frames []*imaging.Image) (*imaging.Image, []StageMasks, []Silhouette, error) {
	return p.RunDetailedWorkers(frames, 1)
}

// RunDetailedWorkers is RunDetailed with the per-frame work (Steps 2-5)
// distributed over a worker pool; see RunWorkers for worker semantics.
func (p *Pipeline) RunDetailedWorkers(frames []*imaging.Image, workers int) (*imaging.Image, []StageMasks, []Silhouette, error) {
	return p.run(frames, workers, true)
}

// run runs Step 1 once, then Steps 2-5 per frame on up to `workers`
// goroutines, each with its own scratch. Results land in index-addressed
// slices, so the output ordering (and content — segment is deterministic
// and the pipeline is immutable after New) is independent of scheduling.
func (p *Pipeline) run(frames []*imaging.Image, workers int, keepStages bool) (*imaging.Image, []StageMasks, []Silhouette, error) {
	bg, err := p.EstimateBackground(frames)
	if err != nil {
		return nil, nil, nil, err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(frames) {
		workers = len(frames)
	}

	var stages []StageMasks
	if keepStages {
		stages = make([]StageMasks, len(frames))
	}
	sils := make([]Silhouette, len(frames))

	segment := func(s *frameScratch, i int) error {
		var st *StageMasks
		if keepStages {
			st = &stages[i]
		}
		sil, err := p.segment(s, i, frames[i], bg, st)
		if err != nil {
			return fmt.Errorf("frame %d: %w", i, err)
		}
		sils[i] = sil
		return nil
	}

	if workers == 1 {
		s := new(frameScratch)
		for i := range frames {
			if err := segment(s, i); err != nil {
				return nil, nil, nil, err
			}
		}
		return bg, stages, sils, nil
	}

	var (
		next   atomic.Int64
		wg     sync.WaitGroup
		failed atomic.Bool
		mu     sync.Mutex
		errIdx = -1
		runErr error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := new(frameScratch)
			for !failed.Load() { // stop claiming frames once any frame errors
				i := int(next.Add(1)) - 1
				if i >= len(frames) {
					return
				}
				if err := segment(s, i); err != nil {
					// Keep the lowest failing frame so the reported error
					// matches the sequential path on multi-frame failures.
					mu.Lock()
					if errIdx < 0 || i < errIdx {
						errIdx, runErr = i, err
					}
					mu.Unlock()
					failed.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	if runErr != nil {
		return nil, nil, nil, runErr
	}
	return bg, stages, sils, nil
}
