// Package shadow implements Step 5 of the paper's segmentation pipeline:
// the HSV shadow detector of Eq. (1)-(2) (after Cucchiara et al.). A
// foreground pixel is declared shadow when its value ratio against the
// background lies in [α, β], its saturation drop is bounded by τS, and its
// angular hue distance DH from the background is bounded by τH.
// Detector.IsShadow classifies one pixel; package segmentation applies it
// to each foreground pixel of a frame.
package shadow

import (
	"fmt"

	"github.com/sljmotion/sljmotion/internal/hsv"
)

// Params are the four experimentally determined constants of Eq. (1).
type Params struct {
	// Alpha is the lower bound on F.V/B.V; shadows darken, so Alpha < 1.
	// It rejects very dark object pixels that are not shadow.
	Alpha float64
	// Beta is the upper bound on F.V/B.V; it rejects pixels whose value
	// barely changed (noise rather than shadow).
	Beta float64
	// TauS bounds the saturation difference F.S - B.S (an absolute value in
	// the paper's wording: shadows do not raise saturation much).
	TauS float64
	// TauH bounds the angular hue distance DH of Eq. (2), in degrees.
	TauH float64
}

// DefaultParams returns the constants calibrated on the synthetic scenes
// (DESIGN.md §7). The paper determines them "via experiments".
func DefaultParams() Params {
	return Params{Alpha: 0.40, Beta: 0.92, TauS: 0.12, TauH: 60}
}

// Validate rejects parameter sets that cannot classify anything sensibly.
func (p Params) Validate() error {
	if !(p.Alpha >= 0 && p.Alpha < p.Beta && p.Beta <= 1.5) {
		return fmt.Errorf("shadow: need 0 <= alpha < beta <= 1.5, got alpha=%v beta=%v", p.Alpha, p.Beta)
	}
	if !(p.TauS >= 0 && p.TauS <= 1) { // negated so NaN fails
		return fmt.Errorf("shadow: tauS must be in [0,1], got %v", p.TauS)
	}
	if !(p.TauH >= 0 && p.TauH <= 180) {
		return fmt.Errorf("shadow: tauH must be in [0,180] degrees, got %v", p.TauH)
	}
	return nil
}

// Detector classifies foreground pixels as shadow or object.
type Detector struct {
	params Params
}

// NewDetector returns a detector with the given parameters.
func NewDetector(p Params) (*Detector, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Detector{params: p}, nil
}

// IsShadow evaluates Eq. (1) for a single foreground/background HSV pair.
func (d *Detector) IsShadow(f, b hsv.HSV) bool {
	if b.V <= 0 {
		return false // black background: the value ratio is undefined.
	}
	ratio := f.V / b.V
	if ratio < d.params.Alpha || ratio > d.params.Beta {
		return false
	}
	if f.S-b.S > d.params.TauS {
		return false
	}
	return hsv.Dist(f, b) <= d.params.TauH
}
