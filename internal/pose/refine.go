package pose

import (
	"math"

	"github.com/sljmotion/sljmotion/internal/stickmodel"
)

// boundedFit scores a pose against a bound it need not beat: it returns
// the exact score whenever that is below bound, and otherwise any value in
// [bound, exact score]. The refinement scans only ask whether a candidate
// beats the best score so far, so they pass that score as the bound and
// the evaluator may stop summing once the candidate provably loses. An
// evaluator that ignores bound and always returns the exact score obeys
// the contract too.
type boundedFit func(p stickmodel.Pose, bound float64) float64

// scanObjective returns the evaluator for a refinement scan from base that
// moves only the sticks in moving. With moving == allSticks the evaluator
// must score any pose.
type scanObjective func(base stickmodel.Pose, moving stickSet) boundedFit

// refinePose runs group-coordinate refinement: each kinematic group is
// scanned over a discrete candidate set while the rest of the pose is held
// fixed, keeping the best valid candidate; the process repeats for the
// configured number of rounds. Groups interact only weakly through Eq. (3)
// (they cover different silhouette regions), so coordinate descent with
// full-circle scans reliably escapes the coordinated local optima that
// grouped crossover alone cannot assemble (e.g. trunk-lean + arm-flip).
//
// scanFit(base, moving) must return the same values as
// scanFit(·, allSticks) for every pose that differs from base only in the
// angles of the sticks in moving. refinePose asks scanFit once for the
// allSticks evaluator, which scores the start and the trunk-centre grid;
// scan1 asks once at the scan's start and scan2 once per outer angle, so
// an incremental evaluator can precompute the sticks the scan holds fixed
// (fitKernel.scanEval). Every candidate is scored with the best score so
// far as its bound.
func refinePose(start stickmodel.Pose, scanFit scanObjective,
	valid func(stickmodel.Pose) bool, rounds int) stickmodel.Pose {

	full := scanFit(start, allSticks)
	best, bestFit := start, full(start, math.Inf(1))

	for round := 0; round < rounds; round++ {
		prevFit := bestFit

		// Trunk centre: small grid around the current centre.
		for _, dx := range []float64{-3, -1.5, 1.5, 3} {
			for _, dy := range []float64{-3, -1.5, 0, 1.5, 3} {
				p := best
				p.X += dx
				p.Y += dy
				if f := full(p, bestFit); f < bestFit && valid(p) {
					best, bestFit = p, f
				}
			}
		}

		// Trunk angle: full-circle scan, 5° steps.
		scan1(&best, &bestFit, scanFit, valid, stickmodel.Trunk, 360, 5)

		// Neck and head: anatomically bounded joint scan around current.
		scan2(&best, &bestFit, scanFit, valid, stickmodel.Neck, stickmodel.Head, 45, 9)

		// Arm chain: full-circle joint scan (the chain most prone to
		// flipping when it crosses the trunk).
		scan2(&best, &bestFit, scanFit, valid, stickmodel.UpperArm, stickmodel.Forearm, 180, 12)

		// Leg chain: full-circle thigh × shank, then foot alone.
		scan2(&best, &bestFit, scanFit, valid, stickmodel.Thigh, stickmodel.Shank, 180, 12)
		scan1(&best, &bestFit, scanFit, valid, stickmodel.Foot, 90, 6)

		if prevFit-bestFit < 1e-6 {
			break // converged
		}
	}
	return best
}

// scan1 scans a single stick's angle within ±span of its current value at
// the given step, keeping the best valid improvement.
func scan1(best *stickmodel.Pose, bestFit *float64, scanFit scanObjective,
	valid func(stickmodel.Pose) bool, id stickmodel.StickID, span, step float64) {

	base := *best
	fit := scanFit(base, movedBy(id))
	for d := -span; d <= span; d += step {
		if d == 0 {
			continue
		}
		p := base
		p.Rho[id] = stickmodel.NormalizeAngle(base.Rho[id] + d)
		if f := fit(p, *bestFit); f < *bestFit && valid(p) {
			*best, *bestFit = p, f
		}
	}
}

// scan2 jointly scans two sticks within ±span of their current values.
// Each outer angle of a asks scanFit for its own evaluator, so the inner
// candidates measure only the sticks b moves against the rest of that
// pose; the scan visits the same candidates in the same order.
func scan2(best *stickmodel.Pose, bestFit *float64, scanFit scanObjective,
	valid func(stickmodel.Pose) bool, a, b stickmodel.StickID, span, step float64) {

	base := *best
	inner := movedBy(b)
	for da := -span; da <= span; da += step {
		pa := base
		pa.Rho[a] = stickmodel.NormalizeAngle(base.Rho[a] + da)
		fit := scanFit(pa, inner)
		for db := -span; db <= span; db += step {
			if da == 0 && db == 0 {
				continue
			}
			p := pa
			p.Rho[b] = stickmodel.NormalizeAngle(base.Rho[b] + db)
			if f := fit(p, *bestFit); f < *bestFit && valid(p) {
				*best, *bestFit = p, f
			}
		}
	}
}
