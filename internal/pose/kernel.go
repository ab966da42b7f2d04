package pose

import (
	"math"

	"github.com/sljmotion/sljmotion/internal/imaging"
	"github.com/sljmotion/sljmotion/internal/stickmodel"
)

// fitKernel is the allocation-free evaluator of the Eq. (3) fitness:
// FS = (Σ_points min_l d(point, S_l)/t_l) / N. It is built once per frame
// from the (subsampled) silhouette point set and then evaluated thousands
// of times per GA fit, so everything per-candidate lives on the stack:
// silhouette coordinates are flattened into two float buffers, and a
// row-band grid over the points lets whole cells skip the sticks that
// provably cannot own any of their points.
//
// The kernel returns bit-identical values to the naive reference
// (Segment.PointDist in stick order with a strict-< minimum): cells are
// contiguous ranges of the row-major point order, so the summation order is
// unchanged; cell-level pruning only discards a stick when a conservative
// distance bound proves it cannot attain the minimum for any point in the
// cell; and per point the cheap squared-distance comparison only selects
// *candidate* winners — the returned minimum is then recomputed with
// exactly the reference arithmetic (same Hypot, same division by t_l) over
// every candidate within a safety margin. Since only the minimum's value
// enters the sum, recovering the exact value of the true minimiser suffices.
//
// Eval is safe for concurrent use (the GA fans fitness calls across
// workers): the kernel is read-only after construction.
type fitKernel struct {
	xs, ys []float64 // flattened point coordinates, original row-major order
	cells  []kernelCell
	dims   stickmodel.Dimensions
}

// kernelCell is one x-band of one sampled silhouette row: the points
// xs[start:end] / ys[start:end], plus the covering circle (centre, radius)
// of those points used for conservative stick pruning.
type kernelCell struct {
	start, end int32
	cx, cy     float64
	radius     float64
}

// kernelCellCap bounds the points per cell. Points in a row are ascending
// in x, so a cell spans at most (cap-1)·stride pixels; smaller cells prune
// sticks more sharply but pay more per-cell bound computations.
const kernelCellCap = 16

// Pruning safety margins. cellPad (pixels) widens the covering radius;
// candMargin is the relative slack on squared-distance winner selection.
// Both absorb floating-point rounding between the bound arithmetic and the
// reference arithmetic; they only ever make pruning less aggressive.
const (
	cellPad    = 1e-6
	candMargin = 1e-12
)

// newFitKernel flattens pts (row-major silhouette order) and builds the
// row-band grid. The point slice is not retained.
func newFitKernel(pts []imaging.Vec2, dims stickmodel.Dimensions) *fitKernel {
	k := &fitKernel{
		xs:   make([]float64, len(pts)),
		ys:   make([]float64, len(pts)),
		dims: dims,
	}
	for i, pt := range pts {
		k.xs[i] = pt.X
		k.ys[i] = pt.Y
	}
	start := 0
	for i := 1; i <= len(pts); i++ {
		if i == len(pts) || pts[i].Y != pts[start].Y || i-start == kernelCellCap {
			minX, maxX := pts[start].X, pts[start].X
			for _, pt := range pts[start+1 : i] {
				if pt.X < minX {
					minX = pt.X
				}
				if pt.X > maxX {
					maxX = pt.X
				}
			}
			cx := (minX + maxX) / 2
			k.cells = append(k.cells, kernelCell{
				start:  int32(start),
				end:    int32(i),
				cx:     cx,
				cy:     pts[start].Y,
				radius: (maxX-minX)/2 + cellPad,
			})
			start = i
		}
	}
	return k
}

// Eval scores one pose: Eq. (3) with no prior and no bound. Zero heap
// allocations.
func (k *fitKernel) Eval(p stickmodel.Pose) float64 {
	return k.EvalBounded(p, 0, 0, math.Inf(1))
}

// EvalBounded scores one pose under the prior terms a, b >= 0: the value
// fl(fl(Eq3 + a) + b), which is what adding the priors to Eval returns.
// After every cell it prices the partial sum the same way and returns that
// price once it reaches bound. All Eq. (3) terms are >= 0 and IEEE
// addition and division round monotonically, so a partial price never
// exceeds the final one: the exact value comes back whenever it is below
// bound, and otherwise a value in [bound, exact]. A NaN bound never stops
// the sum. Zero heap allocations.
func (k *fitKernel) EvalBounded(p stickmodel.Pose, a, b, bound float64) float64 {
	dirs := p.Dirs()
	g := newStickGeom(p, k.dims, &dirs)
	n := float64(len(k.xs))
	// Under an infinite (or NaN) bound no partial price can stop the sum,
	// so the unbounded evaluation skips the per-cell check.
	stoppable := bound < math.Inf(1)
	var sum float64
	// Per-point scratch; only active-stick slots are written and read each
	// iteration, so hoisting avoids re-zeroing inside the hot loop.
	var rxs, rys, q [stickmodel.NumSticks]float64
	for _, c := range k.cells {
		// Cell-level pruning: from the exact distance dc of the cell's
		// covering centre to each stick, every point of the cell has
		// d_l ∈ [dc-radius, dc+radius]. A stick whose normalised lower
		// bound exceeds the smallest normalised upper bound cannot own any
		// point here. Bounds are conservative, so results are unaffected.
		var active [stickmodel.NumSticks]int
		nact := 0
		var lb, ub [stickmodel.NumSticks]float64
		ubMin := math.Inf(1)
		for l := 0; l < stickmodel.NumSticks; l++ {
			rx, ry := closestOffset(c.cx, c.cy, g.ax[l], g.ay[l], g.dx[l], g.dy[l], g.l2[l])
			dc := math.Sqrt(rx*rx + ry*ry)
			lo := dc - c.radius
			if lo < 0 {
				lo = 0
			}
			lb[l] = lo / g.thick[l]
			ub[l] = (dc + c.radius) / g.thick[l]
			if ub[l] < ubMin {
				ubMin = ub[l]
			}
		}
		for l := 0; l < stickmodel.NumSticks; l++ {
			if lb[l] <= ubMin+1e-9 {
				active[nact] = l
				nact++
			}
		}
		for i := c.start; i < c.end; i++ {
			px, py := k.xs[i], k.ys[i]
			// Cheap pass: squared distances scaled by 1/t² pick candidate
			// winners without any sqrt.
			bestQ := math.Inf(1)
			for j := 0; j < nact; j++ {
				l := active[j]
				rx, ry := closestOffset(px, py, g.ax[l], g.ay[l], g.dx[l], g.dy[l], g.l2[l])
				rxs[l] = rx
				rys[l] = ry
				q[l] = (rx*rx + ry*ry) * g.invT2[l]
				if q[l] < bestQ {
					bestQ = q[l]
				}
			}
			// Exact pass over candidates: the reference expression
			// Hypot(...)/t_l, minimised with strict < as in the reference.
			limit := bestQ + bestQ*candMargin + candMargin
			best := 1e18
			for j := 0; j < nact; j++ {
				l := active[j]
				if q[l] > limit {
					continue
				}
				d := math.Hypot(rxs[l], rys[l]) / g.thick[l]
				if d < best {
					best = d
				}
			}
			sum += best
		}
		if stoppable {
			if v := price(sum, n, a, b); v >= bound {
				return v
			}
		}
	}
	return price(sum, n, a, b)
}

// price is the prior-weighted fitness of an Eq. (3) point sum over n
// points: fl(fl(sum/n + a) + b), the order the priors are added in.
// Monotone in sum, so the price of a partial sum bounds the final price
// from below.
func price(sum, n, a, b float64) float64 {
	return sum/n + a + b
}

// closestOffset returns (px,py) minus the closest point of the segment
// (a + t·d, t clamped to [0,1]), with the exact expression shapes of
// Segment.PointDist so the compiler rounds identically.
func closestOffset(px, py, ax, ay, dx, dy, l2 float64) (rx, ry float64) {
	if l2 == 0 {
		return px - ax, py - ay
	}
	t := ((px-ax)*dx + (py-ay)*dy) / l2
	if t < 0 {
		t = 0
	} else if t > 1 {
		t = 1
	}
	return px - (ax + dx*t), py - (ay + dy*t)
}

// NumPoints reports the silhouette point count the kernel averages over.
func (k *fitKernel) NumPoints() int { return len(k.xs) }

// stickSet is a set of StickIDs, bit l standing for stick l.
type stickSet uint8

const allSticks stickSet = 1<<stickmodel.NumSticks - 1

// kinematicDeps[s] is the set of sticks whose image segment moves when ρs
// changes. It is read off the forward kinematics (Pose.Segments) by
// turning each stick in turn on a probe pose with non-zero stick lengths,
// so it follows the kinematic chain instead of a hand-kept list: the thigh
// carries the shank and foot, the neck carries the head, the trunk carries
// everything. With the real body dimensions a set can only be a superset
// of what moves (a zero-length stick carries nothing), which is safe.
var kinematicDeps = func() (deps [stickmodel.NumSticks]stickSet) {
	dims := stickmodel.ChildDimensions(100)
	var probe stickmodel.Pose
	for l := range probe.Rho {
		probe.Rho[l] = 17 + 41*float64(l)
	}
	base := probe.Segments(dims)
	for s := range probe.Rho {
		turned := probe
		turned.Rho[s] += 90
		for l, seg := range turned.Segments(dims) {
			if seg != base[l] {
				deps[s] |= 1 << l
			}
		}
	}
	return deps
}()

// movedBy returns the sticks whose segments change when the angles of ids
// change.
func movedBy(ids ...stickmodel.StickID) stickSet {
	var s stickSet
	for _, id := range ids {
		s |= kinematicDeps[id]
	}
	return s
}

// boundedEval is the shape of fitKernel.EvalBounded and
// partialKernel.EvalBounded.
type boundedEval func(p stickmodel.Pose, a, b, bound float64) float64

// priorTerms returns the prior terms a, b >= 0 a candidate's Eq. (3)
// value is priced with (EvalBounded). nil means no priors.
type priorTerms func(p stickmodel.Pose) (a, b float64)

// objective returns the refinement scan objective over k priced by
// priors: each candidate's prior terms are computed before its Eq. (3)
// sum, so the sum can stop once the priced partial value reaches the
// bound.
func (k *fitKernel) objective(priors priorTerms) scanObjective {
	return func(base stickmodel.Pose, moving stickSet) boundedFit {
		eval := k.scanEval(base, moving)
		if priors == nil {
			return func(p stickmodel.Pose, bound float64) float64 { return eval(p, 0, 0, bound) }
		}
		return func(p stickmodel.Pose, bound float64) float64 {
			a, b := priors(p)
			return eval(p, a, b, bound)
		}
	}
}

// scanEval returns a bounded Eq. (3) evaluator for a refinement scan from
// base whose candidates move only the sticks in moving. Its value is
// exact — the same float64 as EvalBounded — for every pose that differs
// from base only in the angles of those sticks. A scan that moves every
// stick gets EvalBounded itself, which is exact for any pose.
func (k *fitKernel) scanEval(base stickmodel.Pose, moving stickSet) boundedEval {
	if moving == allSticks {
		return k.EvalBounded
	}
	return k.partial(base, moving).EvalBounded
}

// partialKernel evaluates Eq. (3) for poses that share base's fixed
// sticks: the per-point minimum over the fixed sticks is computed once, and
// each candidate only measures the moving sticks against it. Because a
// minimum does not depend on the order it is taken in and the points are
// still summed in row-major order, EvalBounded returns exactly the float64
// of fitKernel.EvalBounded, and with no priors and no bound that of the
// reference fitnessOver.
type partialKernel struct {
	k      *fitKernel
	moving [stickmodel.NumSticks]int
	nmov   int
	// base and dirs are the base pose and its stick directions; a
	// candidate reuses dirs[l] while its ρl has base's bits.
	base stickmodel.Pose
	dirs [stickmodel.NumSticks]imaging.Vec2
	// fixed[i] is min over the fixed sticks of Hypot/t_l at point i
	// (1e18, the reference's starting value, when no stick is fixed);
	// cellMax[c] is the largest fixed[i] of cell c.
	fixed   []float64
	cellMax []float64
}

// partial builds the partial evaluator for scans from base that move the
// sticks in moving.
func (k *fitKernel) partial(base stickmodel.Pose, moving stickSet) *partialKernel {
	pk := &partialKernel{
		k:       k,
		base:    base,
		dirs:    base.Dirs(),
		fixed:   make([]float64, len(k.xs)),
		cellMax: make([]float64, len(k.cells)),
	}
	var fixedIDs [stickmodel.NumSticks]int
	nfix := 0
	for l := 0; l < stickmodel.NumSticks; l++ {
		if moving&(1<<l) != 0 {
			pk.moving[pk.nmov] = l
			pk.nmov++
		} else {
			fixedIDs[nfix] = l
			nfix++
		}
	}
	g := newStickGeom(base, k.dims, &pk.dirs)
	for ci, c := range k.cells {
		cmax := 0.0
		for i := c.start; i < c.end; i++ {
			d := g.minDist(k.xs[i], k.ys[i], 1e18, &fixedIDs, nfix)
			pk.fixed[i] = d
			if d > cmax {
				cmax = d
			}
		}
		pk.cellMax[ci] = cmax
	}
	return pk
}

// EvalBounded is fitKernel.EvalBounded for a pose that differs from the
// base pose only in the moving sticks, with the same contract: the exact
// prior-weighted value when it is below bound, otherwise a value in
// [bound, exact]. Zero heap allocations.
func (pk *partialKernel) EvalBounded(p stickmodel.Pose, a, b, bound float64) float64 {
	k := pk.k
	dirs := pk.dirs
	for l, rho := range p.Rho {
		if math.Float64bits(rho) != math.Float64bits(pk.base.Rho[l]) {
			dirs[l] = stickmodel.Dir(rho)
		}
	}
	g := newStickGeom(p, k.dims, &dirs)
	n := float64(len(k.xs))
	// Under an infinite (or NaN) bound no partial price can stop the sum,
	// so the unbounded evaluation skips the per-cell check.
	stoppable := bound < math.Inf(1)
	var sum float64
	for ci, c := range k.cells {
		// A moving stick whose distance lower bound over the cell's
		// covering circle exceeds every stored fixed minimum of the cell
		// cannot lower any point's minimum there.
		cmax := pk.cellMax[ci]
		var active [stickmodel.NumSticks]int
		nact := 0
		for j := 0; j < pk.nmov; j++ {
			l := pk.moving[j]
			rx, ry := closestOffset(c.cx, c.cy, g.ax[l], g.ay[l], g.dx[l], g.dy[l], g.l2[l])
			lo := math.Sqrt(rx*rx+ry*ry) - c.radius
			if lo < 0 {
				lo = 0
			}
			if lo/g.thick[l] <= cmax+1e-9 {
				active[nact] = l
				nact++
			}
		}
		for i := c.start; i < c.end; i++ {
			best := pk.fixed[i]
			if nact > 0 {
				best = g.minDist(k.xs[i], k.ys[i], best, &active, nact)
			}
			sum += best
		}
		if stoppable {
			if v := price(sum, n, a, b); v >= bound {
				return v
			}
		}
	}
	return price(sum, n, a, b)
}

// stickGeom holds the per-stick locals of Segment.PointDist for one pose.
type stickGeom struct {
	ax, ay, dx, dy, l2, thick, invT2 [stickmodel.NumSticks]float64
}

// newStickGeom lays out p's sticks; dirs[l] must be Dir(p.Rho[l]).
func newStickGeom(p stickmodel.Pose, dims stickmodel.Dimensions, dirs *[stickmodel.NumSticks]imaging.Vec2) stickGeom {
	segs := p.SegmentsFromDirs(dims, dirs)
	var g stickGeom
	for l := 0; l < stickmodel.NumSticks; l++ {
		g.ax[l] = segs[l].A.X
		g.ay[l] = segs[l].A.Y
		g.dx[l] = segs[l].B.X - segs[l].A.X
		g.dy[l] = segs[l].B.Y - segs[l].A.Y
		g.l2[l] = g.dx[l]*g.dx[l] + g.dy[l]*g.dy[l]
		g.thick[l] = dims.Thick[l]
		g.invT2[l] = 1 / (g.thick[l] * g.thick[l])
	}
	return g
}

// minDist folds the sticks ids[:n] into best, the running minimum of the
// reference Hypot(...)/t_l at (px, py), with the reference's strict <. A
// stick whose squared normalised distance exceeds best² by the candMargin
// slack cannot come out below best after rounding, so its Hypot is
// skipped; that never changes the minimum's value.
func (g *stickGeom) minDist(px, py, best float64, ids *[stickmodel.NumSticks]int, n int) float64 {
	limit := best*best + best*best*candMargin + candMargin
	for j := 0; j < n; j++ {
		l := ids[j]
		rx, ry := closestOffset(px, py, g.ax[l], g.ay[l], g.dx[l], g.dy[l], g.l2[l])
		if (rx*rx+ry*ry)*g.invT2[l] > limit {
			continue
		}
		if d := math.Hypot(rx, ry) / g.thick[l]; d < best {
			best = d
			limit = best*best + best*best*candMargin + candMargin
		}
	}
	return best
}

// fitnessOver is the naive Eq. (3) reference evaluator the kernel is pinned
// against: the mean over silhouette points of the minimum
// thickness-normalised distance to any stick. Kept as the ground truth for
// the bit-identity equivalence tests (and any future kernel rewrite);
// production paths use fitKernel.
func fitnessOver(pts []imaging.Vec2, dims stickmodel.Dimensions) func(stickmodel.Pose) float64 {
	return func(p stickmodel.Pose) float64 {
		segs := p.Segments(dims)
		var sum float64
		for _, pt := range pts {
			best := 1e18
			for l := 0; l < stickmodel.NumSticks; l++ {
				d := segs[l].PointDist(pt) / dims.Thick[l]
				if d < best {
					best = d
				}
			}
			sum += best
		}
		return sum / float64(len(pts))
	}
}
