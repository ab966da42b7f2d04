// Package stickmodel implements the paper's articulated stick model
// (Section 3, Figures 4-5): eight sticks S0-S7 whose pose is the tuple
// (x0, y0, ρ0..ρ7), forward kinematics for joint positions, capsule
// rasterisation, and thickness estimation from silhouettes.
//
// Angle convention (DESIGN.md §3): every ρl is absolute, measured clockwise
// from the +y (up) axis toward +x, where +x is the jump direction. 0° = up,
// 90° = forward-horizontal, 180° = down, 270° = backward-horizontal. Each
// stick's direction points away from the joint nearer the trunk. Image
// coordinates grow downward, so the image-space direction vector of ρ is
// (sin ρ, -cos ρ).
package stickmodel

import (
	"fmt"
	"math"

	"github.com/sljmotion/sljmotion/internal/imaging"
)

// StickID identifies one of the eight sticks of Figure 4. Two arms and two
// legs are merged into one each because the video is taken from the side.
type StickID int

// Stick identifiers, in the paper's numbering.
const (
	Trunk     StickID = iota // S0
	Neck                     // S1
	UpperArm                 // S2
	Thigh                    // S3
	Head                     // S4
	Forearm                  // S5
	Shank                    // S6
	Foot                     // S7
	NumSticks = 8
)

// String returns the paper's name for the stick.
func (s StickID) String() string {
	switch s {
	case Trunk:
		return "trunk(S0)"
	case Neck:
		return "neck(S1)"
	case UpperArm:
		return "upper-arm(S2)"
	case Thigh:
		return "thigh(S3)"
	case Head:
		return "head(S4)"
	case Forearm:
		return "forearm(S5)"
	case Shank:
		return "shank(S6)"
	case Foot:
		return "foot(S7)"
	default:
		return fmt.Sprintf("stick(%d)", int(s))
	}
}

// JointID identifies a named joint produced by forward kinematics.
type JointID int

// Joints of the kinematic tree.
const (
	JointHip JointID = iota + 1
	JointShoulder
	JointHeadBase
	JointHeadTop
	JointElbow
	JointWrist
	JointKnee
	JointAnkle
	JointToe
	numJoints
)

// String returns the joint name.
func (j JointID) String() string {
	names := map[JointID]string{
		JointHip: "hip", JointShoulder: "shoulder", JointHeadBase: "head-base",
		JointHeadTop: "head-top", JointElbow: "elbow", JointWrist: "wrist",
		JointKnee: "knee", JointAnkle: "ankle", JointToe: "toe",
	}
	if n, ok := names[j]; ok {
		return n
	}
	return fmt.Sprintf("joint(%d)", int(j))
}

// Pose is the chromosome of Section 3: trunk centre plus eight absolute
// angles in degrees: (x0, y0, ρ0, ρ1, ..., ρ7).
type Pose struct {
	X, Y float64            // centre of trunk stick S0, image coordinates
	Rho  [NumSticks]float64 // degrees, convention in the package comment
}

// Dimensions holds per-stick lengths and thicknesses in pixels. Thickness is
// the full stick width (the tl of Eq. 3); capsules are rendered with radius
// Thick/2.
type Dimensions struct {
	Length [NumSticks]float64
	Thick  [NumSticks]float64
}

// ChildDimensions returns body dimensions for a subject of the given total
// height in pixels, using child body proportions. It is both the renderer's
// body and the default prior for pose estimation.
func ChildDimensions(heightPx float64) Dimensions {
	if heightPx <= 0 {
		heightPx = 100
	}
	h := heightPx
	var d Dimensions
	d.Length[Trunk] = 0.30 * h
	d.Length[Neck] = 0.07 * h
	d.Length[UpperArm] = 0.15 * h
	d.Length[Thigh] = 0.23 * h
	d.Length[Head] = 0.12 * h
	d.Length[Forearm] = 0.14 * h
	d.Length[Shank] = 0.21 * h
	d.Length[Foot] = 0.10 * h

	d.Thick[Trunk] = 0.17 * h
	d.Thick[Neck] = 0.06 * h
	d.Thick[UpperArm] = 0.065 * h
	d.Thick[Thigh] = 0.10 * h
	d.Thick[Head] = 0.11 * h
	d.Thick[Forearm] = 0.055 * h
	d.Thick[Shank] = 0.075 * h
	d.Thick[Foot] = 0.05 * h
	return d
}

// Scale returns a copy of d with all lengths and thicknesses multiplied by f.
func (d Dimensions) Scale(f float64) Dimensions {
	var out Dimensions
	for i := 0; i < NumSticks; i++ {
		out.Length[i] = d.Length[i] * f
		out.Thick[i] = d.Thick[i] * f
	}
	return out
}

// Height returns the standing height implied by the dimensions
// (head+neck+trunk+thigh+shank, ignoring foot height).
func (d Dimensions) Height() float64 {
	return d.Length[Head] + d.Length[Neck] + d.Length[Trunk] + d.Length[Thigh] + d.Length[Shank]
}

// Dir converts an angle in degrees to its image-space unit direction
// (clockwise from up; image y grows downward).
func Dir(deg float64) imaging.Vec2 {
	// Sincos runs the argument reduction once for both values and returns
	// exactly math.Sin and math.Cos (pinned by TestDirMatchesSinCos).
	sin, cos := math.Sincos(deg * math.Pi / 180)
	return imaging.Vec2{X: sin, Y: -cos}
}

// AngleOf is the inverse of Dir: it recovers the angle in [0,360) of an
// image-space direction vector.
func AngleOf(v imaging.Vec2) float64 {
	return NormalizeAngle(math.Atan2(v.X, -v.Y) * 180 / math.Pi)
}

// NormalizeAngle maps any angle in degrees to [0, 360).
func NormalizeAngle(deg float64) float64 {
	m := deg
	// math.Mod returns its argument unchanged inside (-360, 360), so only
	// angles outside it (and ±Inf, NaN) pay for the call.
	if !(deg > -360 && deg < 360) {
		m = math.Mod(deg, 360)
	}
	if m < 0 {
		m += 360
	}
	return m
}

// AngleDiff returns the signed smallest rotation from a to b in (-180, 180].
func AngleDiff(a, b float64) float64 {
	d := b - a
	if !(d > -360 && d < 360) { // as in NormalizeAngle
		d = math.Mod(d, 360)
	}
	if d > 180 {
		d -= 360
	} else if d <= -180 {
		d += 360
	}
	return d
}

// AngleLerp interpolates from a to b along the shortest arc.
func AngleLerp(a, b, t float64) float64 {
	return NormalizeAngle(a + AngleDiff(a, b)*t)
}

// Joints computes forward kinematics: the image-space position of every
// named joint for the pose under the given dimensions.
func (p Pose) Joints(d Dimensions) map[JointID]imaging.Vec2 {
	c := imaging.Vec2{X: p.X, Y: p.Y}
	trunkDir := Dir(p.Rho[Trunk])
	hip := c.Sub(trunkDir.Mul(d.Length[Trunk] / 2))
	shoulder := c.Add(trunkDir.Mul(d.Length[Trunk] / 2))

	headBase := shoulder.Add(Dir(p.Rho[Neck]).Mul(d.Length[Neck]))
	headTop := headBase.Add(Dir(p.Rho[Head]).Mul(d.Length[Head]))
	elbow := shoulder.Add(Dir(p.Rho[UpperArm]).Mul(d.Length[UpperArm]))
	wrist := elbow.Add(Dir(p.Rho[Forearm]).Mul(d.Length[Forearm]))
	knee := hip.Add(Dir(p.Rho[Thigh]).Mul(d.Length[Thigh]))
	ankle := knee.Add(Dir(p.Rho[Shank]).Mul(d.Length[Shank]))
	toe := ankle.Add(Dir(p.Rho[Foot]).Mul(d.Length[Foot]))

	return map[JointID]imaging.Vec2{
		JointHip:      hip,
		JointShoulder: shoulder,
		JointHeadBase: headBase,
		JointHeadTop:  headTop,
		JointElbow:    elbow,
		JointWrist:    wrist,
		JointKnee:     knee,
		JointAnkle:    ankle,
		JointToe:      toe,
	}
}

// Dirs returns Dir of every stick angle, indexed by StickID.
func (p Pose) Dirs() [NumSticks]imaging.Vec2 {
	var dirs [NumSticks]imaging.Vec2
	for l, rho := range p.Rho {
		dirs[l] = Dir(rho)
	}
	return dirs
}

// Segments returns the image-space segment of every stick, indexed by
// StickID. Allocating a fixed array keeps the fitness inner loop free of
// map lookups.
func (p Pose) Segments(d Dimensions) [NumSticks]imaging.Segment {
	dirs := p.Dirs()
	return p.SegmentsFromDirs(d, &dirs)
}

// SegmentsFromDirs is Segments with the stick directions supplied:
// dirs[l] must be Dir(p.Rho[l]). Callers that score many poses sharing
// most angles reuse the unchanged directions instead of recomputing them.
func (p Pose) SegmentsFromDirs(d Dimensions, dirs *[NumSticks]imaging.Vec2) [NumSticks]imaging.Segment {
	c := imaging.Vec2{X: p.X, Y: p.Y}
	trunkDir := dirs[Trunk]
	hip := c.Sub(trunkDir.Mul(d.Length[Trunk] / 2))
	shoulder := c.Add(trunkDir.Mul(d.Length[Trunk] / 2))
	headBase := shoulder.Add(dirs[Neck].Mul(d.Length[Neck]))
	elbow := shoulder.Add(dirs[UpperArm].Mul(d.Length[UpperArm]))
	knee := hip.Add(dirs[Thigh].Mul(d.Length[Thigh]))
	ankle := knee.Add(dirs[Shank].Mul(d.Length[Shank]))

	var segs [NumSticks]imaging.Segment
	segs[Trunk] = imaging.Segment{A: hip, B: shoulder}
	segs[Neck] = imaging.Segment{A: shoulder, B: headBase}
	segs[UpperArm] = imaging.Segment{A: shoulder, B: elbow}
	segs[Thigh] = imaging.Segment{A: hip, B: knee}
	segs[Head] = imaging.Segment{A: headBase, B: headBase.Add(dirs[Head].Mul(d.Length[Head]))}
	segs[Forearm] = imaging.Segment{A: elbow, B: elbow.Add(dirs[Forearm].Mul(d.Length[Forearm]))}
	segs[Shank] = imaging.Segment{A: knee, B: ankle}
	segs[Foot] = imaging.Segment{A: ankle, B: ankle.Add(dirs[Foot].Mul(d.Length[Foot]))}
	return segs
}

// Normalize returns a copy of the pose with all angles wrapped to [0, 360).
func (p Pose) Normalize() Pose {
	out := p
	for i := range out.Rho {
		out.Rho[i] = NormalizeAngle(out.Rho[i])
	}
	return out
}

// Interpolate blends two poses: positions linearly, angles along the
// shortest arc. t=0 yields p, t=1 yields q.
func (p Pose) Interpolate(q Pose, t float64) Pose {
	out := Pose{
		X: p.X + t*(q.X-p.X),
		Y: p.Y + t*(q.Y-p.Y),
	}
	for i := range out.Rho {
		out.Rho[i] = AngleLerp(p.Rho[i], q.Rho[i], t)
	}
	return out
}

// Translate returns the pose shifted by (dx, dy).
func (p Pose) Translate(dx, dy float64) Pose {
	out := p
	out.X += dx
	out.Y += dy
	return out
}

// Genome flattens the pose to the 10-gene chromosome layout of Section 3:
// (x0, y0, ρ0, ρ1, ρ2, ρ3, ρ4, ρ5, ρ6, ρ7).
func (p Pose) Genome() []float64 {
	g := make([]float64, 10)
	g[0], g[1] = p.X, p.Y
	for i := 0; i < NumSticks; i++ {
		g[2+i] = p.Rho[i]
	}
	return g
}

// PoseFromGenome reconstructs a pose from a 10-gene chromosome.
func PoseFromGenome(g []float64) (Pose, error) {
	if len(g) != 10 {
		return Pose{}, fmt.Errorf("stickmodel: genome must have 10 genes, got %d", len(g))
	}
	p := Pose{X: g[0], Y: g[1]}
	for i := 0; i < NumSticks; i++ {
		p.Rho[i] = g[2+i]
	}
	return p, nil
}

// CrossoverGroups returns the paper's gene grouping for multiple crossover:
// (x0,y0), (ρ0), (ρ1,ρ4), (ρ2,ρ5), (ρ3,ρ6,ρ7) — neck+head and the limbs
// grouped together. Indices refer to the 10-gene chromosome layout.
func CrossoverGroups() [][]int {
	return [][]int{
		{0, 1},                                // (x0, y0)
		{2},                                   // ρ0 trunk
		{2 + int(Neck), 2 + int(Head)},        // (ρ1, ρ4)
		{2 + int(UpperArm), 2 + int(Forearm)}, // (ρ2, ρ5)
		{2 + int(Thigh), 2 + int(Shank), 2 + int(Foot)}, // (ρ3, ρ6, ρ7)
	}
}
