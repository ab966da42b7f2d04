package stickmodel

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/sljmotion/sljmotion/internal/imaging"
)

func TestNormalizeAngle(t *testing.T) {
	tests := []struct{ in, want float64 }{
		{0, 0}, {360, 0}, {-90, 270}, {720, 0}, {450, 90}, {-720, 0}, {359.5, 359.5},
	}
	for _, tt := range tests {
		if got := NormalizeAngle(tt.in); math.Abs(got-tt.want) > 1e-9 {
			t.Errorf("NormalizeAngle(%v) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

func TestNormalizeAngleRangeProperty(t *testing.T) {
	f := func(deg float64) bool {
		if math.IsNaN(deg) || math.IsInf(deg, 0) || math.Abs(deg) > 1e12 {
			return true
		}
		n := NormalizeAngle(deg)
		return n >= 0 && n < 360
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAngleDiff(t *testing.T) {
	tests := []struct{ a, b, want float64 }{
		{0, 90, 90},
		{90, 0, -90},
		{350, 10, 20},
		{10, 350, -20},
		{0, 180, 180},
		{180, 0, 180}, // boundary maps to +180
		{45, 45, 0},
	}
	for _, tt := range tests {
		if got := AngleDiff(tt.a, tt.b); math.Abs(got-tt.want) > 1e-9 {
			t.Errorf("AngleDiff(%v,%v) = %v, want %v", tt.a, tt.b, got, tt.want)
		}
	}
}

// Property: AngleDiff is the shortest signed rotation: |d| <= 180 and
// rotating a by d reaches b.
func TestAngleDiffProperty(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.Abs(a) > 1e9 || math.Abs(b) > 1e9 {
			return true
		}
		d := AngleDiff(a, b)
		reach := math.Abs(NormalizeAngle(a+d) - NormalizeAngle(b))
		if reach > 180 {
			reach = 360 - reach
		}
		return d > -180-1e-9 && d <= 180+1e-9 && reach < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestAngleLerp(t *testing.T) {
	if got := AngleLerp(350, 10, 0.5); math.Abs(got-0) > 1e-9 {
		t.Errorf("AngleLerp(350,10,0.5) = %v, want 0 (wraps short way)", got)
	}
	if got := AngleLerp(0, 90, 0); got != 0 {
		t.Errorf("t=0 should return start, got %v", got)
	}
	if got := AngleLerp(0, 90, 1); got != 90 {
		t.Errorf("t=1 should return end, got %v", got)
	}
}

func TestDirAngleOfRoundTrip(t *testing.T) {
	for deg := 0.0; deg < 360; deg += 7.5 {
		v := Dir(deg)
		if math.Abs(v.Len()-1) > 1e-12 {
			t.Fatalf("Dir(%v) not unit: %v", deg, v.Len())
		}
		back := AngleOf(v)
		d := math.Abs(AngleDiff(deg, back))
		if d > 1e-9 {
			t.Errorf("AngleOf(Dir(%v)) = %v", deg, back)
		}
	}
}

func TestDirConvention(t *testing.T) {
	// 0° = up (negative image y), 90° = +x, 180° = down, 270° = -x.
	checks := []struct {
		deg  float64
		want imaging.Vec2
	}{
		{0, imaging.Vec2{X: 0, Y: -1}},
		{90, imaging.Vec2{X: 1, Y: 0}},
		{180, imaging.Vec2{X: 0, Y: 1}},
		{270, imaging.Vec2{X: -1, Y: 0}},
	}
	for _, c := range checks {
		v := Dir(c.deg)
		if math.Abs(v.X-c.want.X) > 1e-12 || math.Abs(v.Y-c.want.Y) > 1e-12 {
			t.Errorf("Dir(%v) = %+v, want %+v", c.deg, v, c.want)
		}
	}
}

func TestChildDimensions(t *testing.T) {
	d := ChildDimensions(100)
	if math.Abs(d.Height()-93) > 1 {
		t.Errorf("Height() = %v, want ~93 (head+neck+trunk+thigh+shank)", d.Height())
	}
	for i := 0; i < NumSticks; i++ {
		if d.Length[i] <= 0 || d.Thick[i] <= 0 {
			t.Fatalf("stick %d has non-positive dimension", i)
		}
	}
	// Non-positive height selects a sane default.
	d2 := ChildDimensions(-5)
	if d2.Length[Trunk] <= 0 {
		t.Error("fallback dimensions invalid")
	}
}

func TestDimensionsScale(t *testing.T) {
	d := ChildDimensions(50)
	s := d.Scale(2)
	if math.Abs(s.Length[Trunk]-2*d.Length[Trunk]) > 1e-12 {
		t.Error("Scale did not scale lengths")
	}
	if math.Abs(s.Height()-2*d.Height()) > 1e-9 {
		t.Error("Scale did not scale height")
	}
}

// standingPose returns an upright pose centred at (cx, cy).
func standingPose(cx, cy float64) Pose {
	p := Pose{X: cx, Y: cy}
	p.Rho[Trunk] = 0
	p.Rho[Neck] = 0
	p.Rho[Head] = 0
	p.Rho[UpperArm] = 180
	p.Rho[Forearm] = 180
	p.Rho[Thigh] = 180
	p.Rho[Shank] = 180
	p.Rho[Foot] = 90
	return p
}

func TestJointsKinematics(t *testing.T) {
	d := ChildDimensions(100)
	p := standingPose(50, 50)
	j := p.Joints(d)

	shoulder := j[JointShoulder]
	hip := j[JointHip]
	if math.Abs(shoulder.X-50) > 1e-9 || math.Abs(hip.X-50) > 1e-9 {
		t.Error("upright trunk joints must be vertically aligned")
	}
	if math.Abs((hip.Y-shoulder.Y)-d.Length[Trunk]) > 1e-9 {
		t.Errorf("trunk length %v, want %v", hip.Y-shoulder.Y, d.Length[Trunk])
	}
	// Head top is the highest point; toe roughly the lowest-forward point.
	if j[JointHeadTop].Y >= shoulder.Y {
		t.Error("head top must be above shoulder")
	}
	if j[JointAnkle].Y <= hip.Y {
		t.Error("ankle must be below hip")
	}
	if j[JointToe].X <= j[JointAnkle].X {
		t.Error("foot at 90° must point forward (+x)")
	}
	// Elbow hangs below the shoulder for a 180° arm.
	if j[JointElbow].Y <= shoulder.Y {
		t.Error("hanging arm must point down")
	}
}

func TestSegmentsMatchJoints(t *testing.T) {
	d := ChildDimensions(80)
	p := Pose{X: 40, Y: 60}
	for l := 0; l < NumSticks; l++ {
		p.Rho[l] = float64(l) * 40
	}
	j := p.Joints(d)
	segs := p.Segments(d)

	if segs[Trunk].A != j[JointHip] || segs[Trunk].B != j[JointShoulder] {
		t.Error("trunk segment != hip→shoulder")
	}
	if segs[Neck].A != j[JointShoulder] || segs[Neck].B != j[JointHeadBase] {
		t.Error("neck segment != shoulder→head-base")
	}
	if segs[Head].B != j[JointHeadTop] {
		t.Error("head segment end != head-top")
	}
	if segs[UpperArm].B != j[JointElbow] || segs[Forearm].B != j[JointWrist] {
		t.Error("arm segments mismatch")
	}
	if segs[Thigh].B != j[JointKnee] || segs[Shank].B != j[JointAnkle] || segs[Foot].B != j[JointToe] {
		t.Error("leg segments mismatch")
	}
	// Every stick's length matches its dimension.
	for l := 0; l < NumSticks; l++ {
		if math.Abs(segs[l].Len()-d.Length[l]) > 1e-9 {
			t.Errorf("stick %d length %v, want %v", l, segs[l].Len(), d.Length[l])
		}
	}
}

func TestGenomeRoundTrip(t *testing.T) {
	p := Pose{X: 12.5, Y: -3}
	for l := 0; l < NumSticks; l++ {
		p.Rho[l] = float64(l*37) + 0.25
	}
	g := p.Genome()
	if len(g) != 10 {
		t.Fatalf("genome length %d", len(g))
	}
	back, err := PoseFromGenome(g)
	if err != nil {
		t.Fatal(err)
	}
	if back != p {
		t.Errorf("roundtrip %+v != %+v", back, p)
	}
	if _, err := PoseFromGenome(g[:9]); err == nil {
		t.Error("short genome must error")
	}
}

func TestCrossoverGroupsCoverAllGenes(t *testing.T) {
	groups := CrossoverGroups()
	if len(groups) != 5 {
		t.Fatalf("want the paper's 5 groups, got %d", len(groups))
	}
	seen := map[int]bool{}
	for _, g := range groups {
		for _, idx := range g {
			if seen[idx] {
				t.Fatalf("gene %d in two groups", idx)
			}
			seen[idx] = true
		}
	}
	for i := 0; i < 10; i++ {
		if !seen[i] {
			t.Errorf("gene %d not in any group", i)
		}
	}
	// The paper pairs neck+head and the two arm sticks, and groups the leg.
	if len(groups[2]) != 2 || len(groups[3]) != 2 || len(groups[4]) != 3 {
		t.Error("group sizes differ from the paper's (ρ1,ρ4)(ρ2,ρ5)(ρ3,ρ6,ρ7)")
	}
}

func TestPoseNormalize(t *testing.T) {
	p := Pose{}
	p.Rho[0] = -30
	p.Rho[1] = 400
	n := p.Normalize()
	if n.Rho[0] != 330 || math.Abs(n.Rho[1]-40) > 1e-9 {
		t.Errorf("Normalize = %v, %v", n.Rho[0], n.Rho[1])
	}
}

func TestPoseInterpolate(t *testing.T) {
	a := standingPose(10, 10)
	b := standingPose(20, 30)
	b.Rho[UpperArm] = 270
	mid := a.Interpolate(b, 0.5)
	if mid.X != 15 || mid.Y != 20 {
		t.Errorf("centre = (%v,%v)", mid.X, mid.Y)
	}
	if math.Abs(mid.Rho[UpperArm]-225) > 1e-9 {
		t.Errorf("arm = %v, want 225", mid.Rho[UpperArm])
	}
	if a.Interpolate(b, 0) != a.Normalize() {
		t.Error("t=0 must return start")
	}
}

func TestPoseTranslate(t *testing.T) {
	p := standingPose(5, 5).Translate(3, -2)
	if p.X != 8 || p.Y != 3 {
		t.Errorf("Translate = (%v,%v)", p.X, p.Y)
	}
}

func TestStickAndJointNames(t *testing.T) {
	if Trunk.String() != "trunk(S0)" || Foot.String() != "foot(S7)" {
		t.Error("stick names wrong")
	}
	if StickID(99).String() == "" || JointID(99).String() == "" {
		t.Error("unknown ids must still render")
	}
	if JointHip.String() != "hip" {
		t.Error("joint name wrong")
	}
}

// pinAngles is the angle set the fast-path pins run over: a 0.001° grid
// over [-1080°, 1080°] (in integer steps, so the grid points are exact
// multiples), the period boundaries ±0, ±360, ±720 with their float
// neighbours, ±Inf, NaN, and random angles over the range the GA's
// seeding, mutation and refinement produce before normalising.
func pinAngles() []float64 {
	var out []float64
	for i := -1080000; i <= 1080000; i++ {
		out = append(out, float64(i)/1000)
	}
	for _, edge := range []float64{0, math.Copysign(0, -1), 360, -360, 720, -720} {
		out = append(out, edge, math.Nextafter(edge, math.Inf(1)), math.Nextafter(edge, math.Inf(-1)))
	}
	out = append(out, math.Inf(1), math.Inf(-1), math.NaN())
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200000; i++ {
		out = append(out, -540+rng.Float64()*1260)
	}
	return out
}

// sameFloat reports bit equality, counting every NaN as equal.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// TestDirMatchesSinCos pins Dir's single math.Sincos call to the separate
// math.Sin and math.Cos calls it replaced, bit for bit, on every angle of
// pinAngles — run under each Go release CI builds with, since the identity
// is a property of the standard library's implementation.
func TestDirMatchesSinCos(t *testing.T) {
	for _, deg := range pinAngles() {
		r := deg * math.Pi / 180
		got := Dir(deg)
		if !sameFloat(got.X, math.Sin(r)) || !sameFloat(got.Y, -math.Cos(r)) {
			t.Fatalf("Dir(%v) = (%v, %v), want (%v, %v)", deg, got.X, got.Y, math.Sin(r), -math.Cos(r))
		}
	}
}

// TestAngleHelpersMatchModForm pins NormalizeAngle and AngleDiff, which
// skip math.Mod inside (-360, 360), to their math.Mod forms, bit for bit.
func TestAngleHelpersMatchModForm(t *testing.T) {
	normalize := func(deg float64) float64 {
		m := math.Mod(deg, 360)
		if m < 0 {
			m += 360
		}
		return m
	}
	diff := func(a, b float64) float64 {
		d := math.Mod(b-a, 360)
		if d > 180 {
			d -= 360
		} else if d <= -180 {
			d += 360
		}
		return d
	}
	rng := rand.New(rand.NewSource(9))
	for _, deg := range pinAngles() {
		if got, want := NormalizeAngle(deg), normalize(deg); !sameFloat(got, want) {
			t.Fatalf("NormalizeAngle(%v) = %v, want %v", deg, got, want)
		}
		other := rng.Float64() * 360
		for _, ab := range [][2]float64{{0, deg}, {deg, 0}, {other, deg}, {deg, other}} {
			if got, want := AngleDiff(ab[0], ab[1]), diff(ab[0], ab[1]); !sameFloat(got, want) {
				t.Fatalf("AngleDiff(%v, %v) = %v, want %v", ab[0], ab[1], got, want)
			}
		}
	}
}
