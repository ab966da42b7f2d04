package stickmodel

import (
	"testing"

	"github.com/sljmotion/sljmotion/internal/imaging"
)

func TestArenaMaskReuse(t *testing.T) {
	var a Arena
	m1 := a.Mask(32, 16)
	if m1.W != 32 || m1.H != 16 {
		t.Fatalf("mask size %dx%d, want 32x16", m1.W, m1.H)
	}
	m1.Set(3, 4, true)
	m2 := a.Mask(32, 16)
	if m2 != m1 {
		t.Error("same-size request must reuse the buffer")
	}
	if m2.At(3, 4) {
		t.Error("reused mask not cleared")
	}
	m3 := a.Mask(8, 8)
	if m3 == m1 {
		t.Error("size change must reallocate")
	}
}

func TestRasterizeIntoMatchesRasterize(t *testing.T) {
	d := ChildDimensions(60)
	p := standingPose(48, 48)
	want := p.Rasterize(d, 96, 96)
	var a Arena
	got := a.Mask(96, 96)
	p.RasterizeInto(d, got)
	for i := range want.Bits {
		if want.Bits[i] != got.Bits[i] {
			t.Fatalf("RasterizeInto differs from Rasterize at bit %d", i)
		}
	}
}

func TestEstimateLengthsArenaMatchesAllocating(t *testing.T) {
	d := ChildDimensions(60)
	p := standingPose(48, 48)
	sil := p.Rasterize(ChildDimensions(75), 120, 120)
	var a Arena
	got := EstimateLengthsArena(p, d, sil, &a)
	want := EstimateLengths(p, d, sil)
	if got != want {
		t.Errorf("arena path %+v != allocating path %+v", got, want)
	}
	// Repeated use keeps the result stable (the scratch mask is cleared).
	if again := EstimateLengthsArena(p, d, sil, &a); again != want {
		t.Error("arena reuse changed the estimate")
	}
}

func TestRasterizeIntoZeroAllocsSteadyState(t *testing.T) {
	d := ChildDimensions(60)
	p := standingPose(48, 48)
	var a Arena
	a.Mask(96, 96) // warm the buffer
	allocs := testing.AllocsPerRun(20, func() {
		m := a.Mask(96, 96)
		p.RasterizeInto(d, m)
	})
	if allocs != 0 {
		t.Errorf("arena rasterization allocates %v/op, want 0", allocs)
	}
}

func TestContainmentFractionZeroAllocs(t *testing.T) {
	d := ChildDimensions(60)
	p := standingPose(48, 48)
	m := p.Rasterize(d, 96, 96)
	allocs := testing.AllocsPerRun(20, func() { p.ContainmentFraction(d, m) })
	if allocs != 0 {
		t.Errorf("ContainmentFraction allocates %v/op, want 0", allocs)
	}
}

func BenchmarkRasterizeInto(b *testing.B) {
	d := ChildDimensions(60)
	p := standingPose(48, 48)
	var a Arena
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := a.Mask(96, 96)
		p.RasterizeInto(d, m)
	}
}

func BenchmarkRasterizeAlloc(b *testing.B) {
	d := ChildDimensions(60)
	p := standingPose(48, 48)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Rasterize(d, 96, 96)
	}
}

func BenchmarkContainmentFraction(b *testing.B) {
	d := ChildDimensions(60)
	p := standingPose(48, 48)
	m := p.Rasterize(d, 96, 96)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.ContainmentFraction(d, m)
	}
}

// BenchmarkContainedAtLeast is the GA's validity check at the temporal
// bound (pose.DefaultConfig's MinContainment) on the pose's own
// silhouette: a pass, decided once enough samples land inside.
func BenchmarkContainedAtLeast(b *testing.B) {
	d := ChildDimensions(60)
	p := standingPose(48, 48)
	m := p.Rasterize(d, 96, 96)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkContained = p.ContainedAtLeast(d, m, 0.85)
	}
}

var (
	sinkMask      *imaging.Mask
	sinkContained bool
)

func BenchmarkArenaMaskClear(b *testing.B) {
	var a Arena
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkMask = a.Mask(96, 96)
	}
}
