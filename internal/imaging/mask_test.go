package imaging

import (
	"math/rand"
	"testing"
)

func TestMaskAtOutOfBounds(t *testing.T) {
	m := NewMask(3, 3)
	m.Set(1, 1, true)
	if m.At(-1, 0) || m.At(3, 0) || m.At(0, -1) || m.At(0, 3) {
		t.Error("out-of-bounds At must return false")
	}
	if !m.At(1, 1) {
		t.Error("Set/At roundtrip failed")
	}
}

func TestMaskCountAndEmpty(t *testing.T) {
	m := NewMask(4, 4)
	if !m.Empty() || m.Count() != 0 {
		t.Error("new mask should be empty")
	}
	m.Set(0, 0, true)
	m.Set(3, 3, true)
	if m.Count() != 2 || m.Empty() {
		t.Errorf("Count = %d, want 2", m.Count())
	}
}

func TestMaskCentroid(t *testing.T) {
	m := NewMask(5, 5)
	if _, _, ok := m.Centroid(); ok {
		t.Error("empty mask must have no centroid")
	}
	m.Set(1, 1, true)
	m.Set(3, 1, true)
	m.Set(1, 3, true)
	m.Set(3, 3, true)
	cx, cy, ok := m.Centroid()
	if !ok || cx != 2 || cy != 2 {
		t.Errorf("Centroid = (%v,%v,%v), want (2,2,true)", cx, cy, ok)
	}
}

func TestMaskBBox(t *testing.T) {
	m := NewMask(6, 6)
	if _, ok := m.BBox(); ok {
		t.Error("empty mask must have no bbox")
	}
	m.Set(2, 1, true)
	m.Set(4, 3, true)
	bb, ok := m.BBox()
	if !ok || bb != (Rect{X0: 2, Y0: 1, X1: 4, Y1: 3}) {
		t.Errorf("BBox = %+v", bb)
	}
	if bb.W() != 3 || bb.H() != 3 || bb.Area() != 9 {
		t.Errorf("W/H/Area = %d/%d/%d", bb.W(), bb.H(), bb.Area())
	}
	if !bb.Contains(3, 2) || bb.Contains(5, 2) {
		t.Error("Contains wrong")
	}
}

func TestMaskPointsRowMajor(t *testing.T) {
	m := NewMask(3, 2)
	m.Set(2, 0, true)
	m.Set(0, 1, true)
	pts := m.Points()
	if len(pts) != 2 || pts[0] != (Point{2, 0}) || pts[1] != (Point{0, 1}) {
		t.Errorf("Points = %v", pts)
	}
}

func randomMask(rng *rand.Rand, w, h int) *Mask {
	m := NewMask(w, h)
	for i := range m.Bits {
		m.Bits[i] = rng.Intn(2) == 0
	}
	return m
}
