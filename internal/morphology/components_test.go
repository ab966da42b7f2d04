package morphology

import (
	"testing"

	"github.com/sljmotion/sljmotion/internal/imaging"
)

func TestComponentsTwoBlobs(t *testing.T) {
	m := imaging.NewMask(20, 10)
	imaging.FillRectMask(m, imaging.Rect{X0: 1, Y0: 1, X1: 4, Y1: 4})   // 16 px
	imaging.FillRectMask(m, imaging.Rect{X0: 10, Y0: 2, X1: 17, Y1: 7}) // 48 px
	labels := Components(m, Conn8)
	if len(labels.Regions) != 2 {
		t.Fatalf("regions = %d, want 2", len(labels.Regions))
	}
	// Sorted by descending area.
	if labels.Regions[0].Area != 48 || labels.Regions[1].Area != 16 {
		t.Errorf("areas = %d, %d", labels.Regions[0].Area, labels.Regions[1].Area)
	}
	big := labels.Regions[0]
	if big.BBox != (imaging.Rect{X0: 10, Y0: 2, X1: 17, Y1: 7}) {
		t.Errorf("bbox = %+v", big.BBox)
	}
	if big.Centroid.X != 13.5 || big.Centroid.Y != 4.5 {
		t.Errorf("centroid = %+v", big.Centroid)
	}
}

func TestComponentsConnectivity(t *testing.T) {
	// Two pixels touching only diagonally: one component under 8-conn,
	// two under 4-conn.
	m := imaging.NewMask(4, 4)
	m.Set(1, 1, true)
	m.Set(2, 2, true)
	if got := len(Components(m, Conn8).Regions); got != 1 {
		t.Errorf("8-conn regions = %d, want 1", got)
	}
	if got := len(Components(m, Conn4).Regions); got != 2 {
		t.Errorf("4-conn regions = %d, want 2", got)
	}
}

func TestComponentsEmptyMask(t *testing.T) {
	labels := Components(imaging.NewMask(5, 5), Conn8)
	if len(labels.Regions) != 0 {
		t.Errorf("empty mask produced %d regions", len(labels.Regions))
	}
}

func TestComponentsAreaSum(t *testing.T) {
	m := imaging.NewMask(15, 15)
	imaging.FillRectMask(m, imaging.Rect{X0: 0, Y0: 0, X1: 3, Y1: 3})
	imaging.FillRectMask(m, imaging.Rect{X0: 8, Y0: 8, X1: 14, Y1: 14})
	m.Set(6, 2, true)
	labels := Components(m, Conn8)
	total := 0
	for _, r := range labels.Regions {
		total += r.Area
	}
	if total != m.Count() {
		t.Errorf("region areas sum to %d, mask has %d", total, m.Count())
	}
}

func TestMaskOf(t *testing.T) {
	m := imaging.NewMask(10, 5)
	imaging.FillRectMask(m, imaging.Rect{X0: 0, Y0: 0, X1: 1, Y1: 1})
	imaging.FillRectMask(m, imaging.Rect{X0: 6, Y0: 2, X1: 8, Y1: 4})
	labels := Components(m, Conn8)
	largest := labels.MaskOf(labels.Regions[0].Label)
	if largest.Count() != 9 {
		t.Errorf("largest mask count = %d, want 9", largest.Count())
	}
	if largest.At(0, 0) {
		t.Error("largest mask contains other region")
	}
}

func TestRemoveSmallSpots(t *testing.T) {
	m := imaging.NewMask(20, 20)
	imaging.FillRectMask(m, imaging.Rect{X0: 2, Y0: 2, X1: 9, Y1: 9})   // 64 px body
	m.Set(15, 15, true)                                                 // 1 px spot
	imaging.FillRectMask(m, imaging.Rect{X0: 15, Y0: 2, X1: 16, Y1: 3}) // 4 px spot
	out := RemoveSmallSpots(m, 0, 10, Conn8)
	if out.At(15, 15) || out.At(15, 2) {
		t.Error("small spots survived")
	}
	if !out.At(5, 5) {
		t.Error("large component removed")
	}
}

func TestKeepLargest(t *testing.T) {
	m := imaging.NewMask(20, 20)
	imaging.FillRectMask(m, imaging.Rect{X0: 1, Y0: 1, X1: 6, Y1: 6})
	imaging.FillRectMask(m, imaging.Rect{X0: 10, Y0: 10, X1: 12, Y1: 12})
	out := KeepLargest(m, Conn8)
	if out.Count() != 36 {
		t.Errorf("kept %d pixels, want 36", out.Count())
	}
	if KeepLargest(imaging.NewMask(4, 4), Conn8).Count() != 0 {
		t.Error("empty mask should stay empty")
	}
}

func TestAdaptiveSpotThreshold(t *testing.T) {
	m := imaging.NewMask(40, 40)
	imaging.FillRectMask(m, imaging.Rect{X0: 0, Y0: 0, X1: 19, Y1: 19})   // 400 px
	imaging.FillRectMask(m, imaging.Rect{X0: 25, Y0: 0, X1: 34, Y1: 7})   // 80 px
	imaging.FillRectMask(m, imaging.Rect{X0: 0, Y0: 25, X1: 39, Y1: 26})  // 80 px
	m.Set(39, 26, false)                                                  // now 79 px
	imaging.FillRectMask(m, imaging.Rect{X0: 25, Y0: 12, X1: 29, Y1: 19}) // 40 px
	kept := func(out *imaging.Mask) [4]bool {
		return [4]bool{out.At(0, 0), out.At(25, 0), out.At(0, 25), out.At(25, 12)}
	}
	// 0.2×400 = 80: the 79 px strip and the 40 px block go.
	if got := kept(RemoveSmallSpots(m, 0.2, 40, Conn8)); got != [4]bool{true, true, false, false} {
		t.Errorf("bound 80 kept %v", got)
	}
	// 0.01×400 = 4 < floor 40: everything down to 40 px stays.
	if got := kept(RemoveSmallSpots(m, 0.01, 40, Conn8)); got != [4]bool{true, true, true, true} {
		t.Errorf("floor 40 kept %v", got)
	}
	if RemoveSmallSpots(imaging.NewMask(5, 5), 0.2, 40, Conn8).Count() != 0 {
		t.Error("empty mask should stay empty")
	}
}
