package morphology

import (
	"math/rand"
	"testing"

	"github.com/sljmotion/sljmotion/internal/imaging"
)

// referenceRemoveNoise and referenceFillHoles are the original
// bounds-checked filters, kept as oracles for the interior fast paths.
func referenceRemoveNoise(m *imaging.Mask, minNeighbors int) *imaging.Mask {
	out := imaging.NewMask(m.W, m.H)
	for y := 0; y < m.H; y++ {
		for x := 0; x < m.W; x++ {
			if !m.Bits[y*m.W+x] {
				continue
			}
			n := 0
			for _, d := range neigh8 {
				if m.At(x+d[0], y+d[1]) {
					n++
				}
			}
			if n >= minNeighbors {
				out.Bits[y*m.W+x] = true
			}
		}
	}
	return out
}

func referenceFillHoles(m *imaging.Mask) *imaging.Mask {
	out := m.Clone()
	for y := 0; y < m.H; y++ {
		for x := 0; x < m.W; x++ {
			if m.Bits[y*m.W+x] {
				continue
			}
			all := true
			for _, d := range neigh4 {
				if !m.At(x+d[0], y+d[1]) {
					all = false
					break
				}
			}
			if all {
				out.Bits[y*m.W+x] = true
			}
		}
	}
	return out
}

func sameMask(a, b *imaging.Mask) bool {
	if a.W != b.W || a.H != b.H {
		return false
	}
	for i := range a.Bits {
		if a.Bits[i] != b.Bits[i] {
			return false
		}
	}
	return true
}

func TestFilterMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	sizes := [][2]int{{1, 1}, {1, 7}, {7, 1}, {2, 2}, {3, 3}, {2, 9}, {16, 11}, {40, 33}}
	for _, sz := range sizes {
		for _, density := range []float64{0.2, 0.5, 0.85, 1} {
			m := imaging.NewMask(sz[0], sz[1])
			for i := range m.Bits {
				m.Bits[i] = rng.Float64() < density
			}
			for k := 0; k <= 8; k++ {
				if got, want := RemoveNoise(m, k), referenceRemoveNoise(m, k); !sameMask(got, want) {
					t.Fatalf("%dx%d density %.2f: RemoveNoise(%d) differs from the reference", sz[0], sz[1], density, k)
				}
			}
			want := referenceFillHoles(m)
			got, changed := fillHoles(m)
			if !sameMask(got, want) || changed != !sameMask(m, want) {
				t.Fatalf("%dx%d density %.2f: FillHoles differs from the reference (changed=%v)", sz[0], sz[1], density, changed)
			}
			// FillHolesN: passes until nothing changes, at most n.
			for n := 0; n <= 3; n++ {
				ref := m
				for i := 0; i < n; i++ {
					next := referenceFillHoles(ref)
					if sameMask(next, ref) {
						break
					}
					ref = next
				}
				if !sameMask(FillHolesN(m, n), ref) {
					t.Fatalf("%dx%d density %.2f: FillHolesN(%d) differs from the reference", sz[0], sz[1], density, n)
				}
			}
		}
	}
}
