package ga

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func TestMemoTableBasic(t *testing.T) {
	m := newMemoTable()
	if _, ok := m.lookup(Genome{1, 2}); ok {
		t.Fatal("empty table must miss")
	}
	m.insert(Genome{1, 2}, 0.5)
	if f, ok := m.lookup(Genome{1, 2}); !ok || f != 0.5 {
		t.Fatalf("lookup = %v,%v, want 0.5,true", f, ok)
	}
	if _, ok := m.lookup(Genome{1, 3}); ok {
		t.Fatal("different genome must miss")
	}
	// Refresh overwrites.
	m.insert(Genome{1, 2}, 0.25)
	if f, _ := m.lookup(Genome{1, 2}); f != 0.25 {
		t.Fatalf("refresh lost: %v", f)
	}
	if m.size != 1 {
		t.Fatalf("size = %d after refresh, want 1", m.size)
	}
}

func TestMemoTableBitExactKeys(t *testing.T) {
	m := newMemoTable()
	m.insert(Genome{0.0}, 1)
	// -0.0 has a different bit pattern than +0.0: must be a distinct key.
	if _, ok := m.lookup(Genome{math.Copysign(0, -1)}); ok {
		t.Error("-0.0 must not hit the +0.0 entry")
	}
	nan := math.NaN()
	m.insert(Genome{nan}, 7)
	if f, ok := m.lookup(Genome{nan}); !ok || f != 7 {
		t.Error("bit-identical NaN key must hit")
	}
}

func TestMemoTableGrowth(t *testing.T) {
	m := newMemoTable()
	const n = 4 * memoInitialCap
	for i := 0; i < n; i++ {
		m.insert(Genome{float64(i), float64(i) * 2}, float64(i))
	}
	if m.size != n {
		t.Fatalf("size = %d, want %d", m.size, n)
	}
	for i := 0; i < n; i++ {
		f, ok := m.lookup(Genome{float64(i), float64(i) * 2})
		if !ok || f != float64(i) {
			t.Fatalf("entry %d lost across growth: %v,%v", i, f, ok)
		}
	}
}

func TestMemoTableRejectsLengthMismatch(t *testing.T) {
	m := newMemoTable()
	m.insert(Genome{1, 2}, 3)
	m.insert(Genome{1, 2, 3}, 4) // silently ignored: wrong arity
	if _, ok := m.lookup(Genome{1, 2, 3}); ok {
		t.Error("mismatched genome length must never hit")
	}
	if m.size != 1 {
		t.Errorf("size = %d, want 1", m.size)
	}
}

func TestMemoLookupZeroAllocs(t *testing.T) {
	m := newMemoTable()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		m.insert(Genome{rng.Float64(), rng.Float64(), rng.Float64()}, rng.Float64())
	}
	g := Genome{0.5, 0.25, 0.125}
	m.insert(g, 9)
	allocs := testing.AllocsPerRun(100, func() {
		if _, ok := m.lookup(g); !ok {
			t.Fatal("hit expected")
		}
	})
	if allocs != 0 {
		t.Errorf("memo lookup allocates %v/op, want 0", allocs)
	}
}

// TestMemoizationPreservesEvolution is the determinism contract of the memo
// layer: because fitness is pure, a memoized run must reproduce the
// non-memoized run exactly — same best genome, history and requested
// evaluation count — while actually computing fewer scores.
func TestMemoizationPreservesEvolution(t *testing.T) {
	run := func(memo bool) *Result {
		eng, err := New(sphereSpec([]float64{3, -2, 7}),
			WithPopulationSize(30), WithGenerations(60),
			WithImmigrantRate(0.1), WithMutationRate(0.2),
			WithRandSeed(42), WithMemoization(memo))
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain, memo := run(false), run(true)
	if plain.BestFitness != memo.BestFitness {
		t.Errorf("best fitness %v != %v", memo.BestFitness, plain.BestFitness)
	}
	for i := range plain.Best {
		if plain.Best[i] != memo.Best[i] {
			t.Fatalf("best genome differs at gene %d", i)
		}
	}
	if plain.Evaluations != memo.Evaluations {
		t.Errorf("requested evaluations %d != %d (memo must not change the count)",
			memo.Evaluations, plain.Evaluations)
	}
	if len(plain.History) != len(memo.History) {
		t.Fatalf("history length %d != %d", len(memo.History), len(plain.History))
	}
	for i := range plain.History {
		if plain.History[i] != memo.History[i] {
			t.Fatalf("history differs at generation %d", i)
		}
	}
	if plain.MemoHits != 0 || plain.MemoMisses != 0 {
		t.Error("non-memoized run must report zero memo traffic")
	}
	if memo.MemoHits == 0 {
		t.Error("memoized elitist run must hit (elites recur every generation)")
	}
	if memo.MemoHits+memo.MemoMisses != memo.Evaluations {
		t.Errorf("hits %d + misses %d != evaluations %d",
			memo.MemoHits, memo.MemoMisses, memo.Evaluations)
	}
}

func TestMemoizationDeterministicUnderParallelism(t *testing.T) {
	run := func(par int) *Result {
		eng, err := New(sphereSpec([]float64{1, 2, 3}),
			WithPopulationSize(24), WithGenerations(40),
			WithMutationRate(0.2), WithRandSeed(7),
			WithMemoization(true), WithParallelism(par))
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	seq := run(1)
	for _, par := range []int{2, 4} {
		got := run(par)
		if got.BestFitness != seq.BestFitness || got.MemoHits != seq.MemoHits {
			t.Errorf("parallelism %d: (best, hits) = (%v, %d), want (%v, %d)",
				par, got.BestFitness, got.MemoHits, seq.BestFitness, seq.MemoHits)
		}
	}
}

func BenchmarkMemoLookupHit(b *testing.B) {
	m := newMemoTable()
	rng := rand.New(rand.NewSource(1))
	genomes := make([]Genome, 512)
	for i := range genomes {
		g := Genome{rng.Float64(), rng.Float64(), rng.Float64(),
			rng.Float64(), rng.Float64(), rng.Float64(),
			rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}
		genomes[i] = g
		m.insert(g, float64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := m.lookup(genomes[i&511]); !ok {
			b.Fatal("hit expected")
		}
	}
}

func BenchmarkMemoInsert(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	genomes := make([]Genome, 4096)
	for i := range genomes {
		genomes[i] = Genome{rng.Float64(), rng.Float64(), rng.Float64(),
			rng.Float64(), rng.Float64(), rng.Float64(),
			rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var m *memoTable
	for i := 0; i < b.N; i++ {
		if i&4095 == 0 {
			m = newMemoTable()
		}
		m.insert(genomes[i&4095], float64(i))
	}
	_ = fmt.Sprint(m.size)
}
