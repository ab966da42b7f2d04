package ga

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// sphereSpec is a smooth convex test problem: minimise Σ (g_i - target_i)².
func sphereSpec(target []float64) Spec {
	return Spec{
		Fitness: func(g Genome) float64 {
			var s float64
			for i := range g {
				d := g[i] - target[i]
				s += d * d
			}
			return s
		},
		Seed: func(rng *rand.Rand) Genome {
			g := make(Genome, len(target))
			for i := range g {
				g[i] = rng.Float64()*20 - 10
			}
			return g
		},
		Mutate: func(rng *rand.Rand, g Genome, group []int) {
			for _, i := range group {
				g[i] += rng.NormFloat64()
			}
		},
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.PopulationSize = 1 },
		func(c *Config) { c.Generations = 0 },
		func(c *Config) { c.EliteFraction = 1.5 },
		func(c *Config) { c.CrossoverRate = -0.1 },
		func(c *Config) { c.MutationRate = 2 },
		func(c *Config) { c.MaxSeedTries = 0 },
		func(c *Config) { c.ImmigrantRate = -1 },
		func(c *Config) { c.EliteFraction = math.NaN() },
		func(c *Config) { c.CrossoverRate = math.NaN() },
		func(c *Config) { c.MutationRate = math.NaN() },
		func(c *Config) { c.ImmigrantRate = math.NaN() },
	}
	for i, mod := range bad {
		cfg := DefaultConfig()
		mod(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d should be invalid", i)
		}
	}
}

func TestNewRequiresFitnessAndSeed(t *testing.T) {
	if _, err := New(Spec{Seed: func(*rand.Rand) Genome { return Genome{0} }}); err == nil {
		t.Error("missing Fitness must error")
	}
	if _, err := New(Spec{Fitness: func(Genome) float64 { return 0 }}); err == nil {
		t.Error("missing Seed must error")
	}
}

func TestNewRejectsBadOptions(t *testing.T) {
	spec := sphereSpec([]float64{0})
	if _, err := New(spec, WithPopulationSize(1)); err == nil {
		t.Error("bad option must error")
	}
}

func TestRunConvergesOnSphere(t *testing.T) {
	target := []float64{3, -2, 7, 0.5}
	eng, err := New(sphereSpec(target),
		WithPopulationSize(50),
		WithGenerations(150),
		WithMutationRate(0.3), // generous mutation for a smooth problem
		WithRandSeed(42),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.BestFitness > 1.0 {
		t.Errorf("did not converge: best fitness %v", res.BestFitness)
	}
	for i := range target {
		if math.Abs(res.Best[i]-target[i]) > 1.5 {
			t.Errorf("gene %d = %v, want ~%v", i, res.Best[i], target[i])
		}
	}
}

// Property: the recorded history of best fitness is non-increasing — the
// elitist strategy can never lose the best individual.
func TestElitismMonotoneHistory(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		eng, err := New(sphereSpec([]float64{1, 2}),
			WithPopulationSize(20), WithGenerations(60), WithRandSeed(seed))
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(res.History); i++ {
			if res.History[i] > res.History[i-1]+1e-12 {
				t.Fatalf("seed %d: history increased at %d: %v -> %v",
					seed, i, res.History[i-1], res.History[i])
			}
		}
		if res.BestFitness != res.History[len(res.History)-1] {
			t.Error("final history entry must equal best fitness")
		}
	}
}

func TestDeterminismWithSameSeed(t *testing.T) {
	run := func() *Result {
		eng, err := New(sphereSpec([]float64{5}),
			WithPopulationSize(30), WithGenerations(40), WithRandSeed(99))
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.BestFitness != b.BestFitness || a.Best[0] != b.Best[0] || a.Evaluations != b.Evaluations {
		t.Error("same seed must reproduce the identical run")
	}
}

func TestTargetFitnessEarlyStop(t *testing.T) {
	eng, err := New(sphereSpec([]float64{0, 0}),
		WithPopulationSize(40), WithGenerations(500),
		WithMutationRate(0.3), WithTargetFitness(0.5), WithRandSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.BestFitness > 0.5 && res.Generations == 500 {
		t.Error("early stop did not trigger")
	}
	if res.Generations >= 500 {
		t.Errorf("ran %d generations, expected early stop", res.Generations)
	}
}

func TestPatienceEarlyStop(t *testing.T) {
	// A constant fitness function can never improve: patience must stop
	// the run almost immediately.
	spec := Spec{
		Fitness: func(Genome) float64 { return 1 },
		Seed:    func(rng *rand.Rand) Genome { return Genome{rng.Float64()} },
	}
	eng, err := New(spec, WithPopulationSize(10), WithGenerations(1000),
		WithPatience(5), WithRandSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Generations > 10 {
		t.Errorf("patience ignored: ran %d generations", res.Generations)
	}
}

func TestValidityConstraintRespected(t *testing.T) {
	// Genomes must stay in [0, 10]; the optimum of the unconstrained
	// problem (-5) lies outside.
	spec := Spec{
		Fitness: func(g Genome) float64 { return (g[0] + 5) * (g[0] + 5) },
		Seed: func(rng *rand.Rand) Genome {
			return Genome{rng.Float64() * 10}
		},
		Valid: func(g Genome) bool { return g[0] >= 0 && g[0] <= 10 },
		Mutate: func(rng *rand.Rand, g Genome, group []int) {
			for _, i := range group {
				g[i] += rng.NormFloat64() * 2
			}
		},
	}
	eng, err := New(spec, WithPopulationSize(30), WithGenerations(60),
		WithMutationRate(0.5), WithRandSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Best[0] < 0 || res.Best[0] > 10 {
		t.Fatalf("best genome %v violates constraint", res.Best[0])
	}
	// The constrained optimum is at the boundary 0.
	if res.Best[0] > 1 {
		t.Errorf("best %v, want near 0", res.Best[0])
	}
}

func TestImpossibleSeedingFails(t *testing.T) {
	spec := Spec{
		Fitness: func(Genome) float64 { return 0 },
		Seed:    func(rng *rand.Rand) Genome { return Genome{1} },
		Valid:   func(Genome) bool { return false },
	}
	eng, err := New(spec, WithPopulationSize(5), WithGenerations(5))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err == nil {
		t.Error("unseedable problem must return an error")
	}
}

func TestGroupedCrossoverUsesGroups(t *testing.T) {
	// With crossover rate 1 and two parents from disjoint constant
	// populations, every child gene group must come wholly from one parent.
	spec := sphereSpec([]float64{0, 0, 0, 0})
	spec.Groups = [][]int{{0, 1}, {2, 3}}
	eng, err := New(spec, WithPopulationSize(10), WithGenerations(3),
		WithCrossoverRate(1), WithMutationRate(0), WithRandSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	// Behavioural check only: the engine must accept custom groups and run.
}

func TestBestFoundAtTracksImprovement(t *testing.T) {
	eng, err := New(sphereSpec([]float64{2}),
		WithPopulationSize(30), WithGenerations(50),
		WithMutationRate(0.4), WithRandSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.BestFoundAt < 0 || res.BestFoundAt > res.Generations {
		t.Errorf("BestFoundAt = %d outside [0,%d]", res.BestFoundAt, res.Generations)
	}
	// The fitness at BestFoundAt must equal the final best.
	if res.History[res.BestFoundAt] != res.BestFitness {
		t.Errorf("history[%d] = %v, best = %v", res.BestFoundAt,
			res.History[res.BestFoundAt], res.BestFitness)
	}
	if res.BestFoundAt > 0 && res.History[res.BestFoundAt-1] <= res.BestFitness {
		t.Error("BestFoundAt is not the first generation reaching the best")
	}
}

func TestImmigrantsKeepDiversity(t *testing.T) {
	// With immigrants enabled the run must still converge and count their
	// evaluations.
	eng, err := New(sphereSpec([]float64{1, 1}),
		WithPopulationSize(20), WithGenerations(40),
		WithImmigrantRate(0.3), WithMutationRate(0.3), WithRandSeed(13))
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.BestFitness > 2 {
		t.Errorf("immigrant run failed to converge: %v", res.BestFitness)
	}
}

func TestGenomeClone(t *testing.T) {
	g := Genome{1, 2, 3}
	c := g.Clone()
	c[0] = 99
	if g[0] != 1 {
		t.Error("Clone shares storage")
	}
}

func TestParallelismIsDeterministic(t *testing.T) {
	// The parallel fitness path must reproduce the sequential evolution
	// exactly: same best genome, same history, same evaluation count.
	run := func(par int) *Result {
		eng, err := New(sphereSpec([]float64{3, -2, 7}),
			WithPopulationSize(30), WithGenerations(60),
			WithImmigrantRate(0.1), WithMutationRate(0.2),
			WithRandSeed(42), WithParallelism(par))
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
	for _, par := range []int{2, 4, 8} {
		got := run(par)
		if got.BestFitness != seq.BestFitness {
			t.Errorf("parallelism %d: best fitness %v != %v", par, got.BestFitness, seq.BestFitness)
		}
		for i := range seq.Best {
			if got.Best[i] != seq.Best[i] {
				t.Errorf("parallelism %d: best genome differs at %d", par, i)
			}
		}
		if got.Evaluations != seq.Evaluations {
			t.Errorf("parallelism %d: evaluations %d != %d", par, got.Evaluations, seq.Evaluations)
		}
		if len(got.History) != len(seq.History) {
			t.Fatalf("parallelism %d: history length %d != %d", par, len(got.History), len(seq.History))
		}
		for i := range seq.History {
			if got.History[i] != seq.History[i] {
				t.Errorf("parallelism %d: history differs at generation %d", par, i)
			}
		}
	}
}

func TestParallelismRejectsNegative(t *testing.T) {
	if _, err := New(sphereSpec([]float64{0}), WithParallelism(-1)); err == nil {
		t.Fatal("negative parallelism should be rejected")
	}
}

// TestClonedOffspringSkipValid runs a constrained problem with a pure,
// counting Valid. A child bit-identical to one of its parents is admitted
// without a check (every population member is valid), so the run calls
// Valid fewer times than the engine that checked every child, while the
// evolution itself is unchanged: Best, History, Evaluations and MemoHits
// equal the values pinned from that engine.
func TestClonedOffspringSkipValid(t *testing.T) {
	const (
		pinnedValidCalls = 3185
		pinnedBest       = 0x161cf2b41f04be7
		pinnedHistory    = 0x938d2209f58ae0f8
		pinnedHistoryLen = 61
		pinnedEvals      = 1590
		pinnedMemoHits   = 687
	)
	calls := 0
	spec := sphereSpec([]float64{3, -2, 7, 1})
	spec.Groups = [][]int{{0, 1}, {2}, {3}}
	spec.Valid = func(g Genome) bool {
		calls++
		return g[0] >= 0 && g[0] <= 2.5 && g[2] <= 6
	}
	eng, err := New(spec, WithPopulationSize(30), WithGenerations(60),
		WithImmigrantRate(0.1), WithMutationRate(0.2),
		WithMemoization(true), WithRandSeed(21))
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	digest := func(fs []float64) uint64 {
		h := uint64(14695981039346656037)
		for _, f := range fs {
			h = (h ^ math.Float64bits(f)) * 1099511628211
		}
		return h
	}
	if calls >= pinnedValidCalls {
		t.Errorf("Valid called %d times, want fewer than %d", calls, pinnedValidCalls)
	}
	if got := digest(res.Best); got != pinnedBest {
		t.Errorf("best genome digest %#x, want %#x", got, uint64(pinnedBest))
	}
	if got := digest(res.History); got != pinnedHistory || len(res.History) != pinnedHistoryLen {
		t.Errorf("history digest %#x (len %d), want %#x (len %d)", got, len(res.History), uint64(pinnedHistory), pinnedHistoryLen)
	}
	if res.Evaluations != pinnedEvals || res.MemoHits != pinnedMemoHits {
		t.Errorf("evaluations %d, memo hits %d; want %d, %d", res.Evaluations, res.MemoHits, pinnedEvals, pinnedMemoHits)
	}
}

// TestSortByFitnessMatchesSliceStable pins sortByFitness to the
// sort.SliceStable call it replaced: the same order on populations with
// tied, infinite and NaN fitness values.
func TestSortByFitnessMatchesSliceStable(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	values := []float64{0, 1, 1, 2.5, math.Inf(1), math.Inf(-1), math.NaN(), math.Copysign(0, -1)}
	for trial := 0; trial < 500; trial++ {
		pop := make([]Individual, 1+rng.Intn(120))
		for i := range pop {
			f := rng.Float64()
			if rng.Intn(3) == 0 {
				f = values[rng.Intn(len(values))]
			}
			pop[i] = Individual{Genome: Genome{float64(i)}, Fitness: f}
		}
		want := append([]Individual(nil), pop...)
		sort.SliceStable(want, func(i, j int) bool { return want[i].Fitness < want[j].Fitness })
		sortByFitness(pop)
		for i := range pop {
			if pop[i].Genome[0] != want[i].Genome[0] {
				t.Fatalf("trial %d: position %d holds individual %v, want %v", trial, i, pop[i].Genome[0], want[i].Genome[0])
			}
		}
	}
}
