// Package ga implements the genetic algorithm of Section 3: real-valued
// chromosomes, an elitist evolution strategy in which "only the fittest
// chromosomes can be left and they have a higher probability to be picked",
// multiple crossover over gene groups (rate 0.2), per-group mutation
// (rate 0.01), and rejection of invalid chromosomes.
//
// The engine is problem-agnostic: pose estimation supplies the fitness,
// seeding and validity functions. Lower fitness is better throughout,
// matching Eq. (3) ("the smaller the FS is, the better the stick model fits
// the silhouette").
package ga

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/sljmotion/sljmotion/internal/obs"
)

// ErrNoValidSeed reports that rejection sampling found no valid genome to
// start the population from.
var ErrNoValidSeed = errors.New("ga: could not seed a valid genome")

// fitnessEvalSeconds is the cohort fitness-evaluation latency histogram:
// one observation per GA generation (a cohort of Population fitness
// calls), the hot-path quantity behind the ROADMAP's "10× GA" item.
// Registered once so the per-generation cost is a few atomic adds.
var fitnessEvalSeconds = obs.Default.Histogram("slj_ga_fitness_eval_seconds",
	"Wall-clock time to fitness-score one GA cohort (one generation), in seconds.",
	obs.IOBuckets)

// Genome is a real-valued chromosome.
type Genome []float64

// Clone returns a deep copy of the genome.
func (g Genome) Clone() Genome {
	out := make(Genome, len(g))
	copy(out, g)
	return out
}

// Spec defines the optimisation problem.
type Spec struct {
	// Fitness scores a genome; lower is better. Required.
	Fitness func(Genome) float64
	// Seed produces one random initial genome. Required.
	Seed func(rng *rand.Rand) Genome
	// Valid reports whether a genome is admissible. Invalid genomes are
	// "removed from the population" per the paper. Nil means all valid.
	// Valid must be a pure function of the genome (as MemoizeFitness
	// requires of Fitness): every population member has passed it, so an
	// offspring bit-identical to a parent is admitted without a call.
	Valid func(Genome) bool
	// Groups partitions gene indices for multiple crossover and grouped
	// mutation, e.g. the paper's (x0,y0)(ρ0)(ρ1,ρ4)(ρ2,ρ5)(ρ3,ρ6,ρ7).
	// Nil means one group per gene.
	Groups [][]int
	// Mutate perturbs the genes of one group in place. Nil selects a
	// default Gaussian perturbation with per-gene sigma 1.
	Mutate func(rng *rand.Rand, g Genome, group []int)
}

func (s *Spec) validate() error {
	if s.Fitness == nil {
		return errors.New("ga: Spec.Fitness is required")
	}
	if s.Seed == nil {
		return errors.New("ga: Spec.Seed is required")
	}
	return nil
}

// Config holds evolution hyper-parameters. Construct with DefaultConfig and
// adjust via Options.
type Config struct {
	PopulationSize int
	Generations    int
	// EliteFraction of the population survives unchanged each generation.
	EliteFraction float64
	// CrossoverRate is the per-group swap probability (paper: 0.2).
	CrossoverRate float64
	// MutationRate is the per-group mutation probability (paper: 0.01).
	MutationRate float64
	// MaxSeedTries bounds rejection sampling for initial population and
	// offspring; exceeding it falls back to cloning a surviving parent.
	MaxSeedTries int
	// ImmigrantRate is the probability that an offspring slot is filled by
	// a fresh Seed() draw instead of crossover ("random immigrants").
	// Immigrants keep alternative hypotheses in the population so grouped
	// crossover can combine them with polished genomes. 0 disables.
	ImmigrantRate float64
	// TargetFitness stops evolution early once the best fitness is at or
	// below this value. NaN-free sentinel: <0 disables (fitness in this
	// system is non-negative).
	TargetFitness float64
	// Patience stops evolution after this many consecutive generations
	// without improvement of the best fitness. 0 disables.
	Patience int
	// RandSeed seeds the internal PRNG for reproducible runs.
	RandSeed int64
	// Parallelism is the number of goroutines used to evaluate fitness.
	// Genome construction (seeding, crossover, mutation, validity) stays on
	// the single RNG-driven thread, so the evolution — population contents,
	// history, best genome, evaluation count — is identical at any
	// parallelism; only fitness calls fan out. Spec.Fitness must be safe for
	// concurrent use when Parallelism > 1. <= 1 evaluates sequentially.
	Parallelism int
	// MemoizeFitness caches fitness by bit-identical genome across
	// generations. Elites and unmodified clones recur verbatim, so a large
	// cohort fraction is answered from the table instead of re-evaluated.
	// Spec.Fitness must be pure (it is for Eq. 3); then memoization cannot
	// change any result — Result.Evaluations still counts requested scores,
	// with MemoHits/MemoMisses breaking out how many hit the table.
	MemoizeFitness bool
}

// DefaultConfig returns the paper-calibrated hyper-parameters.
func DefaultConfig() Config {
	return Config{
		PopulationSize: 60,
		Generations:    200,
		EliteFraction:  0.15,
		CrossoverRate:  0.2,
		MutationRate:   0.01,
		MaxSeedTries:   200,
		TargetFitness:  -1,
		RandSeed:       1,
	}
}

// Validate rejects unusable configurations.
func (c Config) Validate() error {
	if c.PopulationSize < 2 {
		return fmt.Errorf("ga: population must be >= 2, got %d", c.PopulationSize)
	}
	if c.Generations < 1 {
		return fmt.Errorf("ga: generations must be >= 1, got %d", c.Generations)
	}
	// The rate checks are negated so that NaN, which fails every
	// comparison, is rejected too.
	if !(c.EliteFraction >= 0 && c.EliteFraction <= 1) {
		return fmt.Errorf("ga: elite fraction must be in [0,1], got %v", c.EliteFraction)
	}
	if !(c.CrossoverRate >= 0 && c.CrossoverRate <= 1) {
		return fmt.Errorf("ga: crossover rate must be in [0,1], got %v", c.CrossoverRate)
	}
	if !(c.MutationRate >= 0 && c.MutationRate <= 1) {
		return fmt.Errorf("ga: mutation rate must be in [0,1], got %v", c.MutationRate)
	}
	if c.MaxSeedTries < 1 {
		return fmt.Errorf("ga: max seed tries must be >= 1, got %d", c.MaxSeedTries)
	}
	if !(c.ImmigrantRate >= 0 && c.ImmigrantRate <= 1) {
		return fmt.Errorf("ga: immigrant rate must be in [0,1], got %v", c.ImmigrantRate)
	}
	if c.Parallelism < 0 {
		return fmt.Errorf("ga: parallelism must be >= 0, got %d", c.Parallelism)
	}
	return nil
}

// Option mutates a Config.
type Option func(*Config)

// WithPopulationSize sets the population size.
func WithPopulationSize(n int) Option { return func(c *Config) { c.PopulationSize = n } }

// WithGenerations sets the generation budget.
func WithGenerations(n int) Option { return func(c *Config) { c.Generations = n } }

// WithEliteFraction sets the surviving elite fraction.
func WithEliteFraction(f float64) Option { return func(c *Config) { c.EliteFraction = f } }

// WithCrossoverRate sets the per-group crossover probability.
func WithCrossoverRate(r float64) Option { return func(c *Config) { c.CrossoverRate = r } }

// WithMutationRate sets the per-group mutation probability.
func WithMutationRate(r float64) Option { return func(c *Config) { c.MutationRate = r } }

// WithTargetFitness enables early stop at the given fitness.
func WithTargetFitness(f float64) Option { return func(c *Config) { c.TargetFitness = f } }

// WithPatience stops after n generations without improvement.
func WithPatience(n int) Option { return func(c *Config) { c.Patience = n } }

// WithRandSeed seeds the PRNG.
func WithRandSeed(s int64) Option { return func(c *Config) { c.RandSeed = s } }

// WithMaxSeedTries bounds rejection sampling per individual.
func WithMaxSeedTries(n int) Option { return func(c *Config) { c.MaxSeedTries = n } }

// WithImmigrantRate sets the per-slot probability of a fresh random seed in
// each generation.
func WithImmigrantRate(r float64) Option { return func(c *Config) { c.ImmigrantRate = r } }

// WithParallelism sets the fitness-evaluation worker count (the evolution
// itself stays deterministic; see Config.Parallelism).
func WithParallelism(n int) Option { return func(c *Config) { c.Parallelism = n } }

// WithMemoization enables cross-generation fitness caching (see
// Config.MemoizeFitness).
func WithMemoization(on bool) Option { return func(c *Config) { c.MemoizeFitness = on } }

// Individual pairs a genome with its fitness.
type Individual struct {
	Genome  Genome
	Fitness float64
}

// Result reports the outcome of one evolution run.
type Result struct {
	Best        Genome
	BestFitness float64
	// Generations is the number of generations actually evolved (may be
	// fewer than configured when early stop triggers).
	Generations int
	// BestFoundAt is the generation index (0 = initial population) at which
	// the final best fitness was first reached.
	BestFoundAt int
	// NearBestFoundAt is the first generation whose best fitness is within
	// 2% of the final best — the quantity behind the paper's "the shown
	// best estimated model was generated at the second generation": a
	// visually indistinguishable model appears this early even though tiny
	// numeric improvements continue afterwards.
	NearBestFoundAt int
	// History records the best fitness after every generation, starting
	// with the initial population.
	History []float64
	// Evaluations counts requested fitness scores (memoization answers
	// MemoHits of them from the table without calling Spec.Fitness).
	Evaluations int
	// MemoHits and MemoMisses break down Evaluations when
	// Config.MemoizeFitness is on; both stay 0 otherwise.
	MemoHits   int
	MemoMisses int
}

// Engine runs the evolution strategy.
type Engine struct {
	spec Spec
	cfg  Config
}

// New constructs an Engine, validating spec and options.
func New(spec Spec, opts ...Option) (*Engine, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	cfg := DefaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Engine{spec: spec, cfg: cfg}, nil
}

// Config returns the engine configuration.
func (e *Engine) Config() Config { return e.cfg }

// Run evolves a population and returns the best individual found. The run
// is deterministic for a fixed Config.RandSeed.
func (e *Engine) Run() (*Result, error) {
	rng := rand.New(rand.NewSource(e.cfg.RandSeed))
	res := &Result{}
	var memo *memoTable
	if e.cfg.MemoizeFitness {
		memo = newMemoTable()
	}

	genomes, err := e.initialGenomes(rng)
	if err != nil {
		return nil, err
	}
	pop := e.evaluateAll(genomes, res, memo)
	sortByFitness(pop)
	best := Individual{Genome: pop[0].Genome.Clone(), Fitness: pop[0].Fitness}
	res.History = append(res.History, best.Fitness)
	res.BestFoundAt = 0

	elite := int(e.cfg.EliteFraction * float64(e.cfg.PopulationSize))
	if elite < 1 {
		elite = 1
	}
	if elite > e.cfg.PopulationSize {
		elite = e.cfg.PopulationSize
	}

	sinceImproved := 0
	gen := 0
	for gen = 1; gen <= e.cfg.Generations; gen++ {
		if e.cfg.TargetFitness >= 0 && best.Fitness <= e.cfg.TargetFitness {
			gen--
			break
		}
		if e.cfg.Patience > 0 && sinceImproved >= e.cfg.Patience {
			gen--
			break
		}
		next := make([]Individual, 0, e.cfg.PopulationSize)
		for i := 0; i < elite; i++ {
			next = append(next, Individual{Genome: pop[i].Genome.Clone(), Fitness: pop[i].Fitness})
		}
		// Build the whole offspring cohort first (serial: every RNG draw and
		// validity rejection happens in submission order), then score it in
		// one deferred batch so fitness calls can fan out across workers.
		pending := make([]Genome, 0, e.cfg.PopulationSize-len(next))
		for len(next)+len(pending) < e.cfg.PopulationSize {
			if e.cfg.ImmigrantRate > 0 && rng.Float64() < e.cfg.ImmigrantRate {
				if g, ok := e.tryImmigrantGenome(rng); ok {
					pending = append(pending, g)
					continue
				}
			}
			a := e.selectParent(rng, pop)
			b := e.selectParent(rng, pop)
			pending = append(pending, e.makeOffspringGenome(rng, a, b))
		}
		next = append(next, e.evaluateAll(pending, res, memo)...)
		pop = next
		sortByFitness(pop)
		if pop[0].Fitness < best.Fitness {
			best = Individual{Genome: pop[0].Genome.Clone(), Fitness: pop[0].Fitness}
			res.BestFoundAt = gen
			sinceImproved = 0
		} else {
			sinceImproved++
		}
		res.History = append(res.History, best.Fitness)
	}
	if gen > e.cfg.Generations {
		gen = e.cfg.Generations
	}

	res.Best = best.Genome
	res.BestFitness = best.Fitness
	res.Generations = gen
	res.NearBestFoundAt = res.BestFoundAt
	// Fitness is non-negative in this system; guard the tolerance anyway.
	if tol := math.Abs(best.Fitness) * 0.02; tol > 0 {
		for i, f := range res.History {
			if f <= best.Fitness+tol {
				res.NearBestFoundAt = i
				break
			}
		}
	}
	return res, nil
}

// initialGenomes rejection-samples valid genomes: "any randomly-generated
// chromosome not in the boundary of the silhouette should be removed from
// the initial population". Fitness is deferred to evaluateAll.
func (e *Engine) initialGenomes(rng *rand.Rand) ([]Genome, error) {
	genomes := make([]Genome, 0, e.cfg.PopulationSize)
	var lastValid Genome
	for len(genomes) < e.cfg.PopulationSize {
		var g Genome
		ok := false
		for try := 0; try < e.cfg.MaxSeedTries; try++ {
			g = e.spec.Seed(rng)
			if e.isValid(g) {
				ok = true
				break
			}
		}
		if !ok {
			if lastValid == nil {
				return nil, fmt.Errorf("%w in %d tries", ErrNoValidSeed, e.cfg.MaxSeedTries)
			}
			g = lastValid.Clone()
		} else {
			lastValid = g
		}
		genomes = append(genomes, g)
	}
	return genomes, nil
}

// evaluateAll scores a cohort, fanning the (pure) fitness calls over up to
// Config.Parallelism goroutines. Results are written by index, so the
// returned order — and therefore the evolution — matches the sequential
// path exactly. When memoization is on, a serial pre-pass answers repeated
// genomes from the table and only the misses are evaluated (and inserted,
// again serially, afterwards) — the table never crosses a goroutine.
func (e *Engine) evaluateAll(genomes []Genome, res *Result, memo *memoTable) []Individual {
	defer func(start time.Time) {
		fitnessEvalSeconds.Observe(time.Since(start).Seconds())
	}(time.Now())
	out := make([]Individual, len(genomes))
	res.Evaluations += len(genomes)
	toEval := make([]int, 0, len(genomes))
	if memo != nil {
		for i, g := range genomes {
			if f, ok := memo.lookup(g); ok {
				out[i] = Individual{Genome: g, Fitness: f}
				res.MemoHits++
				continue
			}
			toEval = append(toEval, i)
		}
		res.MemoMisses += len(toEval)
	} else {
		for i := range genomes {
			toEval = append(toEval, i)
		}
	}
	workers := e.cfg.Parallelism
	if workers > len(toEval) {
		workers = len(toEval)
	}
	if workers <= 1 {
		for _, i := range toEval {
			out[i] = Individual{Genome: genomes[i], Fitness: e.spec.Fitness(genomes[i])}
		}
	} else {
		var (
			next atomic.Int64
			wg   sync.WaitGroup
		)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					k := int(next.Add(1)) - 1
					if k >= len(toEval) {
						return
					}
					i := toEval[k]
					out[i] = Individual{Genome: genomes[i], Fitness: e.spec.Fitness(genomes[i])}
				}
			}()
		}
		wg.Wait()
	}
	if memo != nil {
		for _, i := range toEval {
			memo.insert(genomes[i], out[i].Fitness)
		}
	}
	return out
}

// selectParent implements rank-biased selection over the sorted population:
// fitter individuals "have a higher probability to be picked". Squaring a
// uniform variate skews the index toward rank 0.
func (e *Engine) selectParent(rng *rand.Rand, pop []Individual) Genome {
	u := rng.Float64()
	idx := int(u * u * float64(len(pop)))
	if idx >= len(pop) {
		idx = len(pop) - 1
	}
	return pop[idx].Genome
}

// tryImmigrantGenome rejection-samples one fresh seed with a small try
// budget; failure falls back to normal reproduction.
func (e *Engine) tryImmigrantGenome(rng *rand.Rand) (Genome, bool) {
	const tries = 20
	for t := 0; t < tries; t++ {
		g := e.spec.Seed(rng)
		if e.isValid(g) {
			return g, true
		}
	}
	return nil, false
}

// makeOffspringGenome applies grouped crossover then grouped mutation,
// retrying until the child is valid; after MaxSeedTries it falls back to
// cloning the first parent (which is valid by construction). Both parents
// are population members and so have passed Spec.Valid, which is pure: a
// child bit-identical to either is admitted without re-checking it.
func (e *Engine) makeOffspringGenome(rng *rand.Rand, a, b Genome) Genome {
	for try := 0; try < e.cfg.MaxSeedTries; try++ {
		child := a.Clone()
		for _, group := range e.groups(len(child)) {
			if rng.Float64() < e.cfg.CrossoverRate {
				for _, gi := range group {
					child[gi] = b[gi]
				}
			}
			if rng.Float64() < e.cfg.MutationRate {
				e.mutate(rng, child, group)
			}
		}
		if sameBits(child, a) || sameBits(child, b) || e.isValid(child) {
			return child
		}
	}
	return a.Clone()
}

func (e *Engine) groups(n int) [][]int {
	if e.spec.Groups != nil {
		return e.spec.Groups
	}
	groups := make([][]int, n)
	for i := range groups {
		groups[i] = []int{i}
	}
	return groups
}

func (e *Engine) mutate(rng *rand.Rand, g Genome, group []int) {
	if e.spec.Mutate != nil {
		e.spec.Mutate(rng, g, group)
		return
	}
	for _, gi := range group {
		g[gi] += rng.NormFloat64()
	}
}

func (e *Engine) isValid(g Genome) bool {
	return e.spec.Valid == nil || e.spec.Valid(g)
}

// sortByFitness stably sorts pop by ascending fitness. The comparator is
// negative exactly when a.Fitness < b.Fitness, the only question the
// stable sort asks of it, so the order matches sort.SliceStable with that
// less function, NaN fitness included, without its reflection-based swaps.
func sortByFitness(pop []Individual) {
	slices.SortStableFunc(pop, func(a, b Individual) int {
		switch {
		case a.Fitness < b.Fitness:
			return -1
		case b.Fitness < a.Fitness:
			return 1
		}
		return 0
	})
}
