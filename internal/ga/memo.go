package ga

import "math"

// memoTable is an open-addressing hash table from genome to fitness, the
// cross-generation memoization store behind Config.MemoizeFitness. Elites
// are cloned verbatim between generations and roughly a third of offspring
// undergo neither crossover nor mutation (0.8^5 with the paper's five gene
// groups), so identical chromosomes recur constantly; caching their scores
// removes whole cohort fractions from the Eq. (3) hot path without changing
// any result — the fitness function is pure, so a cached value is
// indistinguishable from a recomputation.
//
// The table is specialised for fixed-length float64 genomes: keys live in
// one flat array (no per-entry allocation), hashing goes over the raw
// IEEE-754 bits, and lookups are allocation-free. It is confined to the
// single evolution goroutine; evaluateAll consults it serially before
// fanning out the misses.
type memoTable struct {
	n    int       // genome length, fixed at first insert
	keys []float64 // cap * n gene values
	fits []float64 // cap fitness values
	used []bool    // cap occupancy flags
	mask uint64    // cap - 1 (cap is a power of two)
	size int
}

const memoInitialCap = 256

func newMemoTable() *memoTable { return &memoTable{} }

// genomeHash mixes the IEEE-754 bit patterns of the genes (FNV-1a over
// 64-bit words, finished with a murmur-style avalanche). Bit-pattern
// hashing means two genomes are "equal" only when every gene is
// bit-identical — exactly the condition under which the cached fitness is
// the value the fitness function would return.
func genomeHash(g Genome) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range g {
		h ^= math.Float64bits(v)
		h *= 1099511628211
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// sameBits reports whether two genomes are bit-identical gene by gene,
// the equality under which a memoized fitness (or a validity verdict) of
// one is the value of the other.
func sameBits(x, y Genome) bool {
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
			return false
		}
	}
	return true
}

func (m *memoTable) equalAt(slot int, g Genome) bool {
	return sameBits(m.keys[slot*m.n:(slot+1)*m.n], g)
}

// lookup returns the cached fitness for a bit-identical genome.
func (m *memoTable) lookup(g Genome) (float64, bool) {
	if m.size == 0 || len(g) != m.n {
		return 0, false
	}
	i := genomeHash(g) & m.mask
	for m.used[i] {
		if m.equalAt(int(i), g) {
			return m.fits[i], true
		}
		i = (i + 1) & m.mask
	}
	return 0, false
}

// insert stores (or refreshes) the fitness of a genome.
func (m *memoTable) insert(g Genome, fitness float64) {
	if len(g) == 0 {
		return
	}
	if m.used == nil {
		m.n = len(g)
		m.grow(memoInitialCap)
	}
	if len(g) != m.n {
		return
	}
	if 4*(m.size+1) > 3*len(m.used) {
		m.grow(2 * len(m.used))
	}
	i := genomeHash(g) & m.mask
	for m.used[i] {
		if m.equalAt(int(i), g) {
			m.fits[i] = fitness
			return
		}
		i = (i + 1) & m.mask
	}
	m.used[i] = true
	m.fits[i] = fitness
	copy(m.keys[int(i)*m.n:], g)
	m.size++
}

func (m *memoTable) grow(capacity int) {
	oldKeys, oldFits, oldUsed := m.keys, m.fits, m.used
	m.keys = make([]float64, capacity*m.n)
	m.fits = make([]float64, capacity)
	m.used = make([]bool, capacity)
	m.mask = uint64(capacity - 1)
	m.size = 0
	for slot, occupied := range oldUsed {
		if occupied {
			m.insert(oldKeys[slot*m.n:(slot+1)*m.n], oldFits[slot])
		}
	}
}
