// Package rng provides deterministic pseudo-random number generation and the
// distributions used by the workload generators and variation models.
//
// The simulator must produce bit-identical results for a given seed across Go
// releases and platforms, so it cannot depend on math/rand's unspecified
// stream. The package implements SplitMix64 (for seeding) and xoshiro256**
// (for the main stream), both with published reference outputs that the test
// suite pins down.
package rng

import (
	"math"
	"math/bits"
	"runtime"
	"sync"
	"weak"
)

// splitMix64 advances a SplitMix64 state and returns the next output.
// It is used to expand a single user seed into the four xoshiro words.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Source is a deterministic xoshiro256** generator. The zero value is not
// valid; use New.
type Source struct {
	s [4]uint64
}

// New returns a Source seeded from seed via SplitMix64, as recommended by the
// xoshiro authors. Distinct seeds yield independent-looking streams.
func New(seed uint64) *Source {
	// Small enough to inline, so a caller whose Source does not escape
	// keeps it on its stack.
	src := new(Source)
	src.seed(seed)
	return src
}

func (src *Source) seed(seed uint64) {
	sm := seed
	for i := range src.s {
		src.s[i] = splitMix64(&sm)
	}
	// A pathological all-zero state would be a fixed point; SplitMix64 cannot
	// produce four zero words from any seed, but guard anyway.
	if src.s[0]|src.s[1]|src.s[2]|src.s[3] == 0 {
		src.s[0] = 0x9e3779b97f4a7c15
	}
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (s *Source) Uint64() uint64 {
	result := rotl(s.s[1]*5, 7) * 9
	t := s.s[1] << 17
	s.s[2] ^= s.s[0]
	s.s[3] ^= s.s[1]
	s.s[1] ^= s.s[2]
	s.s[0] ^= s.s[3]
	s.s[2] ^= t
	s.s[3] = rotl(s.s[3], 45)
	return result
}

// Fork returns a new Source whose stream is independent of the receiver's
// continued use. It is used to give each structure (workload class, cache
// variation map, ...) its own stream so that adding draws to one consumer
// does not perturb another.
func (s *Source) Fork() *Source {
	src := new(Source) // inlined like New
	src.forkFrom(s)
	return src
}

func (src *Source) forkFrom(parent *Source) { src.seed(parent.Uint64() ^ 0xd1342543de82ef95) }

// Float64 returns a uniform float64 in [0, 1) with 53 random bits.
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(s.Uint64n(uint64(n)))
}

// Uint64n returns a uniform uint64 in [0, n) using Lemire's multiply-shift
// rejection method. It panics if n == 0.
func (s *Source) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with zero n")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return s.Uint64() & (n - 1)
	}
	threshold := -n % n
	for {
		v := s.Uint64()
		hi, lo := mul64(v, n)
		if lo >= threshold {
			return hi
		}
	}
}

// mul64 returns the 128-bit product of x and y as (hi, lo).
func mul64(x, y uint64) (hi, lo uint64) { return bits.Mul64(x, y) }

// Bool returns true with probability p.
func (s *Source) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.Float64() < p
}

// Geometric returns a geometrically distributed integer >= 1 with success
// probability p (mean 1/p): the number of trials up to and including the
// first success. It panics unless 0 < p <= 1. A caller drawing many values
// with one p should hold a NewGeometric sampler instead.
func (s *Source) Geometric(p float64) int {
	return NewGeometric(s, p).Next()
}

// Geometric draws from a geometric distribution with a fixed success
// probability. It computes the constant math.Log(1-p) once, so its draws
// equal Source.Geometric(p)'s bit for bit at one logarithm per draw, not
// two.
type Geometric struct {
	src  *Source
	one  bool    // p == 1: every draw is 1 and consumes no random bits
	logQ float64 // math.Log(1-p)
}

// NewGeometric returns a geometric sampler with success probability p
// drawing from src. It panics unless 0 < p <= 1.
func NewGeometric(src *Source, p float64) Geometric {
	if p <= 0 || p > 1 {
		panic("rng: Geometric requires 0 < p <= 1")
	}
	return Geometric{src: src, one: p == 1, logQ: math.Log(1 - p)}
}

// Next returns the next draw, an integer >= 1.
func (g Geometric) Next() int {
	if g.one {
		return 1
	}
	u := 1 - g.src.Float64() // in (0, 1]
	k := int(math.Ceil(math.Log(u) / g.logQ))
	if k < 1 {
		k = 1
	}
	return k
}

// Zipf draws integers in [0, n) with probability proportional to
// 1/(rank+1)^theta. The zero value is not valid; use NewZipf.
//
// Its table (cdf and guide) depends only on (n, theta) and is never
// written after it is built, so samplers of one (n, theta) share one copy
// while any of them is reachable; see NewZipf.
//
// A draw maps one uniform u in [0, 1) to the first rank whose cdf entry is
// not below u. For n > guideMinN a guide (cut-point) index narrows that
// search without changing its answer: guide[k] is the first rank whose cdf
// entry is not below k/2^g. Scaling u in [0, 1) by a power of two is
// exact, so k = ⌊u·2^g⌋ satisfies k/2^g <= u < (k+1)/2^g exactly. The
// cdf is nondecreasing (a running sum of non-negative terms scaled by one
// constant, both rounding monotonically) and its last entry is 1 > u, so
// "cdf[i] < x" is true on a prefix and false after it for every x <= 1.
// Every rank before guide[k] has cdf < k/2^g <= u, so the answer is at
// least guide[k]; the entry at guide[k+1] is >= (k+1)/2^g > u, so the
// answer is at most guide[k+1]. The binary search over [guide[k],
// guide[k+1]] therefore returns exactly the rank the search over [0, n-1]
// returns, for every u.
type Zipf struct {
	src   *Source
	n     int
	theta float64
	*zipfTable
}

// zipfTable is the read-only part of a Zipf sampler, a pure function of
// (n, theta).
type zipfTable struct {
	cdf   []float64
	guide []int32 // 2^g+1 cut points; nil for n <= guideMinN
	scale float64 // 2^g
}

const (
	// guideMinN is the largest domain searched without a guide index.
	guideMinN = 64
	// guideMaxBits caps the guide at 2^16+1 entries (256 KiB).
	guideMaxBits = 16
	// parallelZipfMinN is the smallest domain whose 1/(i+1)^theta terms
	// newZipfTable computes on several goroutines.
	parallelZipfMinN = 32 << 10
)

// zipfKey names a table; theta is keyed by its bits, so every key equals
// itself.
type zipfKey struct {
	n     int
	theta uint64
}

// zipfTables maps each zipfKey to a weak.Pointer[zipfTable]. It holds no
// table alive: a table is freed once no sampler references it, and a
// cleanup then deletes its entry.
var zipfTables sync.Map

// NewZipf returns a Zipf sampler over [0, n) with exponent theta >= 0.
// theta == 0 degenerates to uniform. It panics if n <= 0 or theta < 0.
//
// The sampler shares its table with every other reachable sampler of the
// same (n, theta), so a table of n entries is built once while some
// sampler holds it; none is kept once the last such sampler is
// unreachable. Sharing changes no draw: the table is a pure function of
// (n, theta), and each sampler draws from its own src.
//
// For n >= parallelZipfMinN the terms 1/(i+1)^theta are computed in
// parallel chunks; each term is one independent math.Pow, and the prefix
// sum and normalisation stay sequential, so the table is bit-identical to
// a sequential build at any GOMAXPROCS.
func NewZipf(src *Source, n int, theta float64) *Zipf {
	if n <= 0 {
		panic("rng: NewZipf requires n > 0")
	}
	if theta < 0 {
		panic("rng: NewZipf requires theta >= 0")
	}
	return &Zipf{src: src, n: n, theta: theta, zipfTable: sharedZipfTable(n, theta)}
}

// sharedZipfTable returns the live table of (n, theta), building and
// publishing one if there is none. Racing builders of one key settle on
// the first table published.
func sharedZipfTable(n int, theta float64) *zipfTable {
	k := zipfKey{n, math.Float64bits(theta)}
	if v, ok := zipfTables.Load(k); ok {
		if t := v.(weak.Pointer[zipfTable]).Value(); t != nil {
			return t
		}
	}
	t := newZipfTable(n, theta)
	wp := weak.Make(t)
	for {
		v, loaded := zipfTables.LoadOrStore(k, wp)
		if !loaded {
			break
		}
		if old := v.(weak.Pointer[zipfTable]).Value(); old != nil {
			return old
		}
		// The entry's table is dead and its cleanup has not run yet.
		if zipfTables.CompareAndSwap(k, v, wp) {
			break
		}
	}
	// A dead table's entry goes unless a newer table has replaced it.
	runtime.AddCleanup(t, func(k zipfKey) { zipfTables.CompareAndDelete(k, wp) }, k)
	return t
}

// newZipfTable builds the table of (n, theta).
func newZipfTable(n int, theta float64) *zipfTable {
	t := &zipfTable{cdf: make([]float64, n)}
	zipfTerms(t.cdf, theta)
	sum := 0.0
	for i, c := range t.cdf {
		sum += c
		t.cdf[i] = sum
	}
	inv := 1 / sum
	for i := range t.cdf {
		t.cdf[i] *= inv
	}
	t.cdf[n-1] = 1 // guard against rounding
	if n > guideMinN && n <= math.MaxInt32 {
		t.buildGuide(min(bits.Len(uint(n-1)), guideMaxBits))
	}
	return t
}

// zipfTerms sets dst[i] = 1/(i+1)^theta, splitting large tables into one
// chunk per GOMAXPROCS.
func zipfTerms(dst []float64, theta float64) {
	fill := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			dst[i] = 1 / math.Pow(float64(i+1), theta)
		}
	}
	workers := runtime.GOMAXPROCS(0)
	if len(dst) < parallelZipfMinN || workers < 2 {
		fill(0, len(dst))
		return
	}
	chunk := (len(dst) + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < len(dst); lo += chunk {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fill(lo, hi)
		}(lo, min(lo+chunk, len(dst)))
	}
	wg.Wait()
}

// buildGuide fills the 2^bits+1 cut points in one pass over the cdf (see
// Zipf for why they leave every draw unchanged).
func (t *zipfTable) buildGuide(bits int) {
	cuts := 1 << bits
	t.scale = float64(cuts)
	t.guide = make([]int32, cuts+1)
	k := 0
	for i, c := range t.cdf {
		for k <= cuts && !(c < float64(k)/t.scale) {
			t.guide[k] = int32(i)
			k++
		}
	}
	// cdf[n-1] == 1 meets every cut, so the loop above set them all.
}

// Next returns the next Zipf-distributed rank in [0, n).
func (z *Zipf) Next() int { return z.rank(z.src.Float64()) }

// rank returns the first rank whose cdf entry is not below u.
func (z *Zipf) rank(u float64) int {
	lo, hi := 0, z.n-1
	if z.guide != nil {
		k := int(u * z.scale)
		lo, hi = int(z.guide[k]), int(z.guide[k+1])
	}
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// N returns the size of the sampler's domain.
func (z *Zipf) N() int { return z.n }
