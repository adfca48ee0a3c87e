// Package xrand provides small deterministic pseudo-random number
// generators whose output is stable across Go releases and platforms.
//
// Experiment reproducibility requires that a (seed, SCALE, edgefactor)
// triple always yields the same graph. The standard library reserves
// the right to change the stream behind math/rand's top-level
// functions, so the generators here are implemented from their
// published reference algorithms instead: SplitMix64 (Steele et al.,
// "Fast splittable pseudorandom number generators") and xoshiro256**
// (Blackman & Vigna).
package xrand

import "math"

// SplitMix64 is a tiny 64-bit generator mainly used to seed other
// generators and to derive independent per-worker streams. The zero
// value is a valid generator seeded with 0.
type SplitMix64 struct {
	state uint64
}

// NewSplitMix64 returns a SplitMix64 seeded with seed.
func NewSplitMix64(seed uint64) *SplitMix64 {
	return &SplitMix64{state: seed}
}

// Uint64 returns the next value in the stream.
func (s *SplitMix64) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// State is a xoshiro256** state held by value. A loop that keeps it in
// a local variable and advances it with Next keeps all four words in
// registers, where a *Rand goes through memory on every draw; Rand
// wraps the same state, so the repository has one xoshiro
// implementation.
type State struct {
	s0, s1, s2, s3 uint64
}

// NewState returns the state New(seed) starts from: four consecutive
// SplitMix64 outputs, as the xoshiro authors recommend (an all-zero
// state is invalid, and SplitMix64 never produces one from four
// consecutive outputs).
func NewState(seed uint64) State {
	sm := NewSplitMix64(seed)
	return State{sm.Uint64(), sm.Uint64(), sm.Uint64(), sm.Uint64()}
}

// Next returns the next value in the stream and the advanced state.
func (s State) Next() (uint64, State) {
	result := rotl(s.s1*5, 7) * 9
	t := s.s1 << 17
	s.s2 ^= s.s0
	s.s3 ^= s.s1
	s.s1 ^= s.s2
	s.s0 ^= s.s3
	s.s2 ^= t
	s.s3 = rotl(s.s3, 45)
	return result, s
}

// Rand is a xoshiro256** generator: fast, 256 bits of state, and
// equidistributed enough for graph generation and sampling.
type Rand struct {
	s State
}

// New returns a generator seeded from seed via SplitMix64 (see
// NewState).
func New(seed uint64) *Rand {
	return &Rand{s: NewState(seed)}
}

// Split returns a new generator with a stream independent of r's,
// suitable for handing to a parallel worker. It advances r.
func (r *Rand) Split() *Rand {
	return New(r.Uint64() ^ 0xa3ec647659359acd)
}

func rotl(x uint64, k uint) uint64 {
	return (x << k) | (x >> (64 - k))
}

// Uint64 returns the next value in the stream.
func (r *Rand) Uint64() uint64 {
	v, s := r.s.Next()
	r.s = s
	return v
}

// Uint64n returns a uniform value in [0, n). It panics if n == 0.
// Uses Lemire's multiply-shift rejection method.
func (r *Rand) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("xrand: Uint64n with n == 0")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return r.Uint64() & (n - 1)
	}
	// Rejection sampling on the high bits to avoid modulo bias.
	threshold := -n % n
	for {
		v := r.Uint64()
		if v >= threshold {
			return v % n
		}
	}
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with n <= 0")
	}
	return int(r.Uint64n(uint64(n)))
}

// Int63 returns a uniform non-negative int64.
func (r *Rand) Int63() int64 {
	return int64(r.Uint64() >> 1)
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// NormFloat64 returns a standard normal variate (Box-Muller; the polar
// variant avoids trig and is fully portable).
func (r *Rand) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// Perm returns a random permutation of [0, n) (Fisher-Yates).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle randomizes the order of n elements using swap (Fisher-Yates).
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
