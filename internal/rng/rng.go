// Package rng provides a small, deterministic pseudo-random number
// generator and the random variates used throughout the RSIN simulations.
//
// The paper's workload model (Section II, assumption (a)) needs Poisson
// arrivals and exponentially distributed transmission and service times.
// All simulation results in this repository must be reproducible bit for
// bit across runs and Go releases, so we implement the generator ourselves
// (splitmix64 seeding a xoshiro256** core) instead of depending on
// math/rand, whose stream is not stable across major versions.
package rng

import "math"

// Source is a deterministic 64-bit PRNG (xoshiro256**) seeded via
// splitmix64. The zero value is not valid; use New.
type Source struct {
	s [4]uint64
}

// New returns a Source seeded deterministically from seed. Two Sources
// constructed with the same seed produce identical streams.
func New(seed uint64) *Source {
	var src Source
	src.Seed(seed)
	return &src
}

// Seed resets the generator state from a single 64-bit seed using the
// splitmix64 expansion recommended by the xoshiro authors.
func (s *Source) Seed(seed uint64) {
	sm := seed
	for i := range s.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		s.s[i] = z ^ (z >> 31)
	}
	// xoshiro must not be seeded with all zeros; splitmix64 cannot
	// produce four zero words from any seed, but guard regardless.
	if s.s[0]|s.s[1]|s.s[2]|s.s[3] == 0 {
		s.s[0] = 1
	}
}

//lint:hotpath
func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next value in the stream.
//
//lint:hotpath every simulated timer draws through here
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

// Float64 returns a uniform variate in [0, 1) with 53 bits of precision.
//
//lint:hotpath
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
//
//lint:hotpath
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with non-positive n")
	}
	// Lemire's multiply-shift rejection method for unbiased bounded
	// integers.
	bound := uint64(n)
	for {
		v := s.Uint64()
		hi, lo := mul64(v, bound)
		if lo >= bound || lo >= -bound%bound {
			return int(hi)
		}
	}
}

// mul64 computes the 128-bit product of a and b.
//
//lint:hotpath
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 1<<32 - 1
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aHi*bLo + (aLo*bLo)>>32
	hi = aHi*bHi + t>>32
	t = t&mask + aLo*bHi
	hi += t >> 32
	lo = a * b
	return hi, lo
}

// Exp returns an exponentially distributed variate with the given rate
// (mean 1/rate). It panics if rate <= 0.
//
//lint:hotpath draws every arrival, transmission, and service time
func (s *Source) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("rng: Exp called with non-positive rate")
	}
	// Inverse CDF; 1-U avoids log(0) because Float64 is in [0,1).
	return -math.Log(1-s.Float64()) / rate
}

// Perm returns a random permutation of [0, n) using Fisher–Yates.
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	s.PermInto(p)
	return p
}

// PermInto fills dst with a random permutation of [0, len(dst)). It
// consumes exactly the same variates as Perm(len(dst)) — callers on hot
// paths (the simulator's WakeRandom policy) reuse one scratch slice
// across calls without perturbing the stream.
//
//lint:hotpath
func (s *Source) PermInto(dst []int) {
	for i := range dst {
		dst[i] = i
	}
	for i := len(dst) - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		dst[i], dst[j] = dst[j], dst[i]
	}
}
