// Package rng provides a small, deterministic, splittable pseudo-random
// number generator used throughout the repository.
//
// Every randomized routine in this codebase takes an explicit *rng.RNG (or a
// seed) so that experiments are reproducible bit-for-bit across runs and
// platforms. The generator is an xoshiro256** core seeded via SplitMix64,
// following the reference constructions by Blackman and Vigna.
package rng

import "math"

// RNG is a deterministic pseudo-random number generator. It is NOT safe for
// concurrent use; use Split to derive independent generators for goroutines.
type RNG struct {
	s [4]uint64

	// cached second normal variate from Box-Muller
	hasGauss bool
	gauss    float64
}

// splitMix64 advances the given state and returns the next SplitMix64 output.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator seeded from the given seed. Two generators built
// from the same seed produce identical streams.
func New(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	for i := range r.s {
		r.s[i] = splitMix64(&sm)
	}
	// xoshiro must not start from the all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return r
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly random bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Split derives a new independent generator from this one. The parent
// advances, so successive Splits yield distinct children.
func (r *RNG) Split() *RNG {
	return New(r.Uint64())
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless method would be faster; modulo bias for
	// n << 2^64 is negligible for our workloads, but we still reject to keep
	// the stream exactly uniform.
	bound := uint64(n)
	threshold := -bound % bound
	for {
		v := r.Uint64()
		if v >= threshold {
			return int(v % bound)
		}
	}
}

// Uniform returns a uniform float64 in [lo, hi).
func (r *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// NormFloat64 returns a standard normal variate (Box-Muller).
func (r *RNG) NormFloat64() float64 {
	if r.hasGauss {
		r.hasGauss = false
		return r.gauss
	}
	var u, v float64
	for {
		u = r.Float64()
		if u > 0 {
			break
		}
	}
	v = r.Float64()
	mag := math.Sqrt(-2 * math.Log(u))
	r.gauss = mag * math.Sin(2*math.Pi*v)
	r.hasGauss = true
	return mag * math.Cos(2*math.Pi*v)
}

// ExpFloat64 returns an exponential variate with rate 1.
func (r *RNG) ExpFloat64() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
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

// Shuffle permutes the elements indexed 0..n-1 using the provided swap.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Pareto returns a Pareto(xm, alpha) variate: heavy-tailed sizes used by the
// elephant-mice traffic generators.
func (r *RNG) Pareto(xm, alpha float64) float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return xm / math.Pow(u, 1/alpha)
		}
	}
}
