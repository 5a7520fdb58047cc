// Package rng provides a deterministic, splittable pseudo-random number
// generator for simulation experiments.
//
// Every experiment in this repository is an average over many random network
// topologies and channel realizations, so results must be exactly
// reproducible from a single seed. The generator is based on xoshiro256**
// seeded through splitmix64, following the reference constructions by
// Blackman and Vigna. Streams can be split hierarchically (topology stream,
// fading stream, workload stream, ...) so that adding draws to one subsystem
// never perturbs another.
package rng

import (
	"math"
	"strconv"
)

// Source is a deterministic pseudo-random source. It is NOT safe for
// concurrent use; split independent streams per goroutine instead.
type Source struct {
	s    [4]uint64
	seed uint64 // immutable seed material, used by Split
}

// New returns a source seeded from seed via splitmix64.
func New(seed uint64) *Source {
	src := &Source{}
	src.Reseed(seed)
	return src
}

// Reseed reinitializes the receiver in place to the state New(seed) would
// produce, so long-lived loops can re-derive per-iteration streams into a
// caller-owned Source without allocating.
func (r *Source) Reseed(seed uint64) {
	r.seed = seed
	sm := seed
	for i := range r.s {
		sm, r.s[i] = splitmix64(sm)
	}
	// xoshiro must not be seeded with the all-zero state.
	if r.s == [4]uint64{} {
		r.s[0] = 0x9e3779b97f4a7c15
	}
}

// splitmix64 advances the splitmix64 state and returns (next state, output).
func splitmix64(state uint64) (uint64, uint64) {
	state += 0x9e3779b97f4a7c15
	z := state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return state, z ^ (z >> 31)
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Source) Uint64() uint64 {
	var w uint64
	w, r.s[0], r.s[1], r.s[2], r.s[3] = next(r.s[0], r.s[1], r.s[2], r.s[3])
	return w
}

// Fill writes the next len(dst) words of the stream into dst, the words as
// many Uint64 calls would return, and leaves the source where they would.
// It keeps the state in locals across the batch, which Uint64, too large to
// inline, cannot.
func (r *Source) Fill(dst []uint64) {
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	for i := range dst {
		dst[i], s0, s1, s2, s3 = next(s0, s1, s2, s3)
	}
	r.s = [4]uint64{s0, s1, s2, s3}
}

// next is one xoshiro256** step: the output word of state (s0, s1, s2, s3)
// and the state after it.
func next(s0, s1, s2, s3 uint64) (uint64, uint64, uint64, uint64, uint64) {
	w := rotl(s1*5, 7) * 9
	t := s1 << 17
	s2 ^= s0
	s3 ^= s1
	s1 ^= s2
	s0 ^= s3
	s2 ^= t
	s3 = rotl(s3, 45)
	return w, s0, s1, s2, s3
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Split derives an independent child stream identified by label. The child is
// a deterministic function of the parent's seed material and the label, not
// of the parent's current position, so subsystems can be wired up in any
// order.
func (r *Source) Split(label string) *Source {
	h := uint64(14695981039346656037) // FNV-64 offset basis
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 1099511628211
	}
	_, mix := splitmix64(r.seed ^ 0xa5a5a5a5deadbeef)
	return New(mix ^ h)
}

// SplitInto reseeds dst to the exact stream Split(label) would return,
// without allocating a Source, so long-lived loops can re-derive labelled
// child streams into caller-owned storage. dst is returned for convenience.
func (r *Source) SplitInto(dst *Source, label string) *Source {
	h := uint64(14695981039346656037) // FNV-64 offset basis
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 1099511628211
	}
	_, mix := splitmix64(r.seed ^ 0xa5a5a5a5deadbeef)
	dst.Reseed(mix ^ h)
	return dst
}

// SplitIndex derives an independent child stream for an integer index, e.g.
// one stream per Monte-Carlo trial.
func (r *Source) SplitIndex(prefix string, idx int) *Source {
	return r.Split(prefix + "/" + strconv.Itoa(idx))
}

// SplitIndexInto reseeds dst to the exact stream SplitIndex(prefix, idx)
// would return, without building the label string or allocating a Source.
// It hashes prefix, '/', and the decimal digits of idx through the same
// FNV-64 fold Split applies to the concatenated label, so the two paths are
// bit-identical. dst is returned for convenience.
func (r *Source) SplitIndexInto(dst *Source, prefix string, idx int) *Source {
	h := uint64(14695981039346656037) // FNV-64 offset basis
	for i := 0; i < len(prefix); i++ {
		h ^= uint64(prefix[i])
		h *= 1099511628211
	}
	h ^= uint64('/')
	h *= 1099511628211
	// strconv.Itoa's digits, folded without materializing the string.
	var buf [20]byte
	n := len(buf)
	u := uint64(idx)
	neg := idx < 0
	if neg {
		u = uint64(-idx)
	}
	for {
		n--
		buf[n] = byte('0' + u%10)
		u /= 10
		if u == 0 {
			break
		}
	}
	if neg {
		n--
		buf[n] = '-'
	}
	for _, b := range buf[n:] {
		h ^= uint64(b)
		h *= 1099511628211
	}
	_, mix := splitmix64(r.seed ^ 0xa5a5a5a5deadbeef)
	dst.Reseed(mix ^ h)
	return dst
}

// SaltSeed deterministically derives a new seed from seed and label, so
// distinct experiment points get independent randomness from one user seed.
func SaltSeed(seed uint64, label string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 1099511628211
	}
	_, out := splitmix64(seed ^ h)
	return out
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Source) Float64() float64 {
	return UniformWord(r.Uint64(), 0, 1)
}

// Uniform returns a uniform float64 in [lo, hi).
func (r *Source) Uniform(lo, hi float64) float64 {
	return UniformWord(r.Uint64(), lo, hi)
}

// UniformWord maps one drawn word to a uniform float64 in [lo, hi): the
// value Uniform(lo, hi) returns when it draws w. Callers that draw a batch
// with Fill convert it with this. At lo = 0 and hi = 1 it is Float64's
// value, since 0 + u is u for every u in [0, 1).
func UniformWord(w uint64, lo, hi float64) float64 {
	return lo + float64((hi-lo)*(float64(w>>11)*(1.0/(1<<53)))) // no fused multiply-add on any architecture
}

// Intn returns a uniform int in [0, n). n must be positive.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		return 0
	}
	// Lemire's multiply-shift rejection method for unbiased bounded ints.
	bound := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := mul64(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 1<<32 - 1
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aHi*bLo + (aLo*bLo)>>32
	lo = a * b
	hi = aHi*bHi + t>>32 + (t&mask+aLo*bHi)>>32
	return hi, lo
}

// IntRange returns a uniform int in [lo, hi] inclusive.
func (r *Source) IntRange(lo, hi int) int {
	if hi <= lo {
		return lo
	}
	return lo + r.Intn(hi-lo+1)
}

// Exp returns an exponentially distributed float64 with unit mean. Scale by
// the desired mean. Used for Rayleigh fading power gains |h|^2 ~ Exp(1).
func (r *Source) Exp() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// SkipExp advances the source past one Exp draw without computing it:
// Exp rejects the uniform draws that are exactly 0 and takes the log of
// the first positive one, so SkipExp consumes the same Uint64 words and
// leaves the source in the same state as one Exp call.
func (r *Source) SkipExp() {
	for r.Uint64()>>11 == 0 {
	}
}

// Norm returns a normally distributed float64 with mean 0 and stddev 1,
// using the Marsaglia polar method.
func (r *Source) Norm() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// Perm returns a random permutation of [0, n) via Fisher-Yates.
func (r *Source) Perm(n int) []int {
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

// Shuffle permutes the first n elements using swap, via Fisher-Yates.
func (r *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Poisson draws from a Poisson distribution with the given mean using
// Knuth's method for small means and a normal approximation above 30.
func (r *Source) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 30 {
		v := int(math.Round(mean + math.Sqrt(mean)*r.Norm()))
		if v < 0 {
			return 0
		}
		return v
	}
	limit := math.Exp(-mean)
	n := 0
	prod := r.Float64()
	for prod > limit {
		n++
		prod *= r.Float64()
	}
	return n
}

// Binomial draws the number of successes in n independent trials with
// success probability p (used to model finite-test-set accuracy noise).
func (r *Source) Binomial(n int, p float64) int {
	if n <= 0 || p <= 0 {
		return 0
	}
	if p >= 1 {
		return n
	}
	// Normal approximation for large n, exact draw otherwise.
	if float64(n)*p > 50 && float64(n)*(1-p) > 50 {
		mean := float64(n) * p
		sd := math.Sqrt(float64(n) * p * (1 - p))
		v := int(math.Round(mean + sd*r.Norm()))
		if v < 0 {
			return 0
		}
		if v > n {
			return n
		}
		return v
	}
	count := 0
	for i := 0; i < n; i++ {
		if r.Float64() < p {
			count++
		}
	}
	return count
}

// Categorical draws an index from the (not necessarily normalized)
// non-negative weight vector w. It returns len(w)-1 if rounding pushes the
// cumulative sum short of the total. An all-zero weight vector yields index 0.
func (r *Source) Categorical(w []float64) int {
	var total float64
	for _, v := range w {
		total += v
	}
	if total <= 0 || len(w) == 0 {
		return 0
	}
	target := r.Float64() * total
	var cum float64
	for i, v := range w {
		cum += v
		if target < cum {
			return i
		}
	}
	return len(w) - 1
}
