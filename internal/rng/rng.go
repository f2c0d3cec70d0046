// Package rng provides a small, fast, deterministic pseudo-random number
// generator used throughout the library.
//
// Reproducibility is a hard requirement for the experiment harness: every
// run of every algorithm must be replayable from a single uint64 seed. The
// standard library's math/rand global generator is shared mutable state and
// math/rand/v2 is not seedable per-stream in older toolchains, so we carry
// our own generator: xoshiro256** seeded through splitmix64, the combination
// recommended by the xoshiro authors. It is not cryptographically secure and
// does not need to be.
//
// A *Source is NOT safe for concurrent use. Concurrent components derive
// independent streams with Split, which is cheap and gives statistically
// independent sequences.
//
// IntnInto and Float64Into are the batched forms of Intn and Float64 for
// hot loops that draw many values at once (the sampled LMCTS partner
// pass, a Braun instance's rows): each fills a slice with exactly the
// values that many single calls would return and leaves the Source in
// exactly the state they would, so swapping a loop of single draws for
// one batch never changes a trajectory. All of them run the one
// xoshiro256** step function; the batched forms keep the state in
// registers across the batch.
package rng

import "math/bits"

// Source is a deterministic xoshiro256** PRNG. The zero value is invalid;
// construct with New.
type Source struct {
	s [4]uint64
}

// splitmix64 advances x and returns the next splitmix64 output. It is used
// to expand a single seed into the 256-bit xoshiro state.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a Source seeded from seed. Distinct seeds give independent
// streams; the same seed always yields the same sequence.
func New(seed uint64) *Source {
	var r Source
	r.Reseed(seed)
	return &r
}

// Reseed resets r to the state New(seed) would produce, without
// allocating — hot paths that derive one stream per work item reuse a
// Source value instead of constructing one.
func (r *Source) Reseed(seed uint64) {
	x := seed
	for i := range r.s {
		r.s[i] = splitmix64(&x)
	}
	// All-zero state is the one forbidden state of xoshiro; splitmix64 of
	// any seed cannot produce it, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
}

// step is one xoshiro256** step over the four state words held in
// locals: it returns the output and the advanced words. It is the only
// copy of the generator's arithmetic; Uint64, IntnInto and Float64Into
// all inline it, so the batched loops keep the state in registers.
func step(s0, s1, s2, s3 uint64) (out, n0, n1, n2, n3 uint64) {
	out = bits.RotateLeft64(s1*5, 7) * 9
	t := s1 << 17
	s2 ^= s0
	s3 ^= s1
	s1 ^= s2
	s0 ^= s3
	s2 ^= t
	s3 = bits.RotateLeft64(s3, 45)
	return out, s0, s1, s2, s3
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Source) Uint64() uint64 {
	s := &r.s
	var out uint64
	out, s[0], s[1], s[2], s[3] = step(s[0], s[1], s[2], s[3])
	return out
}

// Split returns a new Source whose stream is independent of r's future
// output. It consumes one value from r.
func (r *Source) Split() *Source {
	return New(r.Uint64() ^ 0xd1342543de82ef95)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded generation.
	un := uint64(n)
	hi, lo := bits.Mul64(r.Uint64(), un)
	if lo < un {
		thresh := -un % un
		for lo < thresh {
			hi, lo = bits.Mul64(r.Uint64(), un)
		}
	}
	return int(hi)
}

// IntnInto fills dst with uniform ints in [0, n): exactly the values
// len(dst) successive calls to Intn(n) would return, consuming the same
// stream and leaving r in the same final state. The generator state stays
// in registers across the loop instead of round-tripping through r per
// draw, which is what makes batched draws (the sampled LMCTS partner
// pass) cheaper than a loop of Intn. It panics if n <= 0, even when dst
// is empty.
func (r *Source) IntnInto(dst []int, n int) {
	if n <= 0 {
		panic("rng: IntnInto with non-positive n")
	}
	un := uint64(n)
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	var x uint64
	for i := range dst {
		x, s0, s1, s2, s3 = step(s0, s1, s2, s3)
		hi, lo := bits.Mul64(x, un)
		if lo < un {
			// Lemire's rejection, as in Intn.
			thresh := -un % un
			for lo < thresh {
				x, s0, s1, s2, s3 = step(s0, s1, s2, s3)
				hi, lo = bits.Mul64(x, un)
			}
		}
		dst[i] = int(hi)
	}
	r.s = [4]uint64{s0, s1, s2, s3}
}

// unit maps 64 random bits to a uniform float64 in [0, 1): the top 53
// bits over 2^53. Float64 and Float64Into share it.
func unit(x uint64) float64 { return float64(x>>11) / (1 << 53) }

// Float64 returns a uniform float64 in [0, 1).
func (r *Source) Float64() float64 {
	return unit(r.Uint64())
}

// Float64Into fills dst with uniform float64s in [0, 1): exactly the
// values len(dst) successive calls to Float64 would return, leaving r in
// the same final state. As in IntnInto, the state stays in registers
// across the loop; a Braun row of 16 draws takes one call.
func (r *Source) Float64Into(dst []float64) {
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	var x uint64
	for i := range dst {
		x, s0, s1, s2, s3 = step(s0, s1, s2, s3)
		dst[i] = unit(x)
	}
	r.s = [4]uint64{s0, s1, s2, s3}
}

// Uniform returns a uniform float64 in [lo, hi).
func (r *Source) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Perm returns a uniform random permutation of [0, n).
func (r *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Bool returns true with probability p.
func (r *Source) Bool(p float64) bool {
	return r.Float64() < p
}
