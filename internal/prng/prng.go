// Package prng provides the deterministic pseudo-random number
// generators used by every randomized component in this repository.
//
// All experiments in the paper are randomized ("with high probability"
// bounds), so reproducibility demands that every source of randomness
// be an explicit, seedable stream. We use splitmix64 for seeding and
// stream-splitting and xoshiro256** for bulk generation; both are tiny,
// fast, and have well-understood statistical behaviour. Per-node
// substreams are derived with Split so that sequential and
// goroutine-parallel simulation consume identical random choices.
package prng

import "math/bits"

// splitmix64 advances a splitmix64 state and returns the next output.
// It is used for seeding xoshiro and for deriving substreams.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Source is a xoshiro256** generator. It is not safe for concurrent
// use; derive one Source per goroutine with Split.
type Source struct {
	s    [4]uint64
	seed uint64
}

// New returns a Source seeded from the given 64-bit seed. Distinct
// seeds yield statistically independent streams.
func New(seed uint64) *Source {
	src := seeded(seed)
	return &src
}

// seeded is New by value. New and Split stay small enough to inline,
// so a caller that keeps a Source local (a short-lived substream drawn
// from a few times) gets it on the stack instead of the heap.
func seeded(seed uint64) Source {
	src := Source{seed: seed}
	sm := seed
	for i := range src.s {
		src.s[i] = splitmix64(&sm)
	}
	// xoshiro must not start at the all-zero state; splitmix64 of any
	// seed cannot produce four zero words, but guard anyway.
	if src.s[0]|src.s[1]|src.s[2]|src.s[3] == 0 {
		src.s[0] = 0x9e3779b97f4a7c15
	}
	return src
}

// Split derives the i-th substream of s without perturbing s's own
// sequence. Substreams with distinct indices are independent, and the
// derivation depends only on s's original seed, not on how much of s
// has been consumed, so parallel and sequential simulations that hand
// substream i to node i see identical randomness.
func (s *Source) Split(i uint64) *Source {
	src := s.split(i)
	return &src
}

// SplitInto reseeds dst in place as the i-th substream of s: after it,
// dst draws exactly what Split(i) would, but no Source is allocated.
// A caller that keeps one Source per entity across runs (the packet
// arena keeps each packet's) reseeds it each run instead of splitting
// a new one.
func (s *Source) SplitInto(i uint64, dst *Source) { *dst = s.split(i) }

// split is Split by value (see seeded).
func (s *Source) split(i uint64) Source {
	sm := s.seed ^ 0x6a09e667f3bcc909
	base := splitmix64(&sm)
	mix := base ^ bits.RotateLeft64(i*0xd1342543de82ef95+0x2545f4914f6cdd1d, 17)
	return seeded(mix)
}

// Uint64 returns the next 64 uniformly random bits.
func (s *Source) Uint64() uint64 {
	result := bits.RotateLeft64(s.s[1]*5, 7) * 9
	t := s.s[1] << 17
	s.s[2] ^= s.s[0]
	s.s[3] ^= s.s[1]
	s.s[1] ^= s.s[2]
	s.s[0] ^= s.s[3]
	s.s[2] ^= t
	s.s[3] = bits.RotateLeft64(s.s[3], 45)
	return result
}

// Intn returns a uniformly random int in [0, n). It panics if n <= 0.
// Lemire's multiply-shift rejection method avoids modulo bias.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("prng: Intn called with non-positive n")
	}
	bound := uint64(n)
	hi, lo := bits.Mul64(s.Uint64(), bound)
	if lo < bound {
		threshold := -bound % bound
		for lo < threshold {
			hi, lo = bits.Mul64(s.Uint64(), bound)
		}
	}
	return int(hi)
}

// Uint64n returns a uniformly random uint64 in [0, n). It panics if n == 0.
func (s *Source) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("prng: Uint64n called with zero n")
	}
	hi, lo := bits.Mul64(s.Uint64(), n)
	if lo < n {
		threshold := -n % n
		for lo < threshold {
			hi, lo = bits.Mul64(s.Uint64(), n)
		}
	}
	return hi
}

// Float64 returns a uniformly random float64 in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) * 0x1.0p-53
}

// Perm returns a uniformly random permutation of [0, n) as a slice,
// generated with the Fisher–Yates shuffle.
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	s.Shuffle(p)
	return p
}

// Shuffle permutes p uniformly at random in place.
func (s *Source) Shuffle(p []int) {
	for i := len(p) - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}
