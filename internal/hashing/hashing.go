// Package hashing implements the Karlin–Upfal universal class of hash
// functions the paper uses to scatter the PRAM's shared address space
// over the network's memory modules (§2.1):
//
//	H = { h : h(x) = ((Σ_{0<=i<S} a_i x^i) mod P) mod N }
//
// where P is a prime >= M (the PRAM address-space size), the a_i are
// drawn uniformly from Z_P, and the degree S = cL for a constant c
// and L the diameter of the emulating network. Lemma 2.2 bounds the
// probability that any module receives more than γ >= S of the items
// touched in one PRAM step, which is what makes the Õ(ℓ)-time
// emulation go through. Each function needs only O(L log M) bits to
// describe — the property the paper highlights as making the scheme
// practical — which Func.Bits reports.
package hashing

import (
	"fmt"
	"math/bits"

	"pramemu/internal/mathx"
	"pramemu/internal/prng"
)

// Class is the family H for a fixed address-space size M, module
// count N and polynomial degree S.
type Class struct {
	// P is the prime modulus, the smallest prime >= M.
	P uint64
	// N is the number of memory modules.
	N int
	// Degree is S, the number of coefficients (polynomial degree + 1).
	Degree int
}

// NewClass builds the family H for an address space of M locations
// hashed onto n modules with polynomial degree S (the paper sets
// S = cL with L the network diameter). It panics on degenerate
// parameters.
func NewClass(m uint64, n int, degree int) *Class {
	if m == 0 {
		panic("hashing: address space must be non-empty")
	}
	if n < 1 {
		panic("hashing: need at least one memory module")
	}
	if degree < 1 {
		panic("hashing: polynomial degree must be >= 1")
	}
	return &Class{P: mathx.NextPrime(m), N: n, Degree: degree}
}

// Func is one hash function drawn from a Class.
type Func struct {
	class  *Class
	coeffs []uint64 // a_{S-1}, ..., a_0 order for Horner evaluation
}

// Draw samples a uniformly random member of the class using src.
func (c *Class) Draw(src *prng.Source) *Func {
	coeffs := make([]uint64, c.Degree)
	for i := range coeffs {
		coeffs[i] = src.Uint64n(c.P)
	}
	return &Func{class: c, coeffs: coeffs}
}

// Hash maps address x to a module in [0, N). Addresses must be < P
// (i.e. within the declared address space, up to prime rounding).
func (f *Func) Hash(x uint64) int {
	if x >= f.class.P {
		panic(fmt.Sprintf("hashing: address %d outside address space (P=%d)", x, f.class.P))
	}
	p := f.class.P
	acc := uint64(0)
	for _, a := range f.coeffs {
		// acc, x and a are all below p, so the 128-bit acc*x + a is
		// below p^2 and its high word below p: one exact division.
		hi, lo := bits.Mul64(acc, x)
		lo, c := bits.Add64(lo, a, 0)
		_, acc = bits.Div64(hi+c, lo, p)
	}
	return int(acc % uint64(f.class.N))
}

// Bits returns the description length of the function in bits:
// S coefficients of ⌈log2 P⌉ bits each — the O(L log M) of §2.1.
func (f *Func) Bits() int {
	bitsPerCoeff := 0
	for v := f.class.P - 1; v > 0; v >>= 1 {
		bitsPerCoeff++
	}
	return len(f.coeffs) * bitsPerCoeff
}

// MaxLoad returns the largest number of addresses from addrs mapped
// to a single module — the x^S_L quantity bounded by Lemma 2.2.
func (f *Func) MaxLoad(addrs []uint64) int {
	loads := make(map[int]int)
	max := 0
	for _, a := range addrs {
		m := f.Hash(a)
		loads[m]++
		if loads[m] > max {
			max = loads[m]
		}
	}
	return max
}

// Manager pairs a Class with a current function and implements the
// paper's rehashing protocol: if a routing attempt exceeds its
// allotted time (because some module drew more than cL items), a
// designated processor draws a fresh function and all locations are
// redistributed. Rehashes "hardly happen"; Manager counts them so
// experiment E11 can report the observed frequency.
type Manager struct {
	class    *Class
	src      *prng.Source
	current  *Func
	rehashes int
}

// NewManager draws an initial function for the class from seed.
func NewManager(c *Class, seed uint64) *Manager {
	src := prng.New(seed)
	return &Manager{class: c, src: src, current: c.Draw(src)}
}

// Current returns the active hash function.
func (m *Manager) Current() *Func { return m.current }

// Rehash draws a fresh function, invalidating the previous placement.
func (m *Manager) Rehash() {
	m.current = m.class.Draw(m.src)
	m.rehashes++
}

// Rehashes returns how many times Rehash has been called.
func (m *Manager) Rehashes() int { return m.rehashes }
