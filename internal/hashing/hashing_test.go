package hashing

import (
	"math"
	"testing"

	"pramemu/internal/mathx"
	"pramemu/internal/prng"
)

func TestNewClassPrime(t *testing.T) {
	c := NewClass(1000, 16, 8)
	if c.P != 1009 {
		t.Fatalf("P = %d, want 1009", c.P)
	}
	if c.N != 16 || c.Degree != 8 {
		t.Fatalf("class = %+v", c)
	}
}

func TestNewClassPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"zero M":      func() { NewClass(0, 4, 2) },
		"zero N":      func() { NewClass(10, 0, 2) },
		"zero degree": func() { NewClass(10, 4, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s should panic", name)
				}
			}()
			f()
		}()
	}
}

func TestHashInRange(t *testing.T) {
	c := NewClass(1<<20, 100, 12)
	f := c.Draw(prng.New(1))
	for x := uint64(0); x < 10000; x++ {
		h := f.Hash(x)
		if h < 0 || h >= 100 {
			t.Fatalf("Hash(%d) = %d out of range", x, h)
		}
	}
}

func TestHashDeterministic(t *testing.T) {
	c := NewClass(1<<16, 64, 6)
	f1 := c.Draw(prng.New(7))
	f2 := c.Draw(prng.New(7))
	for x := uint64(0); x < 1000; x++ {
		if f1.Hash(x) != f2.Hash(x) {
			t.Fatal("functions drawn with equal seeds differ")
		}
	}
}

func TestDrawsDiffer(t *testing.T) {
	c := NewClass(1<<16, 64, 6)
	f1 := c.Draw(prng.New(1))
	f2 := c.Draw(prng.New(2))
	same := 0
	for x := uint64(0); x < 1000; x++ {
		if f1.Hash(x) == f2.Hash(x) {
			same++
		}
	}
	// Two random functions agree on ~1/64 of points.
	if same > 100 {
		t.Fatalf("independent draws agree on %d/1000 points", same)
	}
}

func TestHashPanicsOutsideAddressSpace(t *testing.T) {
	c := NewClass(100, 10, 2)
	f := c.Draw(prng.New(1))
	defer func() {
		if recover() == nil {
			t.Fatal("hashing beyond P should panic")
		}
	}()
	f.Hash(c.P)
}

func TestUniformity(t *testing.T) {
	// Chi-squared test over 64 modules with 64k sequential addresses.
	const n, draws = 64, 1 << 16
	c := NewClass(1<<20, n, 10)
	f := c.Draw(prng.New(3))
	var counts [n]int
	for x := uint64(0); x < draws; x++ {
		counts[f.Hash(x)]++
	}
	expected := float64(draws) / n
	chi2 := 0.0
	for _, cnt := range counts {
		d := float64(cnt) - expected
		chi2 += d * d / expected
	}
	// 63 degrees of freedom: p=0.001 at ~103. Allow 150 for slack.
	if chi2 > 150 {
		t.Fatalf("chi2 = %.1f over 64 modules", chi2)
	}
}

// TestLemma22MaxLoad checks the empirical content of Lemma 2.2: with
// degree S = cL, mapping N requested items onto N modules keeps the
// maximum module load at most a small multiple of L, w.h.p.
func TestLemma22MaxLoad(t *testing.T) {
	const n = 5040 // star graph n=7: N = 7! nodes
	const l = 9    // its diameter
	c := NewClass(1<<30, n, 2*l)
	addrs := make([]uint64, n)
	src := prng.New(42)
	for trial := 0; trial < 5; trial++ {
		f := c.Draw(src)
		for i := range addrs {
			addrs[i] = src.Uint64n(1 << 30)
		}
		if load := f.MaxLoad(addrs); load > 2*l {
			t.Fatalf("trial %d: max load %d exceeds 2L = %d", trial, load, 2*l)
		}
	}
}

// TestCorollary31LogOverLogLog checks Corollary 3.1's balls-in-bins
// shape: N items into N buckets gives max load O(log N / log log N).
func TestCorollary31LogOverLogLog(t *testing.T) {
	const n = 1 << 14
	c := NewClass(1<<30, n, 16)
	src := prng.New(9)
	f := c.Draw(src)
	addrs := make([]uint64, n)
	for i := range addrs {
		addrs[i] = src.Uint64n(1 << 30)
	}
	bound := 4 * math.Log(n) / math.Log(math.Log(n))
	if load := f.MaxLoad(addrs); float64(load) > bound {
		t.Fatalf("max load %d exceeds 4·logN/loglogN = %.1f", load, bound)
	}
}

func TestBits(t *testing.T) {
	c := NewClass(1<<20, 64, 10)
	f := c.Draw(prng.New(1))
	// P is just above 2^20, so 21 bits per coefficient, 10 coefficients.
	if got := f.Bits(); got != 210 {
		t.Fatalf("Bits = %d, want 210", got)
	}
}

func TestManagerRehash(t *testing.T) {
	c := NewClass(1<<16, 32, 4)
	m := NewManager(c, 5)
	before := m.Current()
	if m.Rehashes() != 0 {
		t.Fatal("fresh manager has rehashes")
	}
	m.Rehash()
	if m.Rehashes() != 1 {
		t.Fatalf("rehashes = %d", m.Rehashes())
	}
	after := m.Current()
	diff := 0
	for x := uint64(0); x < 1000; x++ {
		if before.Hash(x) != after.Hash(x) {
			diff++
		}
	}
	if diff < 900 {
		t.Fatalf("rehash changed only %d/1000 mappings", diff)
	}
}

func TestDegreeOneIsLinear(t *testing.T) {
	// A degree-1 "polynomial" is a constant function mod P: every
	// address maps to the same module. This guards the Horner order.
	c := NewClass(1000, 10, 1)
	f := c.Draw(prng.New(2))
	first := f.Hash(0)
	for x := uint64(1); x < 100; x++ {
		if f.Hash(x) != first {
			t.Fatal("degree-1 class must be constant functions")
		}
	}
}

// genericHash is the reference evaluation: Horner's rule through
// overflow-free MulMod/AddMod, valid for any P.
func genericHash(f *Func, x uint64) int {
	p := f.class.P
	acc := uint64(0)
	for _, a := range f.coeffs {
		acc = mathx.AddMod(mathx.MulMod(acc, x, p), a, p)
	}
	return int(acc % uint64(f.class.N))
}

// TestHashMatchesGeneric checks Hash's one-division Horner step against
// the MulMod/AddMod reference where the 128-bit intermediate is
// tightest: P just below 2^32, where acc*x + a nears 2^64, and one
// class with P above 2^32, where the high word is non-zero.
func TestHashMatchesGeneric(t *testing.T) {
	src := prng.New(11)
	if p := NewClass(1<<32-5, 1, 1).P; p != 1<<32-5 {
		t.Fatalf("NextPrime(2^32-5) = %d; the test expects P just below 2^32", p)
	}
	for _, c := range []*Class{
		NewClass(1<<32-5, 5040, 18), // P = 2^32-5, the largest prime below 2^32
		NewClass(1<<32-100, 4096, 24),
		NewClass(1<<31, 1000, 9),
		NewClass(1<<20, 64, 2),
		NewClass(1<<40, 2048, 12), // P > 2^32
		NewClass(1<<62, 4096, 8),
	} {
		for d := 0; d < 4; d++ {
			f := c.Draw(src)
			xs := []uint64{0, 1, c.P - 2, c.P - 1}
			for i := 0; i < 2000; i++ {
				xs = append(xs, src.Uint64n(c.P))
			}
			for _, x := range xs {
				if got, want := f.Hash(x), genericHash(f, x); got != want {
					t.Fatalf("P=%d: Hash(%d) = %d, reference gives %d", c.P, x, got, want)
				}
			}
		}
	}
}
