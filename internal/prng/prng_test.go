package prng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with equal seeds diverged at step %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("streams with different seeds collided %d/100 times", same)
	}
}

func TestSplitIndependentOfConsumption(t *testing.T) {
	a := New(7)
	b := New(7)
	for i := 0; i < 17; i++ {
		b.Uint64() // consume from b only
	}
	sa, sb := a.Split(3), b.Split(3)
	for i := 0; i < 100; i++ {
		if sa.Uint64() != sb.Uint64() {
			t.Fatal("Split must depend only on seed material, not consumption")
		}
	}
}

func TestSplitStreamsDistinct(t *testing.T) {
	root := New(9)
	a, b := root.Split(0), root.Split(1)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("substreams 0 and 1 collided %d/100 times", same)
	}
}

// TestLocalSplitDoesNotAllocate pins the inlining contract of New and
// Split: a substream that stays local to its caller lives on the
// stack, so per-entity draws (one substream per link or node) cost no
// heap allocation.
func TestLocalSplitDoesNotAllocate(t *testing.T) {
	root := New(9)
	var sink uint64
	if allocs := testing.AllocsPerRun(100, func() {
		src := root.Split(sink)
		sink += src.Uint64()
	}); allocs != 0 {
		t.Fatalf("a local Split allocated %.1f objects, want 0", allocs)
	}
}

func TestIntnRange(t *testing.T) {
	s := New(3)
	for n := 1; n <= 64; n++ {
		for i := 0; i < 100; i++ {
			if v := s.Intn(n); v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) should panic")
		}
	}()
	New(1).Intn(0)
}

func TestUint64nPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Uint64n(0) should panic")
		}
	}()
	New(1).Uint64n(0)
}

func TestIntnUniform(t *testing.T) {
	// Chi-squared check of Intn(10) over 100k draws. With 9 degrees of
	// freedom the 99.9th percentile is ~27.9; use 40 for slack since
	// the seed is fixed and the test must never flake.
	s := New(11)
	const n, draws = 10, 100000
	var counts [n]int
	for i := 0; i < draws; i++ {
		counts[s.Intn(n)]++
	}
	expected := float64(draws) / n
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	if chi2 > 40 {
		t.Fatalf("Intn(10) not uniform: chi2 = %.1f, counts = %v", chi2, counts)
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(5)
	sum := 0.0
	const draws = 100000
	for i := 0; i < draws; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
		sum += f
	}
	if mean := sum / draws; math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	check := func(seed uint64, n uint8) bool {
		p := New(seed).Perm(int(n))
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= int(n) || seen[v] {
				return false
			}
			seen[v] = true
		}
		return len(p) == int(n)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPermUniformFirstElement(t *testing.T) {
	// The first element of Perm(4) should be uniform over 0..3.
	s := New(13)
	var counts [4]int
	const draws = 40000
	for i := 0; i < draws; i++ {
		counts[s.Perm(4)[0]]++
	}
	for v, c := range counts {
		if c < draws/4-draws/40 || c > draws/4+draws/40 {
			t.Fatalf("Perm(4)[0]=%d occurred %d times, want ~%d", v, c, draws/4)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += s.Uint64()
	}
	_ = sink
}

func BenchmarkIntn(b *testing.B) {
	s := New(1)
	var sink int
	for i := 0; i < b.N; i++ {
		sink += s.Intn(1000)
	}
	_ = sink
}

// TestSplitIntoMatchesSplit pins SplitInto to Split: a Source reseeded
// in place, even one that has already drawn from another stream, draws
// exactly what a freshly split one does, and reseeding allocates
// nothing.
func TestSplitIntoMatchesSplit(t *testing.T) {
	dst := New(0)
	for _, seed := range []uint64{0, 1, 31, 1991, 1 << 40, math.MaxUint64} {
		root := New(seed)
		for _, i := range []uint64{0, 1, 2, 63, 64, 1000, 1 << 31, math.MaxUint64} {
			dst.Uint64() // leave stale state behind
			root.SplitInto(i, dst)
			want := root.Split(i)
			for k := 0; k < 8; k++ {
				if a, b := dst.Uint64(), want.Uint64(); a != b {
					t.Fatalf("seed %d index %d draw %d: SplitInto %x, Split %x", seed, i, k, a, b)
				}
			}
		}
	}
	root := New(7)
	if allocs := testing.AllocsPerRun(100, func() { root.SplitInto(3, dst) }); allocs != 0 {
		t.Fatalf("SplitInto allocated %.1f objects, want 0", allocs)
	}
}
