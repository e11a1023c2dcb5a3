package mathx

import "testing"

func TestFactorial(t *testing.T) {
	want := []uint64{1, 1, 2, 6, 24, 120, 720, 5040, 40320, 362880, 3628800}
	for n, w := range want {
		if got := Factorial(n); got != w {
			t.Errorf("Factorial(%d) = %d, want %d", n, got, w)
		}
	}
	if got := Factorial(20); got != 2432902008176640000 {
		t.Errorf("Factorial(20) = %d", got)
	}
}

func TestFactorialPanics(t *testing.T) {
	for _, n := range []int{-1, 21} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Factorial(%d) should panic", n)
				}
			}()
			Factorial(n)
		}()
	}
}

func TestPermRankUnrankRoundTrip(t *testing.T) {
	for n := 1; n <= 7; n++ {
		total := Factorial(n)
		out := make([]int, n)
		for r := uint64(0); r < total; r++ {
			PermUnrank(r, out)
			if !IsPermutation(out) {
				t.Fatalf("PermUnrank(%d) over n=%d is not a permutation: %v", r, n, out)
			}
			if got := PermRank(out); got != r {
				t.Fatalf("rank(unrank(%d)) = %d over n=%d", r, got, n)
			}
		}
	}
}

func TestPermRankLexOrder(t *testing.T) {
	// Successive ranks must be lexicographically increasing.
	const n = 5
	prev := make([]int, n)
	cur := make([]int, n)
	PermUnrank(0, prev)
	for r := uint64(1); r < Factorial(n); r++ {
		PermUnrank(r, cur)
		less := false
		for i := range cur {
			if prev[i] != cur[i] {
				less = prev[i] < cur[i]
				break
			}
		}
		if !less {
			t.Fatalf("rank %d (%v) not lexicographically after rank %d (%v)", r, cur, r-1, prev)
		}
		copy(prev, cur)
	}
}

func TestPermIdentityRankZero(t *testing.T) {
	id := []int{0, 1, 2, 3, 4, 5}
	if got := PermRank(id); got != 0 {
		t.Errorf("rank(identity) = %d, want 0", got)
	}
	rev := []int{5, 4, 3, 2, 1, 0}
	if got := PermRank(rev); got != Factorial(6)-1 {
		t.Errorf("rank(reverse) = %d, want %d", got, Factorial(6)-1)
	}
}

func TestPermUnrankPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("PermUnrank with rank >= n! should panic")
		}
	}()
	PermUnrank(6, make([]int, 3))
}

func TestIsPermutation(t *testing.T) {
	if !IsPermutation([]int{0}) || !IsPermutation([]int{1, 0, 2}) {
		t.Error("valid permutations rejected")
	}
	for _, bad := range [][]int{{1}, {0, 0}, {0, 2}, {-1, 0}} {
		if IsPermutation(bad) {
			t.Errorf("IsPermutation(%v) = true", bad)
		}
	}
	if !IsPermutation(nil) {
		t.Error("empty slice is vacuously a permutation")
	}
}
