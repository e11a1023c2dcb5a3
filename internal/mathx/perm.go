package mathx

// Factorial returns n!. It panics for n > 20, the largest factorial
// representable in a uint64; star graphs of that size (2.4 * 10^18
// nodes) are far beyond what can be simulated anyway.
func Factorial(n int) uint64 {
	if n < 0 || n > 20 {
		panic("mathx: Factorial argument out of range [0, 20]")
	}
	f := uint64(1)
	for i := 2; i <= n; i++ {
		f *= uint64(i)
	}
	return f
}

// PermRank returns the lexicographic rank (0-based) of the permutation
// p of {0, ..., len(p)-1}. It is the inverse of PermUnrank and is used
// to give each n-star node a dense integer identifier.
func PermRank(p []int) uint64 {
	n := len(p)
	// Lehmer code via counting smaller elements to the right.
	// O(n^2) is fine: n <= 20 always.
	rank := uint64(0)
	for i := 0; i < n; i++ {
		smaller := 0
		for j := i + 1; j < n; j++ {
			if p[j] < p[i] {
				smaller++
			}
		}
		rank += uint64(smaller) * Factorial(n-1-i)
	}
	return rank
}

// PermUnrank writes into out the permutation of {0, ..., len(out)-1}
// with lexicographic rank r. It panics if r >= len(out)!.
func PermUnrank(r uint64, out []int) {
	n := len(out)
	if r >= Factorial(n) {
		panic("mathx: PermUnrank rank out of range")
	}
	avail := make([]int, n)
	for i := range avail {
		avail[i] = i
	}
	for i := 0; i < n; i++ {
		f := Factorial(n - 1 - i)
		idx := int(r / f)
		r %= f
		out[i] = avail[idx]
		copy(avail[idx:], avail[idx+1:])
		avail = avail[:len(avail)-1]
	}
}

// IsPermutation reports whether p is a permutation of {0, ..., len(p)-1}.
func IsPermutation(p []int) bool {
	seen := make([]bool, len(p))
	for _, v := range p {
		if v < 0 || v >= len(p) || seen[v] {
			return false
		}
		seen[v] = true
	}
	return true
}
