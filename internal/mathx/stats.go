package mathx

import (
	"math"
	"sort"
)

// Summary holds order statistics of a sample of measurements, as
// reported by the benchmark harness for each experiment.
type Summary struct {
	N      int
	Min    float64
	Max    float64
	Mean   float64
	StdDev float64
	P50    float64
	P95    float64
	P99    float64
	P999   float64
}

// Summarize computes summary statistics of xs. It panics on an empty
// sample: every experiment must produce at least one measurement.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		panic("mathx: Summarize of empty sample")
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	var sum, sumSq float64
	for _, x := range sorted {
		sum += x
		sumSq += x * x
	}
	n := float64(len(sorted))
	mean := sum / n
	variance := sumSq/n - mean*mean
	if variance < 0 {
		variance = 0 // guard against rounding
	}
	return Summary{
		N:      len(sorted),
		Min:    sorted[0],
		Max:    sorted[len(sorted)-1],
		Mean:   mean,
		StdDev: math.Sqrt(variance),
		P50:    Percentile(sorted, 0.50),
		P95:    Percentile(sorted, 0.95),
		P99:    Percentile(sorted, 0.99),
		P999:   Percentile(sorted, 0.999),
	}
}

// SummarizeInts is Summarize over integer measurements (round counts,
// queue lengths) — the tail-statistics entry point of the adversarial
// search's seed sweeps.
func SummarizeInts(xs []int) Summary {
	fs := make([]float64, len(xs))
	for i, x := range xs {
		fs[i] = float64(x)
	}
	return Summarize(fs)
}

// Percentile returns the p-th percentile (0 <= p <= 1) of a sorted
// sample using nearest-rank interpolation.
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		panic("mathx: Percentile of empty sample")
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// MeanInts is a convenience wrapper converting integer measurements
// (step counts, queue lengths) to their mean.
func MeanInts(xs []int) float64 {
	if len(xs) == 0 {
		panic("mathx: MeanInts of empty sample")
	}
	sum := 0
	for _, x := range xs {
		sum += x
	}
	return float64(sum) / float64(len(xs))
}

// MaxInts returns the maximum of a non-empty integer sample.
func MaxInts(xs []int) int {
	if len(xs) == 0 {
		panic("mathx: MaxInts of empty sample")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Binomial returns "n choose k" as a float64, saturating gracefully
// for large arguments; it backs the Chernoff-bound calculators used in
// analysis-validation tests.
func Binomial(n, k int) float64 {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	result := 1.0
	for i := 0; i < k; i++ {
		result *= float64(n-i) / float64(i+1)
	}
	return result
}

// BinomialTail returns P[X >= m] for X ~ Binomial(n, p), computed by
// direct summation (suitable for the modest n used in tests).
func BinomialTail(m, n int, p float64) float64 {
	if m <= 0 {
		return 1
	}
	if m > n {
		return 0
	}
	tail := 0.0
	for k := m; k <= n; k++ {
		tail += Binomial(n, k) * math.Pow(p, float64(k)) * math.Pow(1-p, float64(n-k))
	}
	if tail > 1 {
		tail = 1
	}
	return tail
}

// ChernoffUpper returns the multiplicative Chernoff upper-tail bound
// P[X >= (1+delta) * mu] <= exp(-mu * delta^2 / (2 + delta)) for a sum
// of independent 0/1 trials with mean mu. Fact 2.3 in the paper.
func ChernoffUpper(mu, delta float64) float64 {
	if delta <= 0 {
		return 1
	}
	return math.Exp(-mu * delta * delta / (2 + delta))
}
