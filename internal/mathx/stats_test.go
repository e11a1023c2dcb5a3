package mathx

import (
	"math"
	"testing"
)

func TestSummarizeBasics(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Min != 1 || s.Max != 5 || s.Mean != 3 || s.P50 != 3 {
		t.Fatalf("unexpected summary: %+v", s)
	}
	if math.Abs(s.StdDev-math.Sqrt(2)) > 1e-12 {
		t.Fatalf("StdDev = %v, want sqrt(2)", s.StdDev)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s := Summarize([]float64{7})
	if s.Min != 7 || s.Max != 7 || s.Mean != 7 || s.StdDev != 0 || s.P99 != 7 {
		t.Fatalf("unexpected summary of singleton: %+v", s)
	}
}

func TestSummarizePanicsEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Summarize(nil) should panic")
		}
	}()
	Summarize(nil)
}

func TestSummarizeDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Summarize(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("Summarize mutated its input")
	}
}

func TestPercentileBounds(t *testing.T) {
	sorted := []float64{10, 20, 30, 40}
	if Percentile(sorted, 0) != 10 || Percentile(sorted, 1) != 40 {
		t.Fatal("percentile endpoints wrong")
	}
	if got := Percentile(sorted, 0.5); got != 25 {
		t.Fatalf("P50 of 10..40 = %v, want 25", got)
	}
	if Percentile(sorted, -0.5) != 10 || Percentile(sorted, 1.5) != 40 {
		t.Fatal("out-of-range p must clamp")
	}
}

// TestQuantileHandComputedTable pins the interpolated quantile math —
// the numbers the sweep distribution rows report — against values
// worked out by hand. For a sorted sample of n points the p-quantile
// sits at position p*(n-1): on 1..100, P99 is position 98.01, i.e.
// 99 + 0.01*(100-99) = 99.01, and P999 is position 98.901 = 99.901.
func TestQuantileHandComputedTable(t *testing.T) {
	hundred := make([]int, 100)
	for i := range hundred {
		hundred[i] = i + 1
	}
	cases := []struct {
		name                 string
		xs                   []int
		max                  int
		mean, std, p99, p999 float64
	}{
		// 1..100: mean 50.5, population variance (n^2-1)/12 = 833.25.
		{"1..100", hundred, 100, 50.5, math.Sqrt(833.25), 99.01, 99.901},
		// 10,20,..,50: positions 3.96 and 3.996 between 40 and 50.
		{"tens", []int{10, 20, 30, 40, 50}, 50, 30, math.Sqrt(200), 49.6, 49.96},
		// A constant sample has zero spread at every quantile.
		{"constant", []int{7, 7, 7, 7}, 7, 7, 0, 7, 7},
		// A singleton is its own every-quantile.
		{"single", []int{42}, 42, 42, 0, 42, 42},
	}
	for _, c := range cases {
		s := SummarizeInts(c.xs)
		if s.N != len(c.xs) || s.Max != float64(c.max) {
			t.Errorf("%s: N=%d Max=%v, want N=%d Max=%d", c.name, s.N, s.Max, len(c.xs), c.max)
		}
		for _, q := range []struct {
			label     string
			got, want float64
		}{
			{"mean", s.Mean, c.mean},
			{"stddev", s.StdDev, c.std},
			{"p99", s.P99, c.p99},
			{"p999", s.P999, c.p999},
		} {
			if math.Abs(q.got-q.want) > 1e-9 {
				t.Errorf("%s: %s = %v, want %v", c.name, q.label, q.got, q.want)
			}
		}
	}
}

func TestMeanMaxInts(t *testing.T) {
	if got := MeanInts([]int{1, 2, 3, 4}); got != 2.5 {
		t.Fatalf("MeanInts = %v", got)
	}
	if got := MaxInts([]int{3, 9, 2}); got != 9 {
		t.Fatalf("MaxInts = %v", got)
	}
}

func TestBinomial(t *testing.T) {
	cases := []struct {
		n, k int
		want float64
	}{
		{5, 0, 1}, {5, 5, 1}, {5, 2, 10}, {10, 3, 120},
		{5, 6, 0}, {5, -1, 0},
	}
	for _, c := range cases {
		if got := Binomial(c.n, c.k); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Binomial(%d, %d) = %v, want %v", c.n, c.k, got, c.want)
		}
	}
}

func TestBinomialTail(t *testing.T) {
	// For fair-coin n=4: P[X >= 2] = 11/16.
	if got := BinomialTail(2, 4, 0.5); math.Abs(got-11.0/16) > 1e-12 {
		t.Fatalf("BinomialTail(2,4,0.5) = %v, want 11/16", got)
	}
	if BinomialTail(0, 10, 0.3) != 1 {
		t.Fatal("P[X >= 0] must be 1")
	}
	if BinomialTail(11, 10, 0.3) != 0 {
		t.Fatal("P[X >= n+1] must be 0")
	}
}

func TestChernoffUpperDominatesExactTail(t *testing.T) {
	// The Chernoff bound must upper-bound the exact binomial tail.
	n, p := 100, 0.1
	mu := float64(n) * p
	for _, delta := range []float64{0.5, 1, 2, 3} {
		m := int(math.Ceil((1 + delta) * mu))
		exact := BinomialTail(m, n, p)
		bound := ChernoffUpper(mu, delta)
		if exact > bound+1e-12 {
			t.Fatalf("Chernoff bound %v below exact tail %v at delta=%v", bound, exact, delta)
		}
	}
	if ChernoffUpper(10, 0) != 1 || ChernoffUpper(10, -1) != 1 {
		t.Fatal("non-positive delta must give the trivial bound 1")
	}
}
