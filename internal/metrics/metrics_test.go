package metrics

import (
	"math"
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tb := NewTable("E7: mesh routing", "n", "rounds", "rounds/n")
	tb.AddRow("16", "38", "2.38")
	tb.AddRow("256", "530", "2.07")
	out := tb.String()
	for _, want := range []string{"E7: mesh routing", "rounds/n", "256", "2.07", "---"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table output missing %q:\n%s", want, out)
		}
	}
	if tb.Rows() != 2 {
		t.Fatalf("Rows = %d", tb.Rows())
	}
}

func TestTableAddRowf(t *testing.T) {
	tb := NewTable("t", "a", "b")
	tb.AddRowf("%d|%.2f", 3, 1.5)
	if !strings.Contains(tb.String(), "1.50") {
		t.Fatal("AddRowf formatting lost")
	}
}

func TestTablePanics(t *testing.T) {
	for name, f := range map[string]func(){
		"no columns": func() { NewTable("x") },
		"bad row":    func() { NewTable("x", "a", "b").AddRow("1") },
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

func TestSeriesFit(t *testing.T) {
	s := NewSeries("mesh")
	for n := 1; n <= 8; n++ {
		s.Add(float64(n), 2*float64(n)+5)
	}
	slope, intercept, r2 := s.Fit()
	if math.Abs(slope-2) > 1e-9 || math.Abs(intercept-5) > 1e-9 || r2 < 0.999 {
		t.Fatalf("fit = %v %v %v", slope, intercept, r2)
	}
	if s.Len() != 8 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestSeriesRatioSummary(t *testing.T) {
	s := NewSeries("r")
	s.Add(10, 20)
	s.Add(20, 60)
	sum := s.RatioSummary()
	if sum.Min != 2 || sum.Max != 3 || sum.Mean != 2.5 {
		t.Fatalf("ratio summary %+v", sum)
	}
}
