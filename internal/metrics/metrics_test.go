package metrics

import (
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
