package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestSelfTimes(t *testing.T) {
	for _, tc := range []struct {
		name  string
		spans []span
		want  map[int]int64
	}{
		{
			name: "nested children",
			spans: []span{
				{ID: 0, Parent: noParent, Start: 0, End: 100},
				{ID: 1, Parent: 0, Start: 10, End: 50},
				{ID: 2, Parent: 1, Start: 20, End: 30},
				{ID: 3, Parent: 0, Start: 60, End: 70},
			},
			// 100 - (40 + 10); 40 - 10; 10; 10.
			want: map[int]int64{0: 50, 1: 30, 2: 10, 3: 10},
		},
		{
			name: "overlapping children count their union",
			spans: []span{
				{ID: 0, Parent: noParent, Start: 0, End: 100},
				{ID: 1, Parent: 0, Start: 10, End: 60},
				{ID: 2, Parent: 0, Start: 40, End: 90},
				{ID: 3, Parent: 0, Start: 50, End: 55},
			},
			// The children cover [10, 90]: 80, not 50 + 50 + 5.
			want: map[int]int64{0: 20, 1: 50, 2: 50, 3: 5},
		},
		{
			name: "children are clipped to the parent",
			spans: []span{
				{ID: 0, Parent: noParent, Start: 10, End: 50},
				{ID: 1, Parent: 0, Start: 0, End: 20},
				{ID: 2, Parent: 0, Start: 45, End: 80},
			},
			want: map[int]int64{0: 25, 1: 20, 2: 35},
		},
		{
			name: "a child with no parent is a root",
			spans: []span{
				{ID: 0, Parent: noParent, Start: 0, End: 100},
				{ID: 1, Parent: 7, Start: 10, End: 40},
			},
			want: map[int]int64{0: 100, 1: 30},
		},
		{
			name: "unfinished spans are skipped",
			spans: []span{
				{ID: 0, Parent: noParent, Start: 0, End: 100},
				{ID: 1, Parent: 0, Start: 10},
			},
			want: map[int]int64{0: 100},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := selfTimes(tc.spans)
			if len(got) != len(tc.want) {
				t.Fatalf("self times %v, want %v", got, tc.want)
			}
			for id, want := range tc.want {
				if got[id] != want {
					t.Errorf("span %d: self %d, want %d", id, got[id], want)
				}
			}
		})
	}
}

// benchmarkFile is the subset of BENCHMARK.json the quick test checks.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// resultLine is the closing JSON line of a run.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// TestBenchQuick runs every workload at -quick sizes, untraced and
// traced, and checks that each run passes its output check, fails no
// op, and prints exactly the metrics BENCHMARK.json lists.
func TestBenchQuick(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	var listed []string
	for _, w := range bf.Workloads {
		listed = append(listed, w.Name)
	}
	var defined []string
	for _, w := range workloads {
		defined = append(defined, w.name)
	}
	if strings.Join(listed, ",") != strings.Join(defined, ",") {
		t.Fatalf("BENCHMARK.json lists workloads %v, the benchmark defines %v", listed, defined)
	}
	units := func(ms []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}) map[string]string {
		out := map[string]string{}
		for _, m := range ms {
			out[m.Name] = m.Unit
		}
		return out
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			args := []string{"-workload", w.name, "-quick", "-seconds", "0"}
			want := units(bf.EndToEnd)
			if traced {
				args = append(args, "-trace", filepath.Join(t.TempDir(), "spans.jsonl"))
				want = units(bf.PerLayer)
			}
			var stdout, stderr bytes.Buffer
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("%v: exit %d\n%s", args, code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res resultLine
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%v: last line: %v", args, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%v: correct=%t attempted=%d failed=%d", args, res.Correct, res.Attempted, res.Failed)
			}
			if !strings.Contains(stdout.String(), "\nerror_rate 0 ratio\n") {
				t.Errorf("%v: error_rate is not 0:\n%s", args, stdout.String())
			}
			for name, unit := range want {
				if m, ok := res.Metrics[name]; !ok {
					t.Errorf("%v: metric %s missing", args, name)
				} else if m.Unit != unit {
					t.Errorf("%v: metric %s has unit %s, BENCHMARK.json says %s", args, name, m.Unit, unit)
				}
			}
			for name := range res.Metrics {
				if _, ok := want[name]; !ok {
					t.Errorf("%v: metric %s is not in BENCHMARK.json", args, name)
				}
			}
		}
	}
}
