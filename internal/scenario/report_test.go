// The derived-report pass: speedup rows group the engine-workers axis
// (with identical rounds along it — the engine invariant), class rows
// aggregate across families, timing fills the speedup column, and a
// JSONL artifact with report rows interleaved parses back into its
// result rows.
package scenario

import (
	"bytes"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

func TestReportRows(t *testing.T) {
	// An impossible budget degrades every cell, appending "/state=hashed"
	// after the workers segment of its key; the groups must still form.
	degraded := testSpec()
	degraded.MemBudget = 1
	for _, spec := range []Spec{testSpec(), degraded} {
		results := mustRun(t, spec)
		rows := Report(results)
		speedups, classes := 0, 0
		groupRounds := make(map[string]float64)
		for _, r := range rows {
			switch r.Report {
			case "speedup":
				speedups++
				if r.Workers != 1 && r.Workers != 4 {
					t.Fatalf("unexpected workers value: %+v", r)
				}
				if r.Speedup != 0 {
					t.Fatalf("untimed sweep produced a speedup: %+v", r)
				}
				if prev, seen := groupRounds[r.Scenario]; seen && prev != r.RoundsMean {
					t.Fatalf("rounds diverged along the workers axis for %s: %v vs %v",
						r.Scenario, prev, r.RoundsMean)
				}
				groupRounds[r.Scenario] = r.RoundsMean
				if strings.Contains(r.Scenario, "/w=") {
					t.Fatalf("speedup group key retains a workers segment: %+v", r)
				}
			case "class":
				classes++
				if r.Cells == 0 || r.Families == 0 || r.RoundsPerDiamMean <= 0 {
					t.Fatalf("degenerate class row: %+v", r)
				}
			default:
				t.Fatalf("unknown report kind: %+v", r)
			}
		}
		// testSpec crosses workers {1, 4} everywhere: every one of the 18
		// cells lands in a speedup group of two.
		if speedups != len(results) {
			t.Fatalf("mem_budget=%d: %d speedup rows for %d results", spec.MemBudget, speedups, len(results))
		}
		// Two workload classes (permutation, many-one), route mode only.
		if classes != 2 {
			t.Fatalf("mem_budget=%d: %d class rows, want 2", spec.MemBudget, classes)
		}
	}
}

func TestReportTimedSpeedup(t *testing.T) {
	spec := testSpec()
	spec.Timing = true
	rows := Report(mustRun(t, spec))
	sawBaseline, sawRatio := false, false
	for _, r := range rows {
		if r.Report != "speedup" {
			continue
		}
		if r.RoundsPerSec <= 0 {
			t.Fatalf("timed sweep left rounds/sec empty: %+v", r)
		}
		if r.Workers == 1 && r.Speedup == 1 {
			sawBaseline = true
		}
		if r.Workers == 4 && r.Speedup > 0 {
			sawRatio = true
		}
	}
	if !sawBaseline || !sawRatio {
		t.Fatalf("timed report missing baselines or ratios: baseline=%v ratio=%v", sawBaseline, sawRatio)
	}
}

// TestSpeedupBaselineResolvesAutoWorkers pins the baseline choice on
// a workers axis containing 0 (= GOMAXPROCS): the widest run must not
// sort first and become the "baseline" — that inverted every speedup.
// The baseline is the smallest EFFECTIVE worker count, and every ratio
// is taken against its throughput.
func TestSpeedupBaselineResolvesAutoWorkers(t *testing.T) {
	mk := func(workers int, rps float64) Result {
		return Result{
			Family:       "line",
			Topology:     "line[n=16,k=1]",
			Workload:     "perm",
			Workers:      workers,
			Scenario:     "line[n=16,k=1]/perm[h=1,d=1,f=1,hot=0]/w=" + strconv.Itoa(workers),
			RoundsMean:   10,
			RoundsPerSec: rps,
		}
	}
	axis := []Result{mk(0, 400), mk(1, 100), mk(4, 300)}
	rows := Report(axis)
	var speedups []ReportRow
	for _, r := range rows {
		if r.Report == "speedup" {
			speedups = append(speedups, r)
		}
	}
	if len(speedups) != 3 {
		t.Fatalf("%d speedup rows, want 3", len(speedups))
	}
	// The expected baseline under the fixed comparator: smallest
	// effective workers, raw value breaking ties (GOMAXPROCS-dependent,
	// so compute it the same way rather than hard-coding 1).
	base := axis[0]
	for _, r := range axis[1:] {
		if e, eb := effectiveWorkers(r.Workers), effectiveWorkers(base.Workers); e < eb ||
			(e == eb && r.Workers < base.Workers) {
			base = r
		}
	}
	if runtime.GOMAXPROCS(0) > 1 && base.Workers != 1 {
		t.Fatalf("expected the workers=1 run as baseline on a multi-core box, got %d", base.Workers)
	}
	for _, r := range speedups {
		var src Result
		for _, a := range axis {
			if a.Workers == r.Workers {
				src = a
			}
		}
		want := src.RoundsPerSec / base.RoundsPerSec
		if r.Speedup != want {
			t.Fatalf("workers=%d speedup %v, want %v (baseline workers=%d)",
				r.Workers, r.Speedup, want, base.Workers)
		}
	}
}

// TestWorkersStrippedKeyFallbackSeparatesModes pins the single-run
// grouping fallback: results without a sweep scenario key but
// differing in mode, engine/fault, the ablation or a budget-degraded
// table state must land in distinct speedup groups — collapsing them
// to family/workload mixed an EREW emulation with raw routing in one
// bogus ratio.
func TestWorkersStrippedKeyFallbackSeparatesModes(t *testing.T) {
	variants := []Result{
		{},
		{Mode: ModeEREW},
		{Mode: ModeCRCW},
		{Degraded: true, State: "paged"},
		{Degraded: true, State: "hashed"},
		{Engine: EngineEvent, Fault: "dp0.2t4"},
		{Discipline: "lifo", SkipPhase1: true},
	}
	var results []Result
	for _, v := range variants {
		for _, w := range []int{1, 4} {
			r := v
			r.Family = "line"
			r.Topology = "line[n=16,k=1]"
			r.Workload = "perm"
			r.Workers = w
			r.RoundsMean = 10
			r.RoundsPerSec = float64(100 * w)
			results = append(results, r)
		}
	}
	rows := speedupRows(results)
	if len(rows) != len(results) {
		t.Fatalf("%d speedup rows for %d results", len(rows), len(results))
	}
	groups := make(map[string]int)
	for _, r := range rows {
		groups[r.Scenario]++
	}
	if len(groups) != len(variants) {
		t.Fatalf("fallback keys collapsed %d variants into %d groups: %v",
			len(variants), len(groups), groups)
	}
	for key, n := range groups {
		if n != 2 {
			t.Fatalf("group %q has %d rows, want 2", key, n)
		}
	}
}

// TestReportDistRows pins the distribution layer: a sweep with
// "distribution": true carries the per-trial samples on every result,
// the derived report grows one "dist" row per workers-stripped group
// with tail statistics consistent with the raw samples, and the JSONL
// round trip preserves the arrays bit-exactly.
func TestReportDistRows(t *testing.T) {
	spec := testSpec()
	spec.Trials = 5
	spec.Distribution = true
	results := mustRun(t, spec)
	for _, r := range results {
		if len(r.TrialRounds) != spec.Trials || len(r.TrialMaxQ) != spec.Trials {
			t.Fatalf("distribution cell %s carries %d/%d samples, want %d",
				r.Scenario, len(r.TrialRounds), len(r.TrialMaxQ), spec.Trials)
		}
		rMax, qMax := r.TrialRounds[0], r.TrialMaxQ[0]
		for i := 1; i < spec.Trials; i++ {
			rMax = max(rMax, r.TrialRounds[i])
			qMax = max(qMax, r.TrialMaxQ[i])
		}
		if rMax != r.RoundsMax || qMax != r.MaxQueue {
			t.Fatalf("%s: trial arrays (max %d/%d) disagree with scalars (%d/%d)",
				r.Scenario, rMax, qMax, r.RoundsMax, r.MaxQueue)
		}
		if !strings.Contains(r.Scenario, "/dist") {
			t.Fatalf("distribution cell key lacks the /dist segment: %s", r.Scenario)
		}
	}
	rows := Report(results)
	dists := 0
	for _, row := range rows {
		if row.Report != "dist" {
			continue
		}
		dists++
		d := row.RoundsDist
		if d == nil || row.MaxQDist == nil {
			t.Fatalf("dist row without stats: %+v", row)
		}
		// The group pools both workers values: 2 cells × 5 trials.
		if d.N != 2*spec.Trials {
			t.Fatalf("dist row %s pooled %d samples, want %d", row.Scenario, d.N, 2*spec.Trials)
		}
		if d.P999 < d.P99 || float64(d.Max) < d.P999 || d.Mean > float64(d.Max) {
			t.Fatalf("inconsistent tail stats: %+v", *d)
		}
		total := 0
		for _, c := range d.Hist {
			total += c
		}
		if total != d.N || d.HistW < 1 {
			t.Fatalf("histogram does not partition the sample: %+v", *d)
		}
	}
	// One dist row per workers-stripped group: half the result count,
	// since the only crossed axis besides workers is the grid itself.
	if dists == 0 || dists != len(results)/2 {
		t.Fatalf("%d dist rows for %d results", dists, len(results))
	}
	var b bytes.Buffer
	if err := WriteJSONL(&b, results); err != nil {
		t.Fatal(err)
	}
	parsed, err := ReadResults(&b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range parsed {
		if !reflect.DeepEqual(parsed[i], results[i]) {
			t.Fatalf("distribution arrays mutated in the round trip:\n%+v\n%+v", parsed[i], results[i])
		}
	}
	tables := ReportTables(rows)
	if len(tables) != 3 {
		t.Fatalf("%d report tables for a distribution sweep, want 3", len(tables))
	}
	if tables[2].Rows() != dists {
		t.Fatalf("dist table has %d rows, want %d", tables[2].Rows(), dists)
	}
}

func TestReadResultsSkipsReportRows(t *testing.T) {
	results := mustRun(t, testSpec())
	var b bytes.Buffer
	if err := WriteJSONL(&b, results); err != nil {
		t.Fatal(err)
	}
	if err := WriteReportJSONL(&b, Report(results)); err != nil {
		t.Fatal(err)
	}
	parsed, err := ReadResults(&b)
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed) != len(results) {
		t.Fatalf("round-tripped %d results, want %d", len(parsed), len(results))
	}
	for i := range parsed {
		if !reflect.DeepEqual(parsed[i], results[i]) {
			t.Fatalf("result %d mutated in the round trip:\n%+v\n%+v", i, parsed[i], results[i])
		}
	}
	if _, err := ReadResults(strings.NewReader("{broken")); err == nil {
		t.Fatal("malformed JSONL accepted")
	}
}

func TestReportTables(t *testing.T) {
	tables := ReportTables(Report(mustRun(t, testSpec())))
	if len(tables) != 2 {
		t.Fatalf("%d report tables, want 2", len(tables))
	}
	for _, tb := range tables {
		if tb.Rows() == 0 {
			t.Fatalf("empty report table:\n%s", tb)
		}
	}
	if !strings.Contains(tables[1].String(), "many-one") {
		t.Fatalf("class table lacks the many-one row:\n%s", tables[1])
	}
}
