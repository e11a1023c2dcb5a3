package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pramemu/internal/scenario"
	"pramemu/internal/sweepd"
)

// The smoke tests run each main path in-process on a tiny
// configuration and assert the report line comes out clean.

func TestRunPointToPointSmoke(t *testing.T) {
	for _, net := range []string{"star", "shuffle", "butterfly", "hypercube", "pancake", "ttree", "debruijn"} {
		var b strings.Builder
		cfg := config{net: net, n: 3, workload: "perm", trials: 1, seed: 7, workers: 2}
		if err := run(&b, cfg); err != nil {
			t.Fatalf("%s: %v", net, err)
		}
		if !strings.Contains(b.String(), "rounds mean=") {
			t.Fatalf("%s: unexpected report %q", net, b.String())
		}
	}
}

func TestRunTorusSmoke(t *testing.T) {
	var b strings.Builder
	cfg := config{net: "torus", n: 4, k: 3, workload: "perm", trials: 1, seed: 7, workers: 2}
	if err := run(&b, cfg); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "torus(k=4,n=3)") {
		t.Fatalf("unexpected report %q", b.String())
	}
}

func TestRunLeveledViewSmoke(t *testing.T) {
	// -leveled routes on the unrolling when the family has one
	// (Algorithm 2.1 on the de Bruijn graph here).
	var b strings.Builder
	cfg := config{net: "debruijn", n: 4, k: 2, workload: "perm", trials: 1, seed: 7, useLeveled: true}
	if err := run(&b, cfg); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "debruijn-leveled") {
		t.Fatalf("unexpected report %q", b.String())
	}
	// ...and errors cleanly when it has none — including on the mesh,
	// which dispatches to its specialized router.
	if err := run(&b, config{net: "torus", n: 4, workload: "perm", trials: 1, useLeveled: true}); err == nil {
		t.Fatal("leveled view of the torus accepted")
	}
	if err := run(&b, config{net: "mesh", n: 8, workload: "perm", alg: "threestage", trials: 1, useLeveled: true}); err == nil {
		t.Fatal("leveled view of the mesh accepted")
	}
}

func TestRunRejectsOversizedGraphsBeforeAllocating(t *testing.T) {
	// A 2^32-node de Bruijn graph exceeds the simulator's node-id
	// limit (topology.MaxNodes); the command must refuse it with an
	// error naming the bound before materializing any per-node
	// workload, on both the direct and the leveled path. (2^25-node
	// graphs, which the old 24-bit packed keys refused, now route on
	// the paged tables — the debruijn package's huge-construction test
	// covers that cheaply.)
	for _, cfg := range []config{
		{net: "debruijn", n: 32, k: 2, workload: "perm", trials: 1},
		{net: "debruijn", n: 32, k: 2, workload: "perm", trials: 1, useLeveled: true},
	} {
		var b strings.Builder
		err := run(&b, cfg)
		if err == nil {
			t.Fatalf("%+v accepted", cfg)
		}
		if !strings.Contains(err.Error(), "bound") {
			t.Fatalf("unexpected error: %v", err)
		}
	}
}

func TestRunMeshSmoke(t *testing.T) {
	var b strings.Builder
	cfg := config{net: "mesh", n: 8, workload: "perm", alg: "threestage", trials: 1, seed: 7}
	if err := run(&b, cfg); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "mesh(8x8)") {
		t.Fatalf("unexpected report %q", b.String())
	}
}

func TestRunTransposeOnTorus(t *testing.T) {
	var b strings.Builder
	cfg := config{net: "torus", n: 8, k: 2, workload: "transpose", trials: 1, seed: 7}
	if err := run(&b, cfg); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "transpose") {
		t.Fatalf("unexpected report %q", b.String())
	}
	// Non-square node counts (5^3 = 125) reject the workload cleanly.
	if err := run(&b, config{net: "torus", n: 5, k: 3, workload: "transpose", trials: 1}); err == nil {
		t.Fatal("transpose accepted on a non-square torus")
	}
}

func TestRunJSONOutput(t *testing.T) {
	var b strings.Builder
	cfg := config{net: "star", n: 4, workload: "perm", trials: 2, seed: 7, jsonOut: true, workers: 2}
	if err := run(&b, cfg); err != nil {
		t.Fatal(err)
	}
	var res result
	if err := json.Unmarshal([]byte(b.String()), &res); err != nil {
		t.Fatalf("output is not one JSON object: %v\n%s", err, b.String())
	}
	if res.Family != "star" || res.Topology != "star(n=4)" || res.Nodes != 24 {
		t.Fatalf("unexpected fields: %+v", res)
	}
	if res.Trials != 2 || res.Workers != 2 || res.RoundsMean <= 0 || res.RoundsMax <= 0 {
		t.Fatalf("run metadata wrong: %+v", res)
	}
	if res.RoundsPerDiam <= 0 || res.ElapsedMS < 0 {
		t.Fatalf("derived metrics wrong: %+v", res)
	}
}

func TestRunJSONOnMesh(t *testing.T) {
	var b strings.Builder
	cfg := config{net: "mesh", n: 8, workload: "perm", alg: "threestage", trials: 1, seed: 7, jsonOut: true}
	if err := run(&b, cfg); err != nil {
		t.Fatal(err)
	}
	var res result
	if err := json.Unmarshal([]byte(b.String()), &res); err != nil {
		t.Fatalf("mesh JSON malformed: %v\n%s", err, b.String())
	}
	if res.Algorithm != "threestage" || res.Nodes != 64 {
		t.Fatalf("unexpected fields: %+v", res)
	}
}

func TestRunListsFamiliesAndWorkloads(t *testing.T) {
	var b strings.Builder
	if err := run(&b, config{list: true}); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"star", "pancake", "ttree", "torus", "debruijn", "mesh", "butterfly"} {
		if !strings.Contains(b.String(), name) {
			t.Fatalf("-list missing family %q:\n%s", name, b.String())
		}
	}
	for _, name := range []string{"perm", "relation", "bitrev", "bitcomp", "shift", "transpose", "tornado", "khot", "hotspot", "local", "ident"} {
		if !strings.Contains(b.String(), name) {
			t.Fatalf("-list missing workload %q:\n%s", name, b.String())
		}
	}
	// Capability requirements are listed alongside each generator.
	for _, needs := range []string{"needs=coords", "needs=square", "needs=pow2", "needs=graph"} {
		if !strings.Contains(b.String(), needs) {
			t.Fatalf("-list missing capability annotation %q:\n%s", needs, b.String())
		}
	}
}

// TestRunRejectsIncompatiblePairs pins that a (family, workload) pair
// failing the capability gate errors with the missing capability
// named, not a generic failure.
func TestRunRejectsIncompatiblePairs(t *testing.T) {
	var b strings.Builder
	for _, tc := range []struct {
		cfg  config
		want string
	}{
		{config{net: "star", n: 4, workload: "tornado", trials: 1}, "coordinates"},
		{config{net: "star", n: 4, workload: "bitrev", trials: 1}, "power-of-two"},
		{config{net: "torus", n: 5, k: 3, workload: "transpose", trials: 1}, "square"},
		{config{net: "butterfly", n: 3, workload: "local", trials: 1}, "graph"},
	} {
		err := run(&b, tc.cfg)
		if err == nil {
			t.Fatalf("%+v accepted", tc.cfg)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%+v: error %q does not name the missing capability %q", tc.cfg, err, tc.want)
		}
	}
}

// TestRunNewGeneratorsSmoke routes each newly registered generator on
// a compatible family through the single-run path.
func TestRunNewGeneratorsSmoke(t *testing.T) {
	for _, tc := range []config{
		{net: "torus", n: 4, k: 2, workload: "tornado", trials: 1, seed: 7},
		{net: "hypercube", n: 4, workload: "bitcomp", trials: 1, seed: 7},
		{net: "star", n: 4, workload: "shift", trials: 1, seed: 7},
		{net: "star", n: 4, workload: "khot", trials: 1, seed: 7, workers: 2},
		{net: "debruijn", n: 3, k: 2, workload: "local", locality: 2, trials: 1, seed: 7},
		{net: "mesh", n: 8, workload: "khot", trials: 1, seed: 7},
	} {
		var b strings.Builder
		if err := run(&b, tc); err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		if !strings.Contains(b.String(), "rounds mean=") {
			t.Fatalf("%+v: unexpected report %q", tc, b.String())
		}
	}
}

// TestRunSweep drives -sweep end to end: a spec file crossing three
// families and three workloads yields one deterministic JSON line per
// cell, each parseable as the shared Result schema.
func TestRunSweep(t *testing.T) {
	spec := `{
		"name": "test",
		"topologies": [
			{"family": "star", "n": 4},
			{"family": "torus", "n": 4, "k": 2},
			{"family": "mesh", "n": 4}
		],
		"workloads": [{"name": "perm"}, {"name": "shift"}, {"name": "khot", "hot": 2}],
		"workers": [1, 2],
		"trials": 2,
		"seed": 7,
		"pool": 2
	}`
	path := filepath.Join(t.TempDir(), "sweep.json")
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	out := func() string {
		var b strings.Builder
		if err := run(&b, config{sweep: path}); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	first := out()
	lines := strings.Split(strings.TrimSpace(first), "\n")
	if len(lines) != 19 { // 3 families x 3 workloads x 2 workers + trailer
		t.Fatalf("sweep emitted %d lines, want 19:\n%s", len(lines), first)
	}
	var trailer scenario.Trailer
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &trailer); err != nil || trailer.Report != scenario.TrailerReport {
		t.Fatalf("last line is not the trailer: %v\n%s", err, lines[len(lines)-1])
	}
	if trailer.Cells != 18 || trailer.Errors != 0 {
		t.Fatalf("trailer counts wrong: %+v", trailer)
	}
	prevKey := ""
	for _, line := range lines[:len(lines)-1] {
		var res result
		if err := json.Unmarshal([]byte(line), &res); err != nil {
			t.Fatalf("line is not a Result: %v\n%s", err, line)
		}
		if res.Scenario == "" || res.RoundsMean <= 0 || res.Trials != 2 {
			t.Fatalf("degenerate sweep line: %+v", res)
		}
		if res.ElapsedMS != 0 {
			t.Fatalf("sweep line carries wall-clock timing: %+v", res)
		}
		if res.Scenario <= prevKey {
			t.Fatalf("sweep lines not sorted by scenario key: %q after %q", res.Scenario, prevKey)
		}
		prevKey = res.Scenario
	}
	if second := out(); second != first {
		t.Fatalf("sweep output not deterministic:\n%s\nvs\n%s", first, second)
	}
	// A missing spec file errors cleanly.
	var b strings.Builder
	if err := run(&b, config{sweep: filepath.Join(t.TempDir(), "absent.json")}); err == nil {
		t.Fatal("missing sweep spec accepted")
	}

	// -out runs the same sweep through the journaled writer: the
	// published artifact is byte-identical to the streamed one, and no
	// .tmp or .journal intermediate survives the atomic finalize.
	outPath := filepath.Join(t.TempDir(), "artifact.jsonl")
	b.Reset()
	if err := run(&b, config{sweep: path, out: outPath}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != first {
		t.Fatalf("-out artifact drifted from the streamed sweep:\n%s\nvs\n%s", data, first)
	}
	for _, leftover := range []string{outPath + ".tmp", outPath + ".journal"} {
		if _, err := os.Stat(leftover); !os.IsNotExist(err) {
			t.Fatalf("journaled sweep left %s behind", leftover)
		}
	}
	// -out and -report do not compose.
	if err := run(&b, config{sweep: path, out: outPath, report: true}); err == nil {
		t.Fatal("-out -report accepted")
	}
}

// TestRunEmulationMode drives -mode end to end: erew and crcw single
// runs print the step-cost line (and emit the extended JSON schema),
// and mode/workload mismatches error with the constraint named.
func TestRunEmulationMode(t *testing.T) {
	var b strings.Builder
	if err := run(&b, config{net: "star", n: 4, workload: "perm", mode: "erew", trials: 2, seed: 7}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "mode=erew: step cost mean=") {
		t.Fatalf("unexpected emulation report %q", b.String())
	}
	b.Reset()
	if err := run(&b, config{net: "star", n: 4, workload: "khot", mode: "crcw", trials: 2, seed: 7, jsonOut: true}); err != nil {
		t.Fatal(err)
	}
	var res result
	if err := json.Unmarshal([]byte(b.String()), &res); err != nil {
		t.Fatalf("emulation JSON malformed: %v\n%s", err, b.String())
	}
	if res.Mode != "crcw" || res.RoundsMean <= 0 || res.MaxModuleLoad <= 0 {
		t.Fatalf("unexpected emulation fields: %+v", res)
	}
	if err := run(&b, config{net: "star", n: 4, workload: "khot", mode: "erew", trials: 1}); err == nil ||
		!strings.Contains(err.Error(), "crcw") {
		t.Fatalf("many-one erew run: want a crcw-gating error, got %v", err)
	}
	if err := run(&b, config{net: "star", n: 4, workload: "relation", mode: "crcw", trials: 1}); err == nil ||
		!strings.Contains(err.Error(), "single-step") {
		t.Fatalf("relation crcw run: want a single-step error, got %v", err)
	}
	if err := run(&b, config{net: "star", n: 4, workload: "perm", mode: "quantum", trials: 1}); err == nil {
		t.Fatal("unknown mode accepted")
	}
}

// TestRunSweepEmulSpec runs the checked-in sweeps/emul.json (the CI
// perf-smoke artifact): deterministic output, every line parseable,
// erew and crcw cells present.
func TestRunSweepEmulSpec(t *testing.T) {
	out := func() string {
		var b strings.Builder
		if err := run(&b, config{sweep: filepath.Join("..", "..", "sweeps", "emul.json")}); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	first := out()
	if second := out(); second != first {
		t.Fatalf("emul sweep output not deterministic:\n%s\nvs\n%s", first, second)
	}
	modes := map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(first), "\n") {
		if strings.Contains(line, `"report":`) {
			continue // the trailer line
		}
		var res result
		if err := json.Unmarshal([]byte(line), &res); err != nil {
			t.Fatalf("line is not a Result: %v\n%s", err, line)
		}
		if res.Mode == "" || res.RoundsMean <= 0 || res.ElapsedMS != 0 {
			t.Fatalf("degenerate emul sweep line: %+v", res)
		}
		modes[res.Mode]++
	}
	if modes["erew"] == 0 || modes["crcw"] == 0 {
		t.Fatalf("emul sweep missing a mode: %v", modes)
	}
}

// TestRunSweepReport drives -sweep -report: the result lines stay
// wall-clock-free and are followed by speedup and class report rows.
func TestRunSweepReport(t *testing.T) {
	spec := `{
		"topologies": [{"family": "star", "n": 4}],
		"workloads": [{"name": "perm"}, {"name": "khot", "hot": 2}],
		"workers": [1, 2],
		"trials": 2,
		"seed": 7
	}`
	path := filepath.Join(t.TempDir(), "sweep.json")
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := run(&b, config{sweep: path, report: true}); err != nil {
		t.Fatal(err)
	}
	results, speedups, classes := 0, 0, 0
	for _, line := range strings.Split(strings.TrimSpace(b.String()), "\n") {
		var row struct {
			Report    string  `json:"report"`
			ElapsedMS float64 `json:"elapsed_ms"`
			Speedup   float64 `json:"speedup"`
		}
		if err := json.Unmarshal([]byte(line), &row); err != nil {
			t.Fatalf("line is not JSON: %v\n%s", err, line)
		}
		switch row.Report {
		case "":
			results++
			if row.ElapsedMS != 0 {
				t.Fatalf("-report leaked wall clock into a result line: %s", line)
			}
		case "speedup":
			speedups++
			if row.Speedup <= 0 {
				t.Fatalf("timed report row lacks a speedup: %s", line)
			}
		case "class":
			classes++
		}
	}
	// 2 workloads x 2 workers result cells; a speedup row per cell;
	// one class row per traffic class.
	if results != 4 || speedups != 4 || classes != 2 {
		t.Fatalf("unexpected row mix: %d results, %d speedups, %d classes:\n%s",
			results, speedups, classes, b.String())
	}
}

// TestRunEventEngine drives -engine event end to end: the single-run
// report line prices delivered ticks and retransmits, the JSON object
// carries the engine/fault fields, and bad knobs error cleanly.
func TestRunEventEngine(t *testing.T) {
	var b strings.Builder
	cfg := config{
		net: "star", n: 4, workload: "perm", trials: 2, seed: 7,
		engine: "event", latency: "jitter", base: 1, jitter: 2, gap: 1,
		drop: 0.2, rto: 4,
	}
	if err := run(&b, cfg); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "engine=event") || !strings.Contains(b.String(), "retransmits=") {
		t.Fatalf("unexpected event report %q", b.String())
	}
	b.Reset()
	cfg.jsonOut = true
	if err := run(&b, cfg); err != nil {
		t.Fatal(err)
	}
	var res result
	if err := json.Unmarshal([]byte(b.String()), &res); err != nil {
		t.Fatalf("event JSON malformed: %v\n%s", err, b.String())
	}
	if res.Engine != "event" || res.Fault != "dp0.2t4" || res.RoundsMean <= 0 {
		t.Fatalf("unexpected event fields: %+v", res)
	}
	// Unknown engines and invalid fault knobs error with the knob named.
	if err := run(&b, config{net: "star", n: 4, workload: "perm", trials: 1, engine: "quantum"}); err == nil {
		t.Fatal("unknown engine accepted")
	}
	if err := run(&b, config{
		net: "star", n: 4, workload: "perm", trials: 1,
		engine: "event", latency: "fixed", base: 1, gap: 1, drop: 1,
	}); err == nil || !strings.Contains(err.Error(), "drop") {
		t.Fatalf("drop=1 run: want a drop-probability error, got %v", err)
	}
	// The event engine prices raw routing only; combining it with a
	// PRAM emulation mode is rejected, not silently ignored.
	if err := run(&b, config{
		net: "star", n: 4, workload: "perm", trials: 1, mode: "erew",
		engine: "event", latency: "fixed", base: 1, gap: 1,
	}); err == nil || !strings.Contains(err.Error(), "synchronous rounds") {
		t.Fatalf("event+erew run: want the engine/mode conflict error, got %v", err)
	}
}

// TestRunReportDiff pins the -reportdiff gate: identical artifacts
// pass, a one-byte drift errors naming the differing line, a
// truncated (trailer-less) artifact fails loudly, and wrong usage
// errors.
func TestRunReportDiff(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.jsonl")
	b := filepath.Join(dir, "b.jsonl")
	c := filepath.Join(dir, "c.jsonl")
	truncated := filepath.Join(dir, "truncated.jsonl")
	body := "{\"scenario\":\"x/w=1\",\"rounds_mean\":4}\n{\"scenario\":\"x/w=2\",\"rounds_mean\":4}\n" +
		"{\"report\":\"trailer\",\"cells\":2}\n"
	for path, content := range map[string]string{
		a: body, b: body,
		c:         strings.Replace(body, "mean\":4}\n{", "mean\":5}\n{", 1),
		truncated: strings.Replace(body, "{\"report\":\"trailer\",\"cells\":2}\n", "", 1),
	} {
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var out strings.Builder
	if err := run(&out, config{reportdiff: true, diffArgs: []string{a, b}}); err != nil {
		t.Fatalf("identical artifacts flagged: %v", err)
	}
	if !strings.Contains(out.String(), "identical") {
		t.Fatalf("unexpected reportdiff output %q", out.String())
	}
	err := run(&out, config{reportdiff: true, diffArgs: []string{a, c}})
	if err == nil {
		t.Fatal("drifting artifacts accepted")
	}
	if !strings.Contains(err.Error(), "line 1") {
		t.Fatalf("drift error does not locate the line: %v", err)
	}
	if err := run(&out, config{reportdiff: true, diffArgs: []string{a, truncated}}); err == nil ||
		!strings.Contains(err.Error(), "trailer") {
		t.Fatalf("trailer-less artifact: want a loud truncation error, got %v", err)
	}
	if err := run(&out, config{reportdiff: true, diffArgs: []string{a}}); err == nil {
		t.Fatal("single-artifact reportdiff accepted")
	}
	if err := run(&out, config{reportdiff: true, diffArgs: []string{a, filepath.Join(dir, "absent.jsonl")}}); err == nil {
		t.Fatal("missing artifact accepted")
	}
}

// TestRunSweepReportRoundTrip feeds a -sweep -report artifact back
// through the consumption path: ReadResults must skip the trailing
// report rows and Report over the parsed results must regenerate the
// same derived rows (modulo the wall-clock columns the artifact
// strips from its result lines).
func TestRunSweepReportRoundTrip(t *testing.T) {
	spec := `{
		"topologies": [{"family": "star", "n": 4}, {"family": "torus", "n": 4, "k": 2}],
		"workloads": [{"name": "perm"}, {"name": "khot", "hot": 2}],
		"engines": ["round", "event"],
		"workers": [1, 2],
		"trials": 2,
		"seed": 7
	}`
	path := filepath.Join(t.TempDir(), "sweep.json")
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := run(&b, config{sweep: path, report: true}); err != nil {
		t.Fatal(err)
	}
	artifact := b.String()
	parsed, err := scenario.ReadResults(strings.NewReader(artifact))
	if err != nil {
		t.Fatalf("artifact does not round-trip through ReadResults: %v", err)
	}
	resultLines := 0
	for _, line := range strings.Split(strings.TrimSpace(artifact), "\n") {
		if !strings.Contains(line, `"report":`) {
			resultLines++
		}
	}
	if len(parsed) != resultLines || resultLines == 0 {
		t.Fatalf("ReadResults kept %d of %d result lines", len(parsed), resultLines)
	}
	sawEvent := false
	for _, r := range parsed {
		if r.Engine == "event" {
			sawEvent = true
		}
	}
	if !sawEvent {
		t.Fatal("round-tripped sweep lost its event cells")
	}
	// Rebuilding the report from the parsed results must produce the
	// artifact's derived rows: same groups, workers and rounds. The
	// speedup column is wall-clock-derived and the artifact's result
	// lines are stripped of timing, so it regenerates as zero — blank
	// it on both sides before comparing.
	rebuilt := scenario.Report(parsed)
	var fromArtifact []scenario.ReportRow
	for _, line := range strings.Split(strings.TrimSpace(artifact), "\n") {
		if !strings.Contains(line, `"report":`) || strings.Contains(line, `"report":"trailer"`) {
			continue
		}
		var row scenario.ReportRow
		if err := json.Unmarshal([]byte(line), &row); err != nil {
			t.Fatalf("report row malformed: %v\n%s", err, line)
		}
		row.Speedup, row.RoundsPerSec = 0, 0
		fromArtifact = append(fromArtifact, row)
	}
	if len(rebuilt) != len(fromArtifact) {
		t.Fatalf("rebuilt %d report rows, artifact has %d", len(rebuilt), len(fromArtifact))
	}
	for i := range rebuilt {
		row := rebuilt[i]
		row.Speedup, row.RoundsPerSec = 0, 0
		if row != fromArtifact[i] {
			t.Fatalf("report row %d drifted in the round trip:\n%+v\n%+v", i, row, fromArtifact[i])
		}
	}
}

// TestRunSweepsMatchExpectedArtifacts is the in-process twin of the
// CI reportdiff gate: every checked-in sweep spec must reproduce its
// checked-in expected artifact byte for byte, whatever this machine's
// pool width. Drift means a behavior change — regenerate the
// expectation (see sweeps/README.md) when it is intentional.
func TestRunSweepsMatchExpectedArtifacts(t *testing.T) {
	for _, name := range []string{"smoke", "emul", "event", "dispatch"} {
		var b strings.Builder
		spec := filepath.Join("..", "..", "sweeps", name+".json")
		if err := run(&b, config{sweep: spec}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		expected := filepath.Join("..", "..", "sweeps", "expected", name+".jsonl")
		want, err := os.ReadFile(expected)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if b.String() != string(want) {
			t.Fatalf("%s sweep drifted from %s — regenerate it if the change is intentional", name, expected)
		}
	}
}

func TestRunRejectsUnknowns(t *testing.T) {
	var b strings.Builder
	if err := run(&b, config{net: "moebius"}); err == nil {
		t.Fatal("unknown network accepted")
	}
	if err := run(&b, config{net: "mesh", n: 8, alg: "magic"}); err == nil {
		t.Fatal("unknown mesh algorithm accepted")
	}
	if err := run(&b, config{net: "star", n: 3, workload: "nope", trials: 1, alg: "threestage"}); err == nil {
		t.Fatal("unknown workload accepted")
	}
	if err := run(&b, config{net: "ttree", n: 5, k: 9, workload: "perm", trials: 1}); err == nil {
		t.Fatal("unknown ttree shape accepted")
	}
}

// TestRunWritesProfiles is the satellite smoke test for -cpuprofile /
// -memprofile: both files must exist and be non-empty after a run
// through the testable core.
func TestRunWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	var b strings.Builder
	cfg := config{
		net: "star", n: 4, workload: "perm", trials: 2, seed: 7,
		cpuprofile: cpu, memprofile: mem,
	}
	if err := run(&b, cfg); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cpu, mem} {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if fi.Size() == 0 {
			t.Fatalf("profile %s is empty", path)
		}
	}
	// An unwritable profile path errors instead of silently skipping.
	if err := run(&b, config{
		net: "star", n: 3, workload: "perm", trials: 1,
		cpuprofile: filepath.Join(dir, "no", "such", "dir.pprof"),
	}); err == nil {
		t.Fatal("unwritable cpuprofile path accepted")
	}
}

// TestRunHashedMatchesDense pins the link-state A/B knobs: -paged and
// a one-byte -membudget (which degrades to the hashed fallback) must
// report the same rounds as the dense default on a fixed seed.
func TestRunHashedMatchesDense(t *testing.T) {
	out := func(memBudget int64, paged bool) string {
		var b strings.Builder
		cfg := config{net: "star", n: 4, workload: "perm", trials: 2, seed: 7, memBudget: memBudget, paged: paged}
		if err := run(&b, cfg); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	dense := out(0, false)
	if hashed := out(1, false); dense != hashed {
		t.Fatalf("dense and hashed reports differ:\n%s%s", dense, hashed)
	}
	if paged := out(0, true); dense != paged {
		t.Fatalf("dense and paged reports differ:\n%s%s", dense, paged)
	}
}

// TestRunMemStatsFlags drives the -memstats/-paged/-membudget trio
// through the testable core: the memory line names the resolved state,
// the JSON object carries the pricing fields, and an impossible budget
// degrades to the hashed fallback instead of erroring.
func TestRunMemStatsFlags(t *testing.T) {
	var b strings.Builder
	cfg := config{net: "star", n: 4, workload: "perm", trials: 1, seed: 7, memStats: true}
	if err := run(&b, cfg); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "memory: state=dense table=") {
		t.Fatalf("missing dense memory line in %q", b.String())
	}
	b.Reset()
	cfg.paged = true
	if err := run(&b, cfg); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "memory: state=paged") {
		t.Fatalf("missing paged memory line in %q", b.String())
	}
	b.Reset()
	cfg.paged = false
	cfg.memBudget = 1 // no table fits one byte: degrade, don't error
	if err := run(&b, cfg); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "state=hashed degraded(over budget)") {
		t.Fatalf("missing degraded memory line in %q", b.String())
	}
	b.Reset()
	jcfg := config{net: "star", n: 4, workload: "perm", trials: 1, seed: 7, paged: true, jsonOut: true}
	if err := run(&b, jcfg); err != nil {
		t.Fatal(err)
	}
	var res result
	if err := json.Unmarshal([]byte(b.String()), &res); err != nil {
		t.Fatalf("memstats JSON malformed: %v\n%s", err, b.String())
	}
	if res.State != "paged" || !res.Paged || res.TableBytes <= 0 || res.ArenaBytes <= 0 || res.BPerNode <= 0 {
		t.Fatalf("unexpected memory fields: %+v", res)
	}
	// Event cells price time, not table memory: the line says so
	// instead of reporting zeroes as a footprint.
	b.Reset()
	ecfg := config{
		net: "star", n: 4, workload: "perm", trials: 1, seed: 7, memStats: true,
		engine: "event", latency: "fixed", base: 1, gap: 1,
	}
	if err := run(&b, ecfg); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "memory: not priced") {
		t.Fatalf("missing event memory note in %q", b.String())
	}
}

// TestRunServerDiff pins the server-side diff client: -reportdiff
// with -server sends job IDs to the daemon's diff endpoint instead of
// reading local files. A job against itself is identical, different
// seeds error with the server's drift detail, and bad usage (wrong
// arity, unknown jobs) errors loudly.
func TestRunServerDiff(t *testing.T) {
	srv, err := sweepd.New(sweepd.Config{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	submit := func(seed int) string {
		t.Helper()
		spec := fmt.Sprintf(`{"name":"diff","topologies":[{"family":"star","n":4}],"workloads":[{"name":"perm"}],"trials":1,"seed":%d}`, seed)
		resp, err := http.Post(ts.URL+"/sweeps", "application/json", strings.NewReader(spec))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st struct {
			ID    string `json:"id"`
			State string `json:"state"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(10 * time.Second)
		for st.State != "done" {
			if time.Now().After(deadline) {
				t.Fatalf("job %s stuck in %q", st.ID, st.State)
			}
			time.Sleep(5 * time.Millisecond)
			r, err := http.Get(ts.URL + "/sweeps/" + st.ID)
			if err != nil {
				t.Fatal(err)
			}
			err = json.NewDecoder(r.Body).Decode(&st)
			r.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
		}
		return st.ID
	}
	a := submit(7)
	b := submit(8)

	var out strings.Builder
	if err := run(&out, config{reportdiff: true, server: ts.URL, diffArgs: []string{a, a}}); err != nil {
		t.Fatalf("self-diff flagged: %v", err)
	}
	if !strings.Contains(out.String(), "identical") {
		t.Fatalf("unexpected server diff output %q", out.String())
	}
	if err := run(&out, config{reportdiff: true, server: ts.URL, diffArgs: []string{a, b}}); err == nil ||
		!strings.Contains(err.Error(), "line") {
		t.Fatalf("cross-seed server diff: want a drift error locating the line, got %v", err)
	}
	if err := run(&out, config{reportdiff: true, server: ts.URL, diffArgs: []string{a}}); err == nil {
		t.Fatal("single-ID server diff accepted")
	}
	if err := run(&out, config{reportdiff: true, server: ts.URL, diffArgs: []string{a, "nope"}}); err == nil {
		t.Fatal("diff against an unknown job accepted")
	}
}

// TestRunAdvSearch drives the adversarial-search mode end to end in
// process: spec from disk, worst-per-(family,strategy) report lines,
// -freeze writing a loadable frozen workload, and -json carrying the
// full finding report.
func TestRunAdvSearch(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "adv.json")
	const body = `{"name":"t","families":[{"family":"hypercube","n":3}],"seeds":3,"iters":2,"trials":1,"seed":7}`
	if err := os.WriteFile(spec, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	freeze := filepath.Join(dir, "frozen")
	var b strings.Builder
	if err := run(&b, config{advsearch: spec, freeze: freeze}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"advsearch hypercube(k=3)", "strategy=greedy", "strategy=seeds", "strategy=structured", "within=true", "froze adv:hypercube:g8"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report %q lacks %q", out, want)
		}
	}
	// The frozen file loads back and prices as a workload.
	b.Reset()
	if err := run(&b, config{frozen: freeze, net: "hypercube", n: 3, workload: "adv:hypercube:g8", trials: 1, seed: 7}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "adv:hypercube:g8: rounds mean=") {
		t.Fatalf("frozen workload report %q", b.String())
	}
	// ...but refuses every other node count.
	if err := run(&b, config{frozen: freeze, net: "star", n: 4, workload: "adv:hypercube:g8", trials: 1}); err == nil ||
		!strings.Contains(err.Error(), "pinned to 8 nodes") {
		t.Fatalf("frozen workload on the wrong instance: %v", err)
	}
	b.Reset()
	if err := run(&b, config{advsearch: spec, jsonOut: true}); err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Findings []map[string]any `json:"findings"`
	}
	if err := json.Unmarshal([]byte(b.String()), &rep); err != nil {
		t.Fatalf("-json output unparseable: %v\n%s", err, b.String())
	}
	if len(rep.Findings) == 0 {
		t.Fatal("-json report carries no findings")
	}
	// Bad inputs fail loudly.
	if err := run(&b, config{advsearch: filepath.Join(dir, "absent.json")}); err == nil {
		t.Fatal("missing spec accepted")
	}
	if err := run(&b, config{frozen: filepath.Join(dir, "nope", "deeper")}); err == nil {
		// A missing -frozen directory is tolerated (zero files); only a
		// corrupt file errors. Write one and retry.
		bad := filepath.Join(dir, "badfrozen")
		if err := os.MkdirAll(bad, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(bad, "x.advperm"), []byte("garbage"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := run(&b, config{frozen: bad, list: true}); err == nil {
			t.Fatal("corrupt frozen directory accepted")
		}
	}
}

// TestRunAdvSearchJournaled pins the -out contract: the report and
// its .cells seed-sweep artifact land on disk, and a re-run resumes
// over the journal to the byte-identical report.
func TestRunAdvSearchJournaled(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "adv.json")
	const body = `{"name":"t","families":[{"family":"star","n":4}],"strategies":["seeds"],"seeds":3,"seed":7}`
	if err := os.WriteFile(spec, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "report.json")
	var b strings.Builder
	if err := run(&b, config{advsearch: spec, out: out}); err != nil {
		t.Fatal(err)
	}
	first, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(out + ".cells"); err != nil {
		t.Fatalf("seed-sweep artifact missing: %v", err)
	}
	if err := run(&b, config{advsearch: spec, out: out}); err != nil {
		t.Fatal(err)
	}
	second, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if string(first) != string(second) {
		t.Fatal("resumed advsearch report drifted")
	}
}

// TestRunAdvSweepMatchesExpectedArtifact is the adversarial
// regression gate's local twin: the checked-in frozen adversaries
// swept over sweeps/adv.json must reproduce the expected artifact
// byte for byte.
func TestRunAdvSweepMatchesExpectedArtifact(t *testing.T) {
	var b strings.Builder
	cfg := config{
		frozen: filepath.Join("..", "..", "sweeps", "adversarial"),
		sweep:  filepath.Join("..", "..", "sweeps", "adv.json"),
	}
	if err := run(&b, cfg); err != nil {
		t.Fatal(err)
	}
	expected := filepath.Join("..", "..", "sweeps", "expected", "adv.jsonl")
	want, err := os.ReadFile(expected)
	if err != nil {
		t.Fatal(err)
	}
	if b.String() != string(want) {
		t.Fatalf("adversarial sweep drifted from %s — a router change moved a frozen worst case; regenerate only if intentional", expected)
	}
}
