package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pramemu/internal/scenario"
	"pramemu/internal/sweepd"
)

// The smoke tests run each main path in-process on a tiny
// configuration and assert the report line comes out clean. Every
// test drives the command through argv, parsed by the same flag
// registration main uses, so flag defaults and bindings are under
// test too.

// runArgs parses args through the command's flag registration and
// runs the resulting invocation.
func runArgs(w io.Writer, args ...string) error {
	cfg, err := parseArgs(args...)
	if err != nil {
		return err
	}
	return run(w, cfg)
}

// parseArgs parses args on a fresh flag set that reports errors
// instead of exiting.
func parseArgs(args ...string) (config, error) {
	fs := flag.NewFlagSet("routebench", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return parse(fs, args)
}

// TestSingleRunMatchesSweepCell pins the single-run flag bindings: a
// route, mesh, erew and event single run each report the same metrics
// as the matching one-cell -sweep line.
func TestSingleRunMatchesSweepCell(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		spec string // topologies, workloads and the axes of one cell
	}{
		{"route", []string{"-net", "star", "-n", "4", "-workload", "relation"},
			`"topologies":[{"family":"star","n":4}],"workloads":[{"name":"relation","h":4,"d":8}]`},
		{"mesh", []string{"-net", "mesh", "-n", "8", "-alg", "greedy", "-disc", "fifo"},
			`"topologies":[{"family":"mesh","n":8}],"workloads":[{"name":"perm","h":8,"d":8}],"algorithm":"greedy","disciplines":["fifo"]`},
		{"local", []string{"-net", "torus", "-n", "4", "-k", "3", "-workload", "local", "-d", "2"},
			`"topologies":[{"family":"torus","n":4,"k":3}],"workloads":[{"name":"local","h":4,"d":2}]`},
		{"erew", []string{"-net", "shuffle", "-n", "3", "-mode", "erew"},
			`"topologies":[{"family":"shuffle","n":3}],"workloads":[{"name":"perm","h":3,"d":8}],"modes":["erew"]`},
		{"event", []string{"-net", "torus", "-n", "4", "-k", "3", "-engine", "event", "-latency", "jitter", "-jitter", "2",
			"-linkfail", "0.1", "-repair", "3", "-straggler", "0.2", "-stragglerx", "3", "-drop", "0.1", "-rto", "5"},
			`"topologies":[{"family":"torus","n":4,"k":3}],"workloads":[{"name":"perm","h":4,"d":8}],"engines":["event"],` +
				`"latency":{"model":"jitter","base":1,"jitter":2,"gap":1},` +
				`"faults":[{"link_failure":0.1,"repair_time":3,"straggler":0.2,"straggler_factor":3,"drop":0.1,"retransmit_after":5}]`},
	} {
		var single strings.Builder
		if err := runArgs(&single, append(tc.args, "-trials", "2", "-seed", "7", "-workers", "1", "-json")...); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var got result
		if err := json.Unmarshal([]byte(single.String()), &got); err != nil {
			t.Fatalf("%s: %v\n%s", tc.name, err, single.String())
		}
		path := filepath.Join(t.TempDir(), "cell.json")
		spec := `{` + tc.spec + `,"workers":[1],"trials":2,"seed":7}`
		if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
			t.Fatal(err)
		}
		var sweep strings.Builder
		if err := runArgs(&sweep, "-sweep", path); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		lines := strings.Split(strings.TrimSpace(sweep.String()), "\n")
		if len(lines) != 2 {
			t.Fatalf("%s: spec expanded to %d lines, want one cell and the trailer:\n%s", tc.name, len(lines), sweep.String())
		}
		var want result
		if err := json.Unmarshal([]byte(lines[0]), &want); err != nil {
			t.Fatalf("%s: %v\n%s", tc.name, err, lines[0])
		}
		// Single runs are timed and carry no scenario key; the sweep
		// line is untimed and keyed. Everything else must agree.
		got.ElapsedMS, got.RoundsPerSec = 0, 0
		want.Scenario = ""
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: single run and sweep cell differ:\n%+v\n%+v", tc.name, got, want)
		}
	}
}

// TestParseDefaults pins the flag defaults: a bare invocation prices
// star 5 permutations on the round engine, 5 trials at seed 1991, with
// the h-relation height max(2, n) and wall-clock timing on.
func TestParseDefaults(t *testing.T) {
	cfg, err := parseArgs()
	if err != nil {
		t.Fatal(err)
	}
	want := scenario.Cell{
		Topo:       scenario.TopoRef{Family: "star", N: 5},
		Work:       scenario.WorkRef{Name: "perm", H: 5, D: 8},
		Algorithm:  "threestage",
		Discipline: "furthest",
		Mode:       scenario.ModeRoute,
		Engine:     scenario.EngineRound,
		Latency:    scenario.LatencySpec{Model: "fixed", Base: 1, Gap: 1},
		Trials:     5,
		Seed:       1991,
		Timing:     true,
	}
	if !reflect.DeepEqual(cfg.cell, want) {
		t.Fatalf("default cell:\n%+v\nwant\n%+v", cfg.cell, want)
	}
	if cfg.jsonOut || cfg.list || cfg.sweep != "" || cfg.reportdiff || len(cfg.diffArgs) != 0 {
		t.Fatalf("bare invocation set a command switch: %+v", cfg)
	}
	// -n moves the h-relation height with it.
	if cfg, err = parseArgs("-n", "1"); err != nil || cfg.cell.Work.H != 2 {
		t.Fatalf("-n 1: h = %d (%v), want 2", cfg.cell.Work.H, err)
	}
	if cfg, err = parseArgs("-n", "7"); err != nil || cfg.cell.Work.H != 7 {
		t.Fatalf("-n 7: h = %d (%v), want 7", cfg.cell.Work.H, err)
	}
}

// docExamples returns the argv of every routebench invocation in
// README.md and in this command's doc comment, cut at the first shell
// redirection. A lone flag in prose (`routebench -sweep`) names the
// flag rather than invoking it, so it is skipped.
func docExamples(t *testing.T) [][]string {
	t.Helper()
	readme, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	doc, _, _ := strings.Cut(string(src), "\npackage main")
	var examples [][]string
	for _, line := range strings.Split(string(readme)+"\n"+doc, "\n") {
		for _, rest := range strings.Split(line, "routebench ")[1:] {
			rest, _, _ = strings.Cut(rest, "`")
			var args []string
			for _, f := range strings.Fields(rest) {
				if f == "<" || f == ">" || f == "|" {
					break
				}
				args = append(args, f)
			}
			if len(args) > 1 && strings.HasPrefix(args[0], "-") {
				examples = append(examples, args)
			}
		}
	}
	return examples
}

// TestDocExamplesParse parses every documented routebench invocation
// through the real flag set (parse only): a renamed or removed flag
// fails here before a reader trips on it.
func TestDocExamplesParse(t *testing.T) {
	examples := docExamples(t)
	if len(examples) < 30 {
		t.Fatalf("found only %d documented invocations; the extraction broke", len(examples))
	}
	for _, args := range examples {
		if _, err := parseArgs(args...); err != nil {
			t.Errorf("routebench %s: %v", strings.Join(args, " "), err)
		}
	}
	if _, err := parseArgs("-net", "star", "-bogus"); err == nil {
		t.Fatal("an undefined flag parsed")
	}
}

// TestRunSweepServerClient drives -sweep -server against an
// in-process sweepd: the streamed artifact matches a local run, -out
// publishes it atomically, and -report is refused before anything is
// submitted (the daemon serves result lines only).
func TestRunSweepServerClient(t *testing.T) {
	srv, err := sweepd.New(sweepd.Config{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var submits atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			submits.Add(1)
		}
		srv.ServeHTTP(w, r)
	}))
	defer ts.Close()

	dir := t.TempDir()
	path := filepath.Join(dir, "sweep.json")
	const spec = `{"name":"client","topologies":[{"family":"star","n":4}],"workloads":[{"name":"perm"}],"trials":1,"seed":7}`
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	var local, remote strings.Builder
	if err := runArgs(&local, "-sweep", path); err != nil {
		t.Fatal(err)
	}
	if err := runArgs(&remote, "-sweep", path, "-server", ts.URL); err != nil {
		t.Fatal(err)
	}
	if remote.String() != local.String() {
		t.Fatalf("served artifact differs from a local run:\n%s\nvs\n%s", remote.String(), local.String())
	}
	out := filepath.Join(dir, "artifact.jsonl")
	if err := runArgs(io.Discard, "-sweep", path, "-server", ts.URL, "-out", out); err != nil {
		t.Fatal(err)
	}
	if data, err := os.ReadFile(out); err != nil || string(data) != local.String() {
		t.Fatalf("-server -out artifact: %v\n%s", err, data)
	}
	if _, err := os.Stat(out + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("-server -out left its temporary file: %v", err)
	}
	before := submits.Load()
	if err := runArgs(io.Discard, "-sweep", path, "-server", ts.URL, "-report"); err == nil ||
		!strings.Contains(err.Error(), "-report") {
		t.Fatalf("-server -report: want a refusal naming -report, got %v", err)
	}
	if submits.Load() != before {
		t.Fatal("-server -report submitted the spec before refusing")
	}
}

func TestRunPointToPointSmoke(t *testing.T) {
	for _, net := range []string{"star", "shuffle", "butterfly", "hypercube", "pancake", "ttree", "debruijn"} {
		var b strings.Builder
		args := []string{"-net", net, "-n", "3", "-workload", "perm", "-trials", "1", "-seed", "7", "-workers", "2"}
		if err := runArgs(&b, args...); err != nil {
			t.Fatalf("%s: %v", net, err)
		}
		if !strings.Contains(b.String(), "rounds mean=") {
			t.Fatalf("%s: unexpected report %q", net, b.String())
		}
	}
}

func TestRunTorusSmoke(t *testing.T) {
	var b strings.Builder
	args := []string{"-net", "torus", "-n", "4", "-k", "3", "-workload", "perm", "-trials", "1", "-seed", "7", "-workers", "2"}
	if err := runArgs(&b, args...); err != nil {
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
	args := []string{"-net", "debruijn", "-n", "4", "-k", "2", "-workload", "perm", "-trials", "1", "-seed", "7", "-leveled"}
	if err := runArgs(&b, args...); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "debruijn-leveled") {
		t.Fatalf("unexpected report %q", b.String())
	}
	// ...and errors cleanly when it has none — including on the mesh,
	// which dispatches to its specialized router.
	if err := runArgs(&b, "-net", "torus", "-n", "4", "-workload", "perm", "-trials", "1", "-leveled"); err == nil {
		t.Fatal("leveled view of the torus accepted")
	}
	if err := runArgs(&b, "-net", "mesh", "-n", "8", "-workload", "perm", "-alg", "threestage", "-trials", "1", "-leveled"); err == nil {
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
	for _, args := range [][]string{
		{"-net", "debruijn", "-n", "32", "-k", "2", "-workload", "perm", "-trials", "1"},
		{"-net", "debruijn", "-n", "32", "-k", "2", "-workload", "perm", "-trials", "1", "-leveled"},
	} {
		var b strings.Builder
		err := runArgs(&b, args...)
		if err == nil {
			t.Fatalf("%q accepted", args)
		}
		if !strings.Contains(err.Error(), "bound") {
			t.Fatalf("unexpected error: %v", err)
		}
	}
}

func TestRunMeshSmoke(t *testing.T) {
	var b strings.Builder
	args := []string{"-net", "mesh", "-n", "8", "-workload", "perm", "-alg", "threestage", "-trials", "1", "-seed", "7"}
	if err := runArgs(&b, args...); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "mesh(8x8)") {
		t.Fatalf("unexpected report %q", b.String())
	}
}

func TestRunTransposeOnTorus(t *testing.T) {
	var b strings.Builder
	args := []string{"-net", "torus", "-n", "8", "-k", "2", "-workload", "transpose", "-trials", "1", "-seed", "7"}
	if err := runArgs(&b, args...); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "transpose") {
		t.Fatalf("unexpected report %q", b.String())
	}
	// Non-square node counts (5^3 = 125) reject the workload cleanly.
	if err := runArgs(&b, "-net", "torus", "-n", "5", "-k", "3", "-workload", "transpose", "-trials", "1"); err == nil {
		t.Fatal("transpose accepted on a non-square torus")
	}
}

func TestRunJSONOutput(t *testing.T) {
	var b strings.Builder
	args := []string{"-net", "star", "-n", "4", "-workload", "perm", "-trials", "2", "-seed", "7", "-json", "-workers", "2"}
	if err := runArgs(&b, args...); err != nil {
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
	args := []string{"-net", "mesh", "-n", "8", "-workload", "perm", "-alg", "threestage", "-trials", "1", "-seed", "7", "-json"}
	if err := runArgs(&b, args...); err != nil {
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
	if err := runArgs(&b, "-list"); err != nil {
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
		args []string
		want string
	}{
		{[]string{"-net", "star", "-n", "4", "-workload", "tornado", "-trials", "1"}, "coordinates"},
		{[]string{"-net", "star", "-n", "4", "-workload", "bitrev", "-trials", "1"}, "power-of-two"},
		{[]string{"-net", "torus", "-n", "5", "-k", "3", "-workload", "transpose", "-trials", "1"}, "square"},
		{[]string{"-net", "butterfly", "-n", "3", "-workload", "local", "-trials", "1"}, "graph"},
	} {
		err := runArgs(&b, tc.args...)
		if err == nil {
			t.Fatalf("%q accepted", tc.args)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%q: error %q does not name the missing capability %q", tc.args, err, tc.want)
		}
	}
}

// TestRunNewGeneratorsSmoke routes each newly registered generator on
// a compatible family through the single-run path.
func TestRunNewGeneratorsSmoke(t *testing.T) {
	for _, args := range [][]string{
		{"-net", "torus", "-n", "4", "-k", "2", "-workload", "tornado", "-trials", "1", "-seed", "7"},
		{"-net", "hypercube", "-n", "4", "-workload", "bitcomp", "-trials", "1", "-seed", "7"},
		{"-net", "star", "-n", "4", "-workload", "shift", "-trials", "1", "-seed", "7"},
		{"-net", "star", "-n", "4", "-workload", "khot", "-trials", "1", "-seed", "7", "-workers", "2"},
		{"-net", "debruijn", "-n", "3", "-k", "2", "-workload", "local", "-d", "2", "-trials", "1", "-seed", "7"},
		{"-net", "mesh", "-n", "8", "-workload", "khot", "-trials", "1", "-seed", "7"},
	} {
		var b strings.Builder
		if err := runArgs(&b, args...); err != nil {
			t.Fatalf("%q: %v", args, err)
		}
		if !strings.Contains(b.String(), "rounds mean=") {
			t.Fatalf("%q: unexpected report %q", args, b.String())
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
		if err := runArgs(&b, "-sweep", path); err != nil {
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
	if err := runArgs(&b, "-sweep", filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Fatal("missing sweep spec accepted")
	}

	// -out runs the same sweep through the journaled writer: the
	// published artifact is byte-identical to the streamed one, and no
	// .tmp or .journal intermediate survives the atomic finalize.
	outPath := filepath.Join(t.TempDir(), "artifact.jsonl")
	b.Reset()
	if err := runArgs(&b, "-sweep", path, "-out", outPath); err != nil {
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
	if err := runArgs(&b, "-sweep", path, "-out", outPath, "-report"); err == nil {
		t.Fatal("-out -report accepted")
	}
}

// TestRunEmulationMode drives -mode end to end: erew and crcw single
// runs print the step-cost line (and emit the extended JSON schema),
// and mode/workload mismatches error with the constraint named.
func TestRunEmulationMode(t *testing.T) {
	var b strings.Builder
	if err := runArgs(&b, "-net", "star", "-n", "4", "-workload", "perm", "-mode", "erew", "-trials", "2", "-seed", "7"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "mode=erew: step cost mean=") {
		t.Fatalf("unexpected emulation report %q", b.String())
	}
	b.Reset()
	if err := runArgs(&b, "-net", "star", "-n", "4", "-workload", "khot", "-mode", "crcw", "-trials", "2", "-seed", "7", "-json"); err != nil {
		t.Fatal(err)
	}
	var res result
	if err := json.Unmarshal([]byte(b.String()), &res); err != nil {
		t.Fatalf("emulation JSON malformed: %v\n%s", err, b.String())
	}
	if res.Mode != "crcw" || res.RoundsMean <= 0 || res.MaxModuleLoad <= 0 {
		t.Fatalf("unexpected emulation fields: %+v", res)
	}
	if err := runArgs(&b, "-net", "star", "-n", "4", "-workload", "khot", "-mode", "erew", "-trials", "1"); err == nil ||
		!strings.Contains(err.Error(), "crcw") {
		t.Fatalf("many-one erew run: want a crcw-gating error, got %v", err)
	}
	if err := runArgs(&b, "-net", "star", "-n", "4", "-workload", "relation", "-mode", "crcw", "-trials", "1"); err == nil ||
		!strings.Contains(err.Error(), "single-step") {
		t.Fatalf("relation crcw run: want a single-step error, got %v", err)
	}
	if err := runArgs(&b, "-net", "star", "-n", "4", "-workload", "perm", "-mode", "quantum", "-trials", "1"); err == nil {
		t.Fatal("unknown mode accepted")
	}
}

// TestRunSweepEmulSpec runs the checked-in sweeps/emul.json (the CI
// perf-smoke artifact): deterministic output, every line parseable,
// erew and crcw cells present.
func TestRunSweepEmulSpec(t *testing.T) {
	out := func() string {
		var b strings.Builder
		if err := runArgs(&b, "-sweep", filepath.Join("..", "..", "sweeps", "emul.json")); err != nil {
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
	if err := runArgs(&b, "-sweep", path, "-report"); err != nil {
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
	args := []string{"-net", "star", "-n", "4", "-workload", "perm", "-trials", "2", "-seed", "7", "-engine", "event", "-latency", "jitter", "-base", "1", "-jitter", "2", "-gap", "1", "-drop", "0.2", "-rto", "4"}
	if err := runArgs(&b, args...); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "engine=event") || !strings.Contains(b.String(), "retransmits=") {
		t.Fatalf("unexpected event report %q", b.String())
	}
	b.Reset()
	if err := runArgs(&b, append(args, "-json")...); err != nil {
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
	if err := runArgs(&b, "-net", "star", "-n", "4", "-workload", "perm", "-trials", "1", "-engine", "quantum"); err == nil {
		t.Fatal("unknown engine accepted")
	}
	if err := runArgs(&b, "-net", "star", "-n", "4", "-workload", "perm", "-trials", "1", "-engine", "event", "-latency", "fixed", "-base", "1", "-gap", "1", "-drop", "1"); err == nil || !strings.Contains(err.Error(), "drop") {
		t.Fatalf("drop=1 run: want a drop-probability error, got %v", err)
	}
	// The event engine prices raw routing only; combining it with a
	// PRAM emulation mode is rejected, not silently ignored.
	if err := runArgs(&b, "-net", "star", "-n", "4", "-workload", "perm", "-trials", "1", "-mode", "erew", "-engine", "event", "-latency", "fixed", "-base", "1", "-gap", "1"); err == nil || !strings.Contains(err.Error(), "synchronous rounds") {
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
	if err := runArgs(&out, "-reportdiff", a, b); err != nil {
		t.Fatalf("identical artifacts flagged: %v", err)
	}
	if !strings.Contains(out.String(), "identical") {
		t.Fatalf("unexpected reportdiff output %q", out.String())
	}
	err := runArgs(&out, "-reportdiff", a, c)
	if err == nil {
		t.Fatal("drifting artifacts accepted")
	}
	if !strings.Contains(err.Error(), "line 1") {
		t.Fatalf("drift error does not locate the line: %v", err)
	}
	if err := runArgs(&out, "-reportdiff", a, truncated); err == nil ||
		!strings.Contains(err.Error(), "trailer") {
		t.Fatalf("trailer-less artifact: want a loud truncation error, got %v", err)
	}
	if err := runArgs(&out, "-reportdiff", a); err == nil {
		t.Fatal("single-artifact reportdiff accepted")
	}
	if err := runArgs(&out, "-reportdiff", a, filepath.Join(dir, "absent.jsonl")); err == nil {
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
	if err := runArgs(&b, "-sweep", path, "-report"); err != nil {
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
		if err := runArgs(&b, "-sweep", spec); err != nil {
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
	if err := runArgs(&b, "-net", "moebius"); err == nil {
		t.Fatal("unknown network accepted")
	}
	if err := runArgs(&b, "-net", "mesh", "-n", "8", "-alg", "magic"); err == nil {
		t.Fatal("unknown mesh algorithm accepted")
	}
	if err := runArgs(&b, "-net", "star", "-n", "3", "-workload", "nope", "-trials", "1", "-alg", "threestage"); err == nil {
		t.Fatal("unknown workload accepted")
	}
	if err := runArgs(&b, "-net", "ttree", "-n", "5", "-k", "9", "-workload", "perm", "-trials", "1"); err == nil {
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
	args := []string{"-net", "star", "-n", "4", "-workload", "perm", "-trials", "2", "-seed", "7", "-cpuprofile", cpu, "-memprofile", mem}
	if err := runArgs(&b, args...); err != nil {
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
	if err := runArgs(&b, "-net", "star", "-n", "3", "-workload", "perm", "-trials", "1", "-cpuprofile", filepath.Join(dir, "no", "such", "dir.pprof")); err == nil {
		t.Fatal("unwritable cpuprofile path accepted")
	}
}

// starPagedBudget steps star n=4 (24 nodes × 3 links) at one worker
// from flat tables (72 × 16 B) down to paged ones (one 8 B page
// directory entry).
const starPagedBudget = 64

// TestRunHashedMatchesDense pins the link-state A/B knob: a -membudget
// that lands paged and a one-byte one (which falls through to the
// hashed fallback) must report the same rounds as the dense default on
// a fixed seed.
func TestRunHashedMatchesDense(t *testing.T) {
	out := func(memBudget int64) string {
		var b strings.Builder
		args := []string{"-net", "star", "-n", "4", "-workload", "perm", "-trials", "2", "-seed", "7", "-workers", "1", "-membudget", fmt.Sprint(memBudget)}
		if err := runArgs(&b, args...); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	dense := out(0)
	if hashed := out(1); dense != hashed {
		t.Fatalf("dense and hashed reports differ:\n%s%s", dense, hashed)
	}
	if paged := out(starPagedBudget); dense != paged {
		t.Fatalf("dense and paged reports differ:\n%s%s", dense, paged)
	}
}

// TestRunMemStatsFlags drives the -memstats/-membudget pair through
// the testable core: the memory line names the resolved state, the
// JSON object carries the pricing fields, and a budget steps down the
// flat → paged → hashed ladder instead of erroring.
func TestRunMemStatsFlags(t *testing.T) {
	var b strings.Builder
	args := []string{"-net", "star", "-n", "4", "-workload", "perm", "-trials", "1", "-seed", "7", "-workers", "1", "-memstats"}
	if err := runArgs(&b, args...); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "memory: state=dense table=") {
		t.Fatalf("missing dense memory line in %q", b.String())
	}
	b.Reset()
	// The directory fits, the flat table does not.
	if err := runArgs(&b, append(args, "-membudget", fmt.Sprint(starPagedBudget))...); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "memory: state=paged") || !strings.Contains(b.String(), "degraded(over budget)") {
		t.Fatalf("missing degraded paged memory line in %q", b.String())
	}
	b.Reset()
	// No table fits one byte: degrade, don't error.
	if err := runArgs(&b, append(args, "-membudget", "1")...); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "state=hashed degraded(over budget)") {
		t.Fatalf("missing degraded memory line in %q", b.String())
	}
	b.Reset()
	jargs := []string{"-net", "star", "-n", "4", "-workload", "perm", "-trials", "1", "-seed", "7", "-workers", "1", "-membudget", fmt.Sprint(starPagedBudget), "-json"}
	if err := runArgs(&b, jargs...); err != nil {
		t.Fatal(err)
	}
	var res result
	if err := json.Unmarshal([]byte(b.String()), &res); err != nil {
		t.Fatalf("memstats JSON malformed: %v\n%s", err, b.String())
	}
	if res.State != "paged" || !res.Degraded || res.TableBytes <= 0 || res.ArenaBytes <= 0 || res.BPerNode <= 0 {
		t.Fatalf("unexpected memory fields: %+v", res)
	}
	// Event cells price time, not table memory: the line says so
	// instead of reporting zeroes as a footprint.
	b.Reset()
	eargs := []string{"-net", "star", "-n", "4", "-workload", "perm", "-trials", "1", "-seed", "7", "-memstats", "-engine", "event", "-latency", "fixed", "-base", "1", "-gap", "1"}
	if err := runArgs(&b, eargs...); err != nil {
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
	if err := runArgs(&out, "-reportdiff", "-server", ts.URL, a, a); err != nil {
		t.Fatalf("self-diff flagged: %v", err)
	}
	if !strings.Contains(out.String(), "identical") {
		t.Fatalf("unexpected server diff output %q", out.String())
	}
	if err := runArgs(&out, "-reportdiff", "-server", ts.URL, a, b); err == nil ||
		!strings.Contains(err.Error(), "line") {
		t.Fatalf("cross-seed server diff: want a drift error locating the line, got %v", err)
	}
	if err := runArgs(&out, "-reportdiff", "-server", ts.URL, a); err == nil {
		t.Fatal("single-ID server diff accepted")
	}
	if err := runArgs(&out, "-reportdiff", "-server", ts.URL, a, "nope"); err == nil {
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
	if err := runArgs(&b, "-advsearch", spec, "-freeze", freeze); err != nil {
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
	if err := runArgs(&b, "-frozen", freeze, "-net", "hypercube", "-n", "3", "-workload", "adv:hypercube:g8", "-trials", "1", "-seed", "7"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "adv:hypercube:g8: rounds mean=") {
		t.Fatalf("frozen workload report %q", b.String())
	}
	// ...but refuses every other node count.
	if err := runArgs(&b, "-frozen", freeze, "-net", "star", "-n", "4", "-workload", "adv:hypercube:g8", "-trials", "1"); err == nil ||
		!strings.Contains(err.Error(), "pinned to 8 nodes") {
		t.Fatalf("frozen workload on the wrong instance: %v", err)
	}
	b.Reset()
	if err := runArgs(&b, "-advsearch", spec, "-json"); err != nil {
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
	if err := runArgs(&b, "-advsearch", filepath.Join(dir, "absent.json")); err == nil {
		t.Fatal("missing spec accepted")
	}
	if err := runArgs(&b, "-frozen", filepath.Join(dir, "nope", "deeper")); err == nil {
		// A missing -frozen directory is tolerated (zero files); only a
		// corrupt file errors. Write one and retry.
		bad := filepath.Join(dir, "badfrozen")
		if err := os.MkdirAll(bad, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(bad, "x.advperm"), []byte("garbage"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := runArgs(&b, "-frozen", bad, "-list"); err == nil {
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
	if err := runArgs(&b, "-advsearch", spec, "-out", out); err != nil {
		t.Fatal(err)
	}
	first, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(out + ".cells"); err != nil {
		t.Fatalf("seed-sweep artifact missing: %v", err)
	}
	if err := runArgs(&b, "-advsearch", spec, "-out", out); err != nil {
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
	args := []string{"-frozen", filepath.Join("..", "..", "sweeps", "adversarial"), "-sweep", filepath.Join("..", "..", "sweeps", "adv.json")}
	if err := runArgs(&b, args...); err != nil {
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
