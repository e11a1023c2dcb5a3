// The sweep runner's contract: pool-width independence (a parallel
// sweep's JSONL is line-for-line identical to a sequential one),
// engine-worker equivalence along the workers axis, capability gating
// with errors that name the missing capability, and spec parsing.
// TestSweep* runs under the race detector in CI, so the runner's pool
// is race-checked over every axis it exercises.
package scenario

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	_ "pramemu/internal/topology/families"
)

// testSpec is a small grid crossing the mesh router, the generic
// direct router, the leveled view and a many-one combining workload.
func testSpec() Spec {
	return Spec{
		Name: "test",
		Topologies: []TopoRef{
			{Family: "star", N: 4},
			{Family: "torus", N: 4, K: 2},
			{Family: "mesh", N: 4},
			{Family: "butterfly", N: 3},
		},
		Workloads: []WorkRef{
			{Name: "perm"},
			{Name: "khot", Hot: 2},
		},
		Disciplines: []string{"furthest", "fifo"},
		Workers:     []int{1, 4},
		Trials:      2,
		Seed:        7,
		Pool:        1,
	}
}

// emulSpec crosses the emulation-mode axis (route, erew, crcw) with
// the skip-phase-1 ablation axis over the three router kinds (generic
// direct, specialized mesh, leveled-only), so the pool-width property
// covers every dispatch path the mode axis can take.
func emulSpec() Spec {
	return Spec{
		Name: "emul-test",
		Topologies: []TopoRef{
			{Family: "star", N: 4},
			{Family: "mesh", N: 4},
			{Family: "butterfly", N: 3},
		},
		Workloads: []WorkRef{
			{Name: "perm"},
			{Name: "khot", Hot: 2},
		},
		Modes:            []string{"route", "erew", "crcw"},
		SkipPhase1:       []bool{false, true},
		Workers:          []int{1, 4},
		Trials:           1,
		Seed:             7,
		Pool:             1,
		SkipIncompatible: true,
	}
}

// eventSpec crosses the engine axis (round, event) with a jittered
// latency model and a two-level fault axis over the three router
// kinds, so the pool-width property covers the event engine's
// dispatch paths too.
func eventSpec() Spec {
	return Spec{
		Name: "event-test",
		Topologies: []TopoRef{
			{Family: "star", N: 4},
			{Family: "mesh", N: 4},
			{Family: "butterfly", N: 3},
		},
		Workloads: []WorkRef{
			{Name: "perm"},
			{Name: "khot", Hot: 2},
		},
		Engines: []string{EngineRound, EngineEvent},
		Latency: &LatencySpec{Model: "jitter", Jitter: 2},
		Faults: []FaultSpec{
			{},
			{Name: "faulty", LinkFailure: 0.1, Straggler: 0.2, Drop: 0.1},
		},
		Workers: []int{1, 4},
		Trials:  1,
		Seed:    7,
		Pool:    1,
	}
}

func mustRun(t *testing.T, spec Spec) []Result {
	t.Helper()
	results, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	return results
}

func jsonl(t *testing.T, results []Result) string {
	t.Helper()
	var b bytes.Buffer
	if err := WriteJSONL(&b, results); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestSweepPoolWidthIndependence is the acceptance property: the
// JSONL of a Pool=4 sweep is byte-identical to the sequential Pool=1
// sweep with the same seed — over the routing grid and over the
// emulation-mode and ablation axes alike.
func TestSweepPoolWidthIndependence(t *testing.T) {
	for name, spec := range map[string]Spec{"route": testSpec(), "emul": emulSpec(), "event": eventSpec()} {
		seq := spec
		par := spec
		par.Pool = 4
		a, b := jsonl(t, mustRun(t, seq)), jsonl(t, mustRun(t, par))
		if a != b {
			t.Fatalf("%s: parallel sweep diverged from sequential:\n--- pool=1\n%s--- pool=4\n%s", name, a, b)
		}
		if a != jsonl(t, mustRun(t, seq)) {
			t.Fatalf("%s: repeated sweep not deterministic", name)
		}
	}
}

// TestSweepEventGrid pins the engine axis's expansion and results:
// round cells ride fault-free exactly once, event cells expand the
// fault axis, the workers axis is vacuously identical on event cells
// (the loop is sequential whatever the knob says), and the faulty
// level's drop probability records retransmits somewhere.
func TestSweepEventGrid(t *testing.T) {
	results := mustRun(t, eventSpec())
	byKey := make(map[string]Result)
	faults := map[string]int{}
	faultyRetransmits := 0
	for _, r := range results {
		if r.Engine == "" {
			if r.Fault != "" || r.Retransmits != 0 {
				t.Fatalf("round cell carries event fields: %+v", r)
			}
		} else {
			faults[r.Fault]++
			if !strings.Contains(r.Scenario, "/eng=event/lat=jitter,b1,j2,g1") {
				t.Fatalf("event key lacks the latency segment: %q", r.Scenario)
			}
			if r.Fault == "faulty" {
				faultyRetransmits += r.Retransmits
			}
			if r.RoundsMean <= 0 {
				t.Fatalf("degenerate event cell: %+v", r)
			}
		}
		key := strings.TrimSuffix(strings.TrimSuffix(r.Scenario, "/w=1"), "/w=4")
		if prev, seen := byKey[key]; seen {
			prevCmp, cmp := prev, r
			prevCmp.Workers, cmp.Workers, prevCmp.Scenario, cmp.Scenario = 0, 0, "", ""
			if !reflect.DeepEqual(prevCmp, cmp) {
				t.Fatalf("workers axis diverged for %s:\n%+v\n%+v", key, prev, r)
			}
			continue
		}
		byKey[key] = r
	}
	// Two fault levels expand on event cells only, and each carries the
	// same number of cells; "none" is the zero level's label.
	if len(faults) != 2 || faults["none"] == 0 || faults["none"] != faults["faulty"] {
		t.Fatalf("unexpected fault-level mix: %v", faults)
	}
	if faultyRetransmits == 0 {
		t.Fatal("the faulty level (10% drop) recorded no retransmits anywhere")
	}
	if len(byKey)*2 != len(results) {
		t.Fatalf("%d results for %d worker-collapsed keys", len(results), len(byKey))
	}
}

// TestSweepWorkersAxisEquivalent pins the engine guarantee end to
// end: cells differing only in round-engine workers report identical
// routing statistics.
func TestSweepWorkersAxisEquivalent(t *testing.T) {
	results := mustRun(t, testSpec())
	byKey := make(map[string]Result)
	for _, r := range results {
		key := strings.TrimSuffix(r.Scenario, "/w=1")
		key = strings.TrimSuffix(key, "/w=4")
		prev, seen := byKey[key]
		if !seen {
			byKey[key] = r
			continue
		}
		if prev.RoundsMean != r.RoundsMean || prev.RoundsMax != r.RoundsMax || prev.MaxQueue != r.MaxQueue {
			t.Fatalf("workers axis diverged for %s:\n%+v\n%+v", key, prev, r)
		}
	}
	if len(byKey)*2 != len(results) {
		t.Fatalf("%d results for %d worker-collapsed keys", len(results), len(byKey))
	}
}

// TestSweepPagedAxisAndBudget pins the paged-table axis and the
// memory-budget path end to end: paged twins reproduce the flat-dense
// rounds bit-identically under "/pagedkeys" keys and record
// state=paged, and an impossible budget degrades every cell to the
// hashed fallback — same rounds, Degraded recorded, and the
// "/state=hashed" key suffix marking the demotion in the artifact.
func TestSweepPagedAxisAndBudget(t *testing.T) {
	spec := Spec{
		Name: "paged-test",
		// The three router kinds: generic direct, specialized mesh,
		// leveled-only.
		Topologies: []TopoRef{
			{Family: "star", N: 4},
			{Family: "mesh", N: 4},
			{Family: "butterfly", N: 3},
		},
		Workloads: []WorkRef{{Name: "perm"}},
		Paged:     []bool{false, true},
		Workers:   []int{1, 4},
		Trials:    1,
		Seed:      7,
	}
	results := mustRun(t, spec)
	// 2 paged values x 3 topologies x 2 workers.
	if len(results) != 12 {
		t.Fatalf("grid expanded to %d cells, want 12", len(results))
	}
	byKey := make(map[string]Result, len(results))
	for _, r := range results {
		byKey[r.Scenario] = r
		if r.TableBytes <= 0 || r.ArenaBytes <= 0 || r.BPerNode <= 0 {
			t.Fatalf("cell missing memory pricing: %+v", r)
		}
		if r.Degraded {
			t.Fatalf("unbudgeted cell reports degradation: %+v", r)
		}
	}
	pagedCells := 0
	for key, r := range byKey {
		if !strings.Contains(key, "/pagedkeys") {
			continue
		}
		pagedCells++
		if r.State != "paged" || !r.Paged {
			t.Fatalf("%s resolved state %q", key, r.State)
		}
		flat := byKey[strings.Replace(key, "/pagedkeys", "", 1)]
		if flat.State != "dense" {
			t.Fatalf("flat twin of %s resolved %q", key, flat.State)
		}
		if r.RoundsMean != flat.RoundsMean || r.RoundsMax != flat.RoundsMax || r.MaxQueue != flat.MaxQueue {
			t.Fatalf("paged twin diverged from flat for %s:\n%+v\n%+v", key, r, flat)
		}
	}
	if pagedCells != 6 {
		t.Fatalf("%d paged cells, want 6", pagedCells)
	}
	// One byte of budget fits no table: every cell degrades to the
	// hashed fallback with identical rounds and a marked key.
	spec.Paged = nil
	spec.MemBudget = 1
	for _, r := range mustRun(t, spec) {
		if r.State != "hashed" || !r.Degraded {
			t.Fatalf("budgeted cell did not degrade: %+v", r)
		}
		if !strings.HasSuffix(r.Scenario, "/state=hashed") {
			t.Fatalf("degraded cell key lacks the state suffix: %q", r.Scenario)
		}
		if !strings.Contains(r.Scenario, "/mem=1/") {
			t.Fatalf("budgeted cell key lacks the budget segment: %q", r.Scenario)
		}
		base := strings.TrimSuffix(r.Scenario, "/state=hashed")
		base = strings.Replace(base, "/mem=1", "", 1)
		flat, ok := byKey[base]
		if !ok {
			t.Fatalf("no unbudgeted twin for %q", r.Scenario)
		}
		if r.RoundsMean != flat.RoundsMean || r.RoundsMax != flat.RoundsMax || r.MaxQueue != flat.MaxQueue {
			t.Fatalf("degraded cell diverged from its dense twin:\n%+v\n%+v", r, flat)
		}
	}
}

// TestSweepGridShape checks the discipline axis expands only on
// mesh-routed cells and many-one traffic leaves the mesh's
// specialized router for the generic one.
func TestSweepGridShape(t *testing.T) {
	results := mustRun(t, testSpec())
	// star/torus/butterfly: 2 workloads x 2 workers = 4 cells each;
	// mesh: perm expands 2 disciplines x 2 workers, khot collapses to
	// 2 workers = 6 cells.
	if len(results) != 3*4+6 {
		t.Fatalf("grid expanded to %d cells, want 18", len(results))
	}
	for _, r := range results {
		switch {
		case r.Family == "mesh" && r.Workload == "perm":
			if r.View != "mesh(§3.4)" || r.Discipline == "" || r.Algorithm == "" {
				t.Fatalf("mesh perm cell missing router metadata: %+v", r)
			}
		case r.Family == "mesh":
			if r.View != "direct(2.2)" || r.Discipline != "" {
				t.Fatalf("mesh many-one cell should route generically: %+v", r)
			}
		case r.Family == "butterfly":
			if r.View != "leveled(2.1)" {
				t.Fatalf("butterfly cell should route on its unrolling: %+v", r)
			}
		default:
			if r.View != "direct(2.2)" {
				t.Fatalf("%s cell should route directly: %+v", r.Family, r)
			}
		}
		if r.RoundsMean <= 0 || r.RoundsMax <= 0 || r.Trials != 2 {
			t.Fatalf("degenerate result: %+v", r)
		}
		if r.ElapsedMS != 0 || r.RoundsPerSec != 0 {
			t.Fatalf("sweep result carries wall-clock fields: %+v", r)
		}
	}
}

// TestSweepEmulGridShape pins the emulation axis's dispatch and axis
// collapsing: erew cells carry only permutation-class traffic, the
// specialized §3.3 scheme serves erew on the mesh while crcw routes
// generically there, and the skip-phase-1 axis collapses on the
// specialized mesh router.
func TestSweepEmulGridShape(t *testing.T) {
	results := mustRun(t, emulSpec())
	byKey := make(map[string]Result, len(results))
	emulCells := 0
	for _, r := range results {
		byKey[r.Scenario] = r
		switch r.Mode {
		case "":
			if r.Merges != 0 || r.Rehashes != 0 || r.MaxModuleLoad != 0 {
				t.Fatalf("route cell carries emulation fields: %+v", r)
			}
			continue
		case "erew", "crcw":
			emulCells++
		default:
			t.Fatalf("unexpected mode: %+v", r)
		}
		if r.Mode == "erew" && r.Workload != "perm" {
			t.Fatalf("erew cell carries non-permutation traffic: %+v", r)
		}
		switch {
		case r.Family == "mesh" && r.Mode == "erew":
			if r.View != "mesh(§3.3)" || r.Discipline == "" {
				t.Fatalf("mesh erew cell should use the §3.3 scheme: %+v", r)
			}
			if r.SkipPhase1 {
				t.Fatalf("skip-phase-1 axis should collapse on the §3.3 scheme: %+v", r)
			}
		case r.Family == "mesh":
			if r.View != "direct(2.2)" {
				t.Fatalf("mesh crcw cell should route generically: %+v", r)
			}
		case r.Family == "butterfly":
			if r.View != "leveled(2.1)" {
				t.Fatalf("butterfly emulation should use the unrolling: %+v", r)
			}
		default:
			if r.View != "direct(2.2)" {
				t.Fatalf("%s emulation should route directly: %+v", r.Family, r)
			}
		}
		if r.RoundsMean <= 0 || r.RoundsPerDiam <= 0 {
			t.Fatalf("degenerate emulation cell: %+v", r)
		}
	}
	if emulCells == 0 {
		t.Fatal("spec expanded no emulation cells")
	}
	// khot only survives on crcw cells; combining must fire somewhere.
	merges := 0
	for _, r := range byKey {
		if r.Workload == "khot" && r.Mode == "crcw" {
			merges += r.Merges
		}
	}
	if merges == 0 {
		t.Fatal("no crcw cell recorded a combining merge")
	}
}

// TestSweepModeGating: mode/workload mismatches fail the sweep with
// the constraint named, unless SkipIncompatible drops them.
func TestSweepModeGating(t *testing.T) {
	spec := Spec{
		Topologies: []TopoRef{{Family: "star", N: 4}},
		Workloads:  []WorkRef{{Name: "khot"}},
		Modes:      []string{"erew"},
		Trials:     1, Seed: 7, Pool: 1,
	}
	if _, err := Run(spec); err == nil || !strings.Contains(err.Error(), "crcw") {
		t.Fatalf("many-one erew cell: want a crcw-gating error, got %v", err)
	}
	spec.Workloads = []WorkRef{{Name: "relation"}}
	spec.Modes = []string{"crcw"}
	if _, err := Run(spec); err == nil || !strings.Contains(err.Error(), "single-step") {
		t.Fatalf("relation crcw cell: want a single-step error, got %v", err)
	}
	spec.Workloads = []WorkRef{{Name: "relation"}, {Name: "perm"}}
	spec.SkipIncompatible = true
	results := mustRun(t, spec)
	if len(results) != 1 || results[0].Workload != "perm" || results[0].Mode != "crcw" {
		t.Fatalf("SkipIncompatible should keep only the perm crcw cell: %+v", results)
	}
}

// TestSweepCapabilityGate: incompatible pairs fail the sweep with the
// missing capability named, unless SkipIncompatible drops them.
func TestSweepCapabilityGate(t *testing.T) {
	spec := Spec{
		Topologies: []TopoRef{{Family: "star", N: 4}},
		Workloads:  []WorkRef{{Name: "tornado"}},
		Trials:     1, Seed: 7, Pool: 1,
	}
	if _, err := Run(spec); err == nil || !strings.Contains(err.Error(), "coordinates") {
		t.Fatalf("tornado on star: want a coordinates-capability error, got %v", err)
	}
	spec.Workloads = []WorkRef{{Name: "local"}}
	spec.Topologies = []TopoRef{{Family: "butterfly", N: 3}}
	if _, err := Run(spec); err == nil || !strings.Contains(err.Error(), "graph") {
		t.Fatalf("local on butterfly: want a graph-view error, got %v", err)
	}
	spec.SkipIncompatible = true
	spec.Topologies = append(spec.Topologies, TopoRef{Family: "mesh", N: 4})
	results := mustRun(t, spec)
	if len(results) != 1 || results[0].Family != "mesh" {
		t.Fatalf("SkipIncompatible should keep only the mesh cell: %+v", results)
	}
}

// TestSweepRejectsBadAxes: unknown names fail before any routing.
func TestSweepRejectsBadAxes(t *testing.T) {
	base := testSpec()
	for _, mutate := range []func(*Spec){
		func(s *Spec) { s.Topologies = []TopoRef{{Family: "moebius"}} },
		func(s *Spec) { s.Workloads = []WorkRef{{Name: "nope"}} },
		func(s *Spec) { s.Workloads = []WorkRef{{Name: "hotspot", Fraction: 1.5}} },
		func(s *Spec) { s.Disciplines = []string{"magic"} },
		func(s *Spec) { s.Algorithm = "magic" },
		func(s *Spec) { s.Modes = []string{"quantum"} },
		func(s *Spec) { s.Mode = "quantum"; s.SkipIncompatible = true },
		func(s *Spec) { s.Topologies = nil },
		func(s *Spec) { s.Workloads = nil },
		func(s *Spec) { s.Topologies = []TopoRef{{Family: "torus", N: 4, K: 2, Leveled: true}} },
	} {
		spec := base
		mutate(&spec)
		if _, err := Run(spec); err == nil {
			t.Fatalf("invalid spec accepted: %+v", spec)
		}
	}
}

// TestReadSpec: JSON round-trip and unknown-field rejection.
func TestReadSpec(t *testing.T) {
	spec, err := ReadSpec(strings.NewReader(`{
		"name": "smoke",
		"topologies": [{"family": "star", "n": 4}],
		"workloads": [{"name": "perm"}, {"name": "khot", "hot": 2}],
		"workers": [1, 2],
		"trials": 2,
		"seed": 99
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Name != "smoke" || len(spec.Topologies) != 1 || len(spec.Workloads) != 2 ||
		spec.Seed != 99 || len(spec.Workers) != 2 {
		t.Fatalf("spec mis-parsed: %+v", spec)
	}
	if _, err := ReadSpec(strings.NewReader(`{"topologiez": []}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
	// The retired hashed link-state axis is an unknown field now, not a
	// silently ignored one (a one-byte mem_budget reaches that layout).
	if _, err := ReadSpec(strings.NewReader(`{
		"topologies": [{"family": "star", "n": 4}],
		"workloads": [{"name": "perm"}],
		"hashed": [true]
	}`)); err == nil || !strings.Contains(err.Error(), "hashed") {
		t.Fatalf("spec with a hashed axis: want an unknown-field error, got %v", err)
	}
	// The singular "mode" shorthand folds into the Modes axis.
	spec, err = ReadSpec(strings.NewReader(`{
		"topologies": [{"family": "star", "n": 4}],
		"workloads": [{"name": "perm"}],
		"mode": "crcw"
	}`))
	if err != nil {
		t.Fatal(err)
	}
	results, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].Mode != "crcw" {
		t.Fatalf(`"mode": "crcw" should expand one crcw cell: %+v`, results)
	}
}

// TestRunCellMatchesSweepLine: a single RunCell with a cell's exact
// parameters reproduces the corresponding sweep line (minus the
// wall-clock fields), so routebench invocations and sweep rows agree.
func TestRunCellMatchesSweepLine(t *testing.T) {
	spec := testSpec()
	results := mustRun(t, spec)
	probe := results[0]
	for _, r := range results {
		if r.Family == "torus" && r.Workload == "perm" && r.Workers == 1 {
			probe = r
			break
		}
	}
	res, err := RunCell(Cell{
		Topo:    TopoRef{Family: "torus", N: 4, K: 2},
		Work:    WorkRef{Name: "perm"},
		Workers: 1, Trials: spec.Trials, Seed: spec.Seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	res.Scenario = probe.Scenario
	if !reflect.DeepEqual(res, probe) {
		t.Fatalf("single cell diverged from sweep line:\n%+v\n%+v", res, probe)
	}
}
