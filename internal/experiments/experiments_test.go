package experiments

import (
	"strconv"
	"strings"
	"testing"
)

func quick() Options { return Options{Quick: true, Trials: 2, Seed: 7} }

func TestAllExperimentsProduceRows(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep in -short mode")
	}
	if len(Index) != 19 {
		t.Fatalf("expected 19 experiments, got %d", len(Index))
	}
	for _, e := range Index {
		tb := e.Run(quick())
		if tb.Rows() == 0 {
			t.Fatalf("experiment %s produced no rows:\n%s", e.ID, tb)
		}
		if !strings.Contains(tb.String(), e.ID) {
			t.Fatalf("experiment %s lacks its id in the title", e.ID)
		}
	}
}

// lastFloat extracts the float in the given column of the last row of
// a rendered table — crude but sufficient for shape assertions.
func cellFloat(t *testing.T, line string, col int) float64 {
	fields := strings.Fields(line)
	if col >= len(fields) {
		t.Fatalf("line %q has %d fields", line, len(fields))
	}
	v, err := strconv.ParseFloat(fields[col], 64)
	if err != nil {
		t.Fatalf("parse %q: %v", fields[col], err)
	}
	return v
}

func dataLines(s string) []string {
	var out []string
	for _, line := range strings.Split(s, "\n") {
		trimmed := strings.TrimSpace(line)
		if trimmed == "" || strings.HasPrefix(trimmed, "-") {
			continue
		}
		out = append(out, trimmed)
	}
	// Drop title and header.
	return out[2:]
}

func TestE7ThreeStageBeatsValiantBrebner(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep in -short mode")
	}
	tb := E7MeshRouting(quick())
	lines := dataLines(tb.String())
	// Rows alternate three-stage / valiant-brebner per n; compare the
	// rounds/n column (index 5 after splitting: n N alg mean max
	// rounds/n maxQ — "three-stage" is one field).
	for i := 0; i+1 < len(lines); i += 2 {
		three := cellFloat(t, lines[i], 5)
		vb := cellFloat(t, lines[i+1], 5)
		if three >= vb {
			t.Fatalf("three-stage %.2f not below valiant-brebner %.2f\n%s", three, vb, tb)
		}
	}
}

func TestE8TwoPhaseBeatsKU(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep in -short mode")
	}
	tb := E8MeshEmulation(quick())
	lines := dataLines(tb.String())
	for i := 0; i+1 < len(lines); i += 2 {
		// columns: n scheme... cost(mean) cost(max) cost/n; scheme
		// names contain spaces, so index from the end.
		f1 := strings.Fields(lines[i])
		f2 := strings.Fields(lines[i+1])
		two, err1 := strconv.ParseFloat(f1[len(f1)-1], 64)
		ku, err2 := strconv.ParseFloat(f2[len(f2)-1], 64)
		if err1 != nil || err2 != nil {
			t.Fatalf("parse failure on:\n%s", tb)
		}
		if two >= ku {
			t.Fatalf("two-phase %.2f not below KU %.2f\n%s", two, ku, tb)
		}
	}
}

func TestE12SortingMuchSlower(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep in -short mode")
	}
	tb := E12SortVsRoute(quick())
	lines := dataLines(tb.String())
	for _, line := range lines {
		f := strings.Fields(line)
		ratio, err := strconv.ParseFloat(f[len(f)-1], 64)
		if err != nil {
			t.Fatalf("parse %q: %v", line, err)
		}
		if ratio < 2 {
			t.Fatalf("sorting/routing ratio %.2f below 2\n%s", ratio, tb)
		}
	}
}

// TestE18EventRowsCoverEveryFamily pins E18's shape: every family in
// the registry appears with both a synchronous baseline row and
// event-mode rows at each fault level, the fault-free event rows stay
// retransmit-free, and the harsh rows record retransmits somewhere.
func TestE18EventRowsCoverEveryFamily(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep in -short mode")
	}
	tb := E18AsynchronyMatrix(quick())
	lines := dataLines(tb.String())
	families := map[string]map[string]bool{}
	harshRetransmits := 0
	for _, line := range lines {
		f := strings.Fields(line)
		// columns: family workload engine fault N diam delivered(mean)
		// delivered/diam retransmits maxQ
		family, eng, fault := f[0], f[2], f[3]
		if families[family] == nil {
			families[family] = map[string]bool{}
		}
		families[family][eng+"/"+fault] = true
		retr, err := strconv.Atoi(f[len(f)-2])
		if err != nil {
			t.Fatalf("parse %q: %v", line, err)
		}
		if eng == "event" && fault == "none" && retr != 0 {
			t.Fatalf("fault-free event row records retransmits:\n%s", line)
		}
		if eng == "round" && retr != 0 {
			t.Fatalf("synchronous row records retransmits:\n%s", line)
		}
		if fault == "harsh" {
			harshRetransmits += retr
		}
	}
	for family, cells := range families {
		for _, want := range []string{"round/-", "event/none", "event/moderate", "event/harsh"} {
			if !cells[want] {
				t.Fatalf("family %s lacks the %s cell: %v", family, want, cells)
			}
		}
	}
	if harshRetransmits == 0 {
		t.Fatal("harsh fault level (15% drop) recorded no retransmits anywhere")
	}
}

// TestE19PagedMatchesDense pins E19's defining property: on every A/B
// rung the forced-paged row reproduces the dense row's routing columns
// exactly (rounds, rounds/diam, maxQ — the engine's bit-identity
// invariant surfacing in the table), every row reports a resolved
// state with a positive footprint, and both rungs of both families
// appear.
func TestE19PagedMatchesDense(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep in -short mode")
	}
	tb := E19ScaleCeiling(quick())
	lines := dataLines(tb.String())
	// columns: family network N tables state diam rounds(mean)
	// rounds/diam table(B) arena(B) B/node maxQ
	type rowKey struct{ network, tables string }
	rows := map[rowKey][]string{}
	for _, line := range lines {
		f := strings.Fields(line)
		if len(f) != 12 {
			t.Fatalf("row has %d fields, want 12: %q", len(f), line)
		}
		if f[4] != "dense" && f[4] != "paged" && f[4] != "hashed" {
			t.Fatalf("unresolved state %q in row %q", f[4], line)
		}
		for _, col := range []int{8, 9, 10} { // table(B), arena(B), B/node
			if v := cellFloat(t, line, col); v <= 0 {
				t.Fatalf("non-positive footprint column %d in row %q", col, line)
			}
		}
		rows[rowKey{f[1], f[3]}] = f
	}
	abPairs := 0
	for key, forced := range rows {
		if key.tables != "forced-paged" {
			continue
		}
		abPairs++
		if forced[4] != "paged" {
			t.Fatalf("forced-paged row resolved to %q: %v", forced[4], forced)
		}
		auto, ok := rows[rowKey{key.network, "auto"}]
		if !ok {
			t.Fatalf("forced-paged row %s has no auto twin", key.network)
		}
		for _, col := range []int{6, 7, 11} { // rounds(mean), rounds/diam, maxQ
			if forced[col] != auto[col] {
				t.Fatalf("%s: paged column %d diverged from dense: %q vs %q",
					key.network, col, forced[col], auto[col])
			}
		}
	}
	if abPairs != 2 {
		t.Fatalf("expected 2 A/B rungs (debruijn, torus), got %d:\n%s", abPairs, tb)
	}
}

func TestE11NoRehashOnHealthyNetworks(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep in -short mode")
	}
	tb := E11Rehash(quick())
	lines := dataLines(tb.String())
	for _, line := range lines {
		if !strings.Contains(line, "healthy") {
			continue
		}
		f := strings.Fields(line)
		// columns: name... threshold steps rehashes bits
		rehashes, err := strconv.Atoi(f[len(f)-2])
		if err != nil {
			t.Fatalf("parse %q: %v", line, err)
		}
		if rehashes != 0 {
			t.Fatalf("healthy network rehashed %d times:\n%s", rehashes, tb)
		}
	}
}

// TestE21CoversEveryFamilyAndStrategy pins E21's shape: every family
// in the registry contributes one worst row per search strategy, the
// bound column is consistent with the diameter, and the structured
// adversaries never lose to the seed sweep's mean — they exist to be
// worse than random.
func TestE21CoversEveryFamilyAndStrategy(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep in -short mode")
	}
	tb := E21AdversarialBounds(quick())
	lines := dataLines(tb.String())
	families := map[string]map[string]bool{}
	for _, line := range lines {
		// columns: family N diam strategy input rounds(worst)
		// rounds/diam bound within maxQ
		f := strings.Fields(line)
		if len(f) != 10 {
			t.Fatalf("row has %d fields, want 10: %q", len(f), line)
		}
		family, strategy := f[0], f[3]
		if families[family] == nil {
			families[family] = map[string]bool{}
		}
		families[family][strategy] = true
		diam := cellFloat(t, line, 2)
		bound := cellFloat(t, line, 7)
		rounds := cellFloat(t, line, 5)
		if bound != 16*diam {
			t.Fatalf("bound %v != 16×diam %v in row %q", bound, diam, line)
		}
		if within := f[8] == "true"; within != (rounds <= bound) {
			t.Fatalf("within column %q contradicts rounds %v vs bound %v", f[8], rounds, bound)
		}
	}
	if len(families) != 9 {
		t.Fatalf("expected all 9 families, got %d:\n%s", len(families), tb)
	}
	for family, strategies := range families {
		for _, want := range []string{"seeds", "structured", "greedy"} {
			if !strategies[want] {
				t.Fatalf("family %s lacks the %s strategy row: %v", family, want, strategies)
			}
		}
	}
}
