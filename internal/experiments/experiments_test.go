package experiments

import (
	"hash/fnv"
	"strconv"
	"strings"
	"testing"
)

func quick() Options { return Options{Quick: true, Trials: 2, Seed: 7} }

// tableDigests pins every table of the index at quick(): an FNV-1a
// digest of the rendered bytes, so a drift in any cell of any table
// fails here by experiment id.
var tableDigests = map[string]uint64{
	"E1":  0xdee6f1a2ae8f2faa,
	"E2":  0x9f80472d922e9339,
	"E3":  0xb2126738c88a423c,
	"E4":  0xca41733f50ea937a,
	"E5":  0xf750ad6b4fa7bd9c,
	"E6":  0xac2805524813ac64,
	"E7":  0x93f85df46b67180e,
	"E8":  0xae79214aeb115c5f,
	"E9":  0x625f365cfea13e61,
	"E10": 0x2ccaafc71c0f2273,
	"E11": 0x3f9864a6cf5ae815,
	"E12": 0x4b04128bf49ae9f2,
	"E14": 0x77ebfad0286e9765,
	"E16": 0x9ae768f702c0a22e,
	"E17": 0xc5a9c74a093b2973,
	"E18": 0x705222de64729419,
	"E19": 0x4e2f2e6cd1888920,
	"E20": 0x703e29773a221d9d,
	"E21": 0xeb7647c39b142f32,
}

// maskedColumns lists, per experiment, the columns that read the wall
// clock or the heap rather than the simulation: E20's build(ms),
// sweep(ms) and KB/cell vary run to run, so the digest skips them.
var maskedColumns = map[string][]int{"E20": {5, 6, 7}}

// tableDigest hashes a rendered table. Lines of a table with masked
// columns are hashed field by field, the masked fields replaced, so
// their varying widths do not move the digest either.
func tableDigest(id, rendered string) uint64 {
	h := fnv.New64a()
	mask := maskedColumns[id]
	for i, line := range strings.SplitAfter(rendered, "\n") {
		if len(mask) > 0 && i > 0 { // the title line is not columnar
			f := strings.Fields(line)
			for _, c := range mask {
				if c < len(f) {
					f[c] = "*"
				}
			}
			line = strings.Join(f, " ") + "\n"
		}
		h.Write([]byte(line))
	}
	return h.Sum64()
}

// quickTables holds each experiment's rendered quick() table by id,
// so the digest test and the shape checks below share one run per
// experiment (the tests run sequentially, so a plain map suffices).
var quickTables = map[string]string{}

// quickTable returns the rendered quick() table of experiment id,
// running it on first use. It skips in -short mode.
func quickTable(t *testing.T, id string) string {
	t.Helper()
	if testing.Short() {
		t.Skip("experiment sweep in -short mode")
	}
	if rendered, ok := quickTables[id]; ok {
		return rendered
	}
	for _, e := range Index {
		if e.ID == id {
			quickTables[id] = e.Run(quick()).String()
			return quickTables[id]
		}
	}
	t.Fatalf("no experiment %s in the index", id)
	return ""
}

// TestTableDigests runs every experiment of the index once at quick()
// and checks its rendered table against the pinned digest.
func TestTableDigests(t *testing.T) {
	if len(tableDigests) != len(Index) {
		t.Errorf("%d pinned digests for %d experiments", len(tableDigests), len(Index))
	}
	for _, e := range Index {
		t.Run(e.ID, func(t *testing.T) {
			rendered := quickTable(t, e.ID)
			if got, want := tableDigest(e.ID, rendered), tableDigests[e.ID]; got != want {
				t.Errorf("digest %#x, want %#x:\n%s", got, want, rendered)
			}
		})
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
	tb := quickTable(t, "E7")
	lines := dataLines(tb)
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
	tb := quickTable(t, "E8")
	lines := dataLines(tb)
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
	tb := quickTable(t, "E12")
	lines := dataLines(tb)
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
	tb := quickTable(t, "E18")
	lines := dataLines(tb)
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
// rung the budgeted row resolves paged and reproduces the dense row's
// routing columns
// exactly (rounds, rounds/diam, maxQ — the engine's bit-identity
// invariant surfacing in the table), every row reports a resolved
// state with a positive footprint, and both rungs of both families
// appear.
func TestE19PagedMatchesDense(t *testing.T) {
	tb := quickTable(t, "E19")
	lines := dataLines(tb)
	// columns: family network N budget(B) state diam rounds(mean)
	// rounds/diam table(B) arena(B) B/node maxQ
	type rowKey struct{ network, budget string }
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
	for key, budgeted := range rows {
		if key.budget == "-" {
			continue
		}
		abPairs++
		if budgeted[4] != "paged" {
			t.Fatalf("budgeted row resolved to %q, want paged: %v", budgeted[4], budgeted)
		}
		dense, ok := rows[rowKey{key.network, "-"}]
		if !ok {
			t.Fatalf("budgeted row %s has no unbudgeted twin", key.network)
		}
		if dense[4] != "dense" {
			t.Fatalf("unbudgeted A/B row resolved to %q, want dense: %v", dense[4], dense)
		}
		for _, col := range []int{6, 7, 11} { // rounds(mean), rounds/diam, maxQ
			if budgeted[col] != dense[col] {
				t.Fatalf("%s: paged column %d diverged from dense: %q vs %q",
					key.network, col, budgeted[col], dense[col])
			}
		}
	}
	if abPairs != 2 {
		t.Fatalf("expected 2 A/B rungs (debruijn, torus), got %d:\n%s", abPairs, tb)
	}
}

func TestE11NoRehashOnHealthyNetworks(t *testing.T) {
	tb := quickTable(t, "E11")
	lines := dataLines(tb)
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
	tb := quickTable(t, "E21")
	lines := dataLines(tb)
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
