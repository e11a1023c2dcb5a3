// The fault-tolerance contract of the sweep pipeline: a poisoned cell
// costs one structured error line (never the sweep), FailFast turns
// the first failure into a grid-wide cancel, malformed specs fail
// naming the offending field, per-cell timeouts classify as transient,
// and the journaled runner resumes an interrupted sweep to a
// byte-identical artifact. TestSweep* names keep these under the race
// detector in CI.
package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pramemu/internal/packet"
	"pramemu/internal/topology"
	_ "pramemu/internal/topology/families"
	"pramemu/internal/workload"
)

// The test-only generators: boom panics inside the cell (a
// planted routing bug), test-sleepy stalls long enough for any
// millisecond-scale deadline to expire before handing over a real
// permutation, so timeout cells are deterministic, not racy.
func init() {
	perm, ok := workload.Lookup("perm")
	if !ok {
		panic("robust_test: perm workload missing")
	}
	workload.Register(workload.Generator{
		Name:  "boom",
		Class: workload.ClassPermutation,
		Generate: func(b topology.Built, p workload.Params, a *packet.Arena, seed uint64) ([]*packet.Packet, error) {
			panic("poisoned cell")
		},
	})
	workload.Register(workload.Generator{
		Name:  "test-sleepy",
		Class: workload.ClassPermutation,
		Generate: func(b topology.Built, p workload.Params, a *packet.Arena, seed uint64) ([]*packet.Packet, error) {
			time.Sleep(100 * time.Millisecond)
			return perm.Generate(b, p, a, seed)
		},
	})
}

// TestSweepPanicIsolation is the poisoned-cell regression: with
// FailFast off (the default), a cell that panics yields one error
// line with the panic kind and message, and every other cell's line
// still lands — the sweep completes with an AggregateError, not a
// crash.
func TestSweepPanicIsolation(t *testing.T) {
	spec := Spec{
		Name: "poisoned",
		Topologies: []TopoRef{
			{Family: "star", N: 4},
			{Family: "mesh", N: 4},
		},
		Workloads: []WorkRef{{Name: "boom"}, {Name: "perm"}},
		Trials:    1,
		Seed:      7,
		Pool:      2,
	}
	results, err := Run(spec)
	var agg *AggregateError
	if !errors.As(err, &agg) {
		t.Fatalf("want *AggregateError, got %v", err)
	}
	if agg.Failed != 2 || agg.Total != 4 {
		t.Fatalf("want 2 of 4 cells failed, got %d of %d", agg.Failed, agg.Total)
	}
	if len(results) != 4 {
		t.Fatalf("want all 4 lines (2 errors + 2 results), got %d", len(results))
	}
	healthy, failed := 0, 0
	for _, r := range results {
		if r.Failed() {
			failed++
			if r.ErrorKind != ErrKindPanic {
				t.Errorf("%s: want error_kind %q, got %q", r.Scenario, ErrKindPanic, r.ErrorKind)
			}
			if !strings.Contains(r.Error, "poisoned cell") {
				t.Errorf("%s: error %q lost the panic message", r.Scenario, r.Error)
			}
			if r.Workload != "boom" || r.Family == "" {
				t.Errorf("error line lost its identifying axes: %+v", r)
			}
		} else {
			healthy++
			if r.RoundsMean <= 0 {
				t.Errorf("%s: healthy cell has no metrics: %+v", r.Scenario, r)
			}
		}
	}
	if healthy != 2 || failed != 2 {
		t.Fatalf("want 2 healthy + 2 failed lines, got %d + %d", healthy, failed)
	}
}

// TestSweepFailFast pins the FailFast contract: the first failure
// cancels the rest of the grid, so the artifact holds the error line
// and only the cells that finished before the cancel — while the
// default keeps going (TestSweepPanicIsolation).
func TestSweepFailFast(t *testing.T) {
	spec := Spec{
		Name:       "failfast",
		Topologies: []TopoRef{{Family: "star", N: 4}},
		// Expansion order puts the poison cell first; Pool 1 makes the
		// cancellation deterministic: the perm cell never starts.
		Workloads: []WorkRef{{Name: "boom"}, {Name: "perm"}},
		Trials:    1,
		Seed:      7,
		Pool:      1,
		FailFast:  true,
	}
	results, err := Run(spec)
	var agg *AggregateError
	if !errors.As(err, &agg) {
		t.Fatalf("want *AggregateError, got %v", err)
	}
	if len(results) != 1 || results[0].ErrorKind != ErrKindPanic {
		t.Fatalf("want exactly the poison error line, got %d lines: %+v", len(results), results)
	}
}

// TestSweepSpecValidation is the malformed-spec property: every bad
// axis value comes back as a *SpecError naming the offending spec
// field — never a panic, never a bare error the caller cannot route.
func TestSweepSpecValidation(t *testing.T) {
	base := func() Spec {
		return Spec{
			Topologies: []TopoRef{{Family: "star", N: 4}},
			Workloads:  []WorkRef{{Name: "perm"}},
			Trials:     1,
		}
	}
	cases := map[string]struct {
		mutate func(*Spec)
		field  string
	}{
		"no topologies":       {func(s *Spec) { s.Topologies = nil }, "topologies"},
		"unknown family":      {func(s *Spec) { s.Topologies = []TopoRef{{Family: "klein", N: 4}} }, "topologies"},
		"no workloads":        {func(s *Spec) { s.Workloads = nil }, "workloads"},
		"unknown workload":    {func(s *Spec) { s.Workloads = []WorkRef{{Name: "nope"}} }, "workloads"},
		"bad fraction":        {func(s *Spec) { s.Workloads = []WorkRef{{Name: "khot", Fraction: 2}} }, "workloads"},
		"negative trials":     {func(s *Spec) { s.Trials = -1 }, "trials"},
		"negative timeout":    {func(s *Spec) { s.TimeoutMS = -5 }, "timeout_ms"},
		"unknown algorithm":   {func(s *Spec) { s.Algorithm = "quantum" }, "algorithm"},
		"unknown disc":        {func(s *Spec) { s.Disciplines = []string{"lifo"} }, "disciplines"},
		"unknown mode":        {func(s *Spec) { s.Modes = []string{"qrqw"} }, "modes"},
		"unknown engine":      {func(s *Spec) { s.Engines = []string{"quantum"} }, "engines"},
		"bad latency":         {func(s *Spec) { s.Latency = &LatencySpec{Model: "warp"} }, "latency"},
		"bad fault knob":      {func(s *Spec) { s.Faults = []FaultSpec{{Drop: 2}} }, "faults"},
		"duplicate faults":    {func(s *Spec) { s.Faults = []FaultSpec{{}, {}} }, "faults"},
		"duplicate workers":   {func(s *Spec) { s.Workers = []int{1, 1} }, "cells"},
		"duplicate topology":  {func(s *Spec) { s.Topologies = append(s.Topologies, s.Topologies[0]) }, "cells"},
		"mode beside modes":   {func(s *Spec) { s.Mode, s.Modes = ModeEREW, []string{ModeEREW} }, "cells"},
		"route spelled twice": {func(s *Spec) { s.Modes = []string{ModeRoute, ""} }, "cells"},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			spec := base()
			tc.mutate(&spec)
			_, err := Run(spec)
			var serr *SpecError
			if !errors.As(err, &serr) {
				t.Fatalf("want *SpecError, got %v", err)
			}
			if serr.Field != tc.field {
				t.Fatalf("want field %q, got %q (%v)", tc.field, serr.Field, err)
			}
			if !strings.Contains(err.Error(), tc.field) {
				t.Fatalf("message %q does not name field %q", err.Error(), tc.field)
			}
		})
	}
}

// TestSweepCellTimeout pins the per-cell deadline: a stalling cell is
// cut off with the transient timeout kind (so journals re-run it),
// and a pre-canceled context classifies as canceled, not timeout.
func TestSweepCellTimeout(t *testing.T) {
	cell := Cell{
		Topo:    TopoRef{Family: "star", N: 4},
		Work:    WorkRef{Name: "test-sleepy"},
		Trials:  1,
		Seed:    7,
		Timeout: 5 * time.Millisecond,
	}
	r := RunCellSafe(context.Background(), cell)
	if r.ErrorKind != ErrKindTimeout {
		t.Fatalf("want error_kind %q, got %q (%q)", ErrKindTimeout, r.ErrorKind, r.Error)
	}
	if !transientKind(r.ErrorKind) {
		t.Fatal("timeout must be transient: journals re-run those cells")
	}
	if r.Scenario == "" {
		t.Fatal("timeout line lost its scenario key")
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cell.Timeout = 0
	r = RunCellSafe(ctx, Cell{Topo: cell.Topo, Work: WorkRef{Name: "perm"}, Trials: 1, Seed: 7})
	if r.ErrorKind != ErrKindCanceled {
		t.Fatalf("want error_kind %q, got %q (%q)", ErrKindCanceled, r.ErrorKind, r.Error)
	}
}

// journalSpec is the grid of the resume tests: two routers, one
// workload, deterministic seeds.
func journalSpec() Spec {
	return Spec{
		Name: "journal-test",
		Topologies: []TopoRef{
			{Family: "star", N: 4},
			{Family: "mesh", N: 4},
		},
		Workloads: []WorkRef{{Name: "perm"}},
		Trials:    2,
		Seed:      7,
		Pool:      1,
	}
}

// TestSweepJournalResume is the crash-recovery acceptance property: a
// sweep resumed from a journal holding some completed cells produces
// an artifact byte-identical to the uninterrupted run, the journal is
// removed on finalize, and the resumed run actually skips the
// journaled cells instead of re-pricing them.
func TestSweepJournalResume(t *testing.T) {
	dir := t.TempDir()
	spec := journalSpec()
	hash, err := SpecHash(spec)
	if err != nil {
		t.Fatal(err)
	}

	full := filepath.Join(dir, "full.jsonl")
	if _, err := RunJournaled(context.Background(), spec, full, JournalOptions{}); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyTrailer(bytes.NewReader(want)); err != nil {
		t.Fatalf("uninterrupted artifact fails its own trailer check: %v", err)
	}
	if _, err := os.Stat(full + ".journal"); !os.IsNotExist(err) {
		t.Fatal("journal survived finalize")
	}
	lines := strings.Split(strings.TrimSpace(string(want)), "\n")
	firstLine := lines[0]

	// Simulate the crash: a journal holding the header and the first
	// completed cell. The resumed artifact must be byte-identical.
	resumed := filepath.Join(dir, "resumed.jsonl")
	writeJournal(t, resumed+".journal", hash, firstLine)
	if _, err := RunJournaled(context.Background(), spec, resumed, JournalOptions{}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(resumed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed artifact drifted from the uninterrupted run:\n--- want\n%s--- got\n%s", want, got)
	}

	// Prove the skip: plant a sentinel metric in the journaled line —
	// if the cell re-ran, routing would overwrite it.
	var sentinel Result
	if err := json.Unmarshal([]byte(firstLine), &sentinel); err != nil {
		t.Fatal(err)
	}
	sentinel.RoundsMean = 999999
	sb, err := json.Marshal(sentinel)
	if err != nil {
		t.Fatal(err)
	}
	marked := filepath.Join(dir, "marked.jsonl")
	writeJournal(t, marked+".journal", hash, string(sb))
	if _, err := RunJournaled(context.Background(), spec, marked, JournalOptions{}); err != nil {
		t.Fatal(err)
	}
	mb, err := os.ReadFile(marked)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(mb), "999999") {
		t.Fatal("journaled cell was re-run: sentinel metric overwritten")
	}

	// A journal from a different spec hash is stale: the resume starts
	// over and still converges on the same bytes.
	stale := filepath.Join(dir, "stale.jsonl")
	writeJournal(t, stale+".journal", "feedfacefeedfacefeedfacefeedface", firstLine)
	if _, err := RunJournaled(context.Background(), spec, stale, JournalOptions{}); err != nil {
		t.Fatal(err)
	}
	gb, err := os.ReadFile(stale)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gb, want) {
		t.Fatal("stale-journal run drifted from the uninterrupted artifact")
	}
}

// writeJournal fabricates an interrupted run's sidecar: the header
// line for the given spec hash plus the provided completed-cell lines.
func writeJournal(t *testing.T, path, hash string, lines ...string) {
	t.Helper()
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(journalHeader{Report: journalReport, SpecHash: hash}); err != nil {
		t.Fatal(err)
	}
	for _, l := range lines {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestSweepJournalCancelKeepsCheckpoint pins the shutdown contract: a
// canceled journaled run publishes no artifact and leaves the journal
// on disk — the checkpoint the next run resumes from.
func TestSweepJournalCancelKeepsCheckpoint(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "out.jsonl")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunJournaled(ctx, journalSpec(), out, JournalOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Fatal("canceled run published an artifact")
	}
	if _, err := os.Stat(out + ".journal"); err != nil {
		t.Fatalf("canceled run lost its checkpoint journal: %v", err)
	}
	// The next run over the same path resumes and finalizes.
	if _, err := RunJournaled(context.Background(), journalSpec(), out, JournalOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(out); err != nil {
		t.Fatalf("resumed run published no artifact: %v", err)
	}
}

// TestSweepJournalRetriesTransient pins the retry loop: timed-out
// cells re-run with exponential backoff, and when every retry pass
// still times out the artifact finalizes with the timeout error line
// on record.
func TestSweepJournalRetriesTransient(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "out.jsonl")
	spec := Spec{
		Name:       "retry-test",
		Topologies: []TopoRef{{Family: "star", N: 4}},
		Workloads:  []WorkRef{{Name: "test-sleepy"}},
		Trials:     1,
		Seed:       7,
		Pool:       1,
		TimeoutMS:  5,
	}
	var slept []time.Duration
	results, err := RunJournaled(context.Background(), spec, out, JournalOptions{
		Retries: 2,
		Backoff: time.Millisecond,
		Sleep:   func(d time.Duration) { slept = append(slept, d) },
	})
	var agg *AggregateError
	if !errors.As(err, &agg) {
		t.Fatalf("want *AggregateError after exhausted retries, got %v", err)
	}
	if len(slept) != 2 || slept[0] != time.Millisecond || slept[1] != 2*time.Millisecond {
		t.Fatalf("want backoff [1ms 2ms], got %v", slept)
	}
	if len(results) != 1 || results[0].ErrorKind != ErrKindTimeout {
		t.Fatalf("want one timeout line, got %+v", results)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := VerifyTrailer(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Cells != 1 || tr.Errors != 1 {
		t.Fatalf("want trailer cells=1 errors=1, got %+v", tr)
	}
}

// FuzzReadResults hardens the artifact reader against truncated and
// garbage JSONL: whatever the bytes, ReadResults and VerifyTrailer
// return values or errors — they never panic.
func FuzzReadResults(f *testing.F) {
	f.Add([]byte(`{"scenario":"a","rounds_mean":1}` + "\n"))
	f.Add([]byte(`{"report":"trailer","cells":1}` + "\n"))
	f.Add([]byte(`{"report":"rows","scenario":"a"}` + "\n"))
	f.Add([]byte(`{"scenario":"a","rounds_me`))
	f.Add([]byte("not json at all\n"))
	f.Add([]byte("{\n"))
	f.Add([]byte(""))
	f.Add([]byte(`{"scenario":"a"}` + "\n" + `{"report":"trailer","cells":1}` + "\n" + `{"scenario":"late"}` + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		results, err := ReadResults(bytes.NewReader(data))
		if err == nil {
			for _, r := range results {
				_ = r.Failed()
			}
		}
		_, _ = VerifyTrailer(bytes.NewReader(data))
	})
}

// TestSweepWriteFileAtomic pins the one atomic publisher every
// artifact, report and persisted spec goes through: a good write
// replaces the file whole, and a failing write keeps the previous
// contents and leaves no temporary file behind.
func TestSweepWriteFileAtomic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "artifact.jsonl")
	write := func(body string, fail error) error {
		return WriteFileAtomic(path, func(w io.Writer) error {
			if _, err := io.WriteString(w, body); err != nil {
				return err
			}
			return fail
		})
	}
	if err := write("first\n", nil); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	if err := write("partial", boom); !errors.Is(err, boom) {
		t.Fatalf("failing write: got %v, want %v", err, boom)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "first\n" {
		t.Fatalf("failed write clobbered the published file: %q", got)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("failed write left its temporary file: %v", err)
	}
	if err := write("second\n", nil); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "second\n" {
		t.Fatalf("second write not published: %q", got)
	}
	// An unwritable directory errors without creating anything.
	if err := WriteFileAtomic(filepath.Join(t.TempDir(), "no", "dir"), func(io.Writer) error { return nil }); err == nil {
		t.Fatal("write into a missing directory accepted")
	}
}
