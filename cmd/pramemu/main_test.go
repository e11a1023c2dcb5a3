package main

import (
	"flag"
	"fmt"
	"io"
	"strings"
	"testing"

	"pramemu/internal/scenario"
)

// The smoke tests run the command's core in-process on tiny networks
// and algorithms, asserting the report prints and errors are clean.
// They drive it through argv, parsed by the flag registration main
// uses.

// runArgs parses args through the command's flag registration and
// runs the resulting invocation.
func runArgs(w io.Writer, args ...string) error {
	fs := flag.NewFlagSet("pramemu", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	cfg, err := parse(fs, args)
	if err != nil {
		return err
	}
	return run(w, cfg)
}

func TestRunPrefixSumOnStar(t *testing.T) {
	var b strings.Builder
	if err := runArgs(&b, "-alg", "prefixsum", "-net", "star", "-n", "4", "-seed", "7", "-workers", "2"); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"algorithm    : prefixsum", "star", "PRAM steps", "rehashes"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

func TestRunIdealMachine(t *testing.T) {
	var b strings.Builder
	if err := runArgs(&b, "-alg", "broadcast", "-net", "ideal", "-n", "5", "-seed", "7", "-workers", "1"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "ideal PRAM") {
		t.Fatalf("unexpected report:\n%s", b.String())
	}
}

func TestRunCombiningOnCRCW(t *testing.T) {
	var b strings.Builder
	if err := runArgs(&b, "-alg", "maxcrcw", "-net", "shuffle", "-n", "3", "-seed", "7", "-combine", "-workers", "2"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "per step") {
		t.Fatalf("unexpected report:\n%s", b.String())
	}
}

// TestRunNewFamilies drives the registry payoff end to end: the four
// families added with the unified topology layer emulate PRAM
// programs with no pramemu-side changes, under a parallel engine.
func TestRunNewFamilies(t *testing.T) {
	for _, cfg := range []struct {
		net, n, k string
	}{
		{"pancake", "4", "0"},  // 24 nodes
		{"ttree", "4", "1"},    // 24 nodes, binary tree
		{"torus", "4", "2"},    // 16 nodes
		{"debruijn", "4", "2"}, // 16 nodes
	} {
		var b strings.Builder
		if err := runArgs(&b, "-alg", "prefixsum", "-net", cfg.net, "-n", cfg.n, "-k", cfg.k, "-seed", "7", "-workers", "2"); err != nil {
			t.Fatalf("%s: %v", cfg.net, err)
		}
		if !strings.Contains(b.String(), cfg.net) {
			t.Fatalf("%s: report does not name the network:\n%s", cfg.net, b.String())
		}
	}
}

// TestRunStepMatchesSweepCell pins the -step refactor: pramemu's
// single-step pricing runs on scenario.RunCell — the same path a
// `routebench -sweep` spec with a mode axis takes — so its printed
// numbers reproduce the equivalent sweep cell exactly.
func TestRunStepMatchesSweepCell(t *testing.T) {
	for _, mode := range []string{scenario.ModeEREW, scenario.ModeCRCW} {
		results, err := scenario.Run(scenario.Spec{
			Topologies: []scenario.TopoRef{{Family: "star", N: 4, Leveled: true}},
			Workloads:  []scenario.WorkRef{{Name: "perm"}},
			Modes:      []string{mode},
			Workers:    []int{1},
			Trials:     2,
			Seed:       9,
			Pool:       1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(results) != 1 {
			t.Fatalf("sweep expanded to %d cells, want 1", len(results))
		}
		r := results[0]
		var b strings.Builder
		if err := runArgs(&b, "-step", "perm", "-net", "star", "-n", "4", "-mode", mode, "-trials", "2", "-seed", "9", "-workers", "1"); err != nil {
			t.Fatal(err)
		}
		out := b.String()
		for _, want := range []string{
			fmt.Sprintf("network      : %s (%d processors, diameter %d, view %s)", r.Topology, r.Nodes, r.Diameter, r.View),
			fmt.Sprintf("step cost    : mean=%.1f max=%d (%.2f x diameter)", r.RoundsMean, r.RoundsMax, r.RoundsPerDiam),
			fmt.Sprintf("merges       : %d", r.Merges),
			fmt.Sprintf("max queue    : %d", r.MaxQueue),
		} {
			if !strings.Contains(out, want) {
				t.Fatalf("mode %s: step report missing %q:\n%s", mode, want, out)
			}
		}
	}
}

// TestRunStepRejectsBadModes: mode/workload mismatches come back as
// errors naming the constraint, not as degenerate runs.
func TestRunStepRejectsBadModes(t *testing.T) {
	var b strings.Builder
	if err := runArgs(&b, "-step", "khot", "-net", "star", "-n", "4", "-mode", "erew", "-trials", "1"); err == nil ||
		!strings.Contains(err.Error(), "crcw") {
		t.Fatalf("many-one erew step: want a crcw-gating error, got %v", err)
	}
	if err := runArgs(&b, "-step", "perm", "-net", "star", "-n", "4", "-mode", "quantum", "-trials", "1"); err == nil ||
		!strings.Contains(err.Error(), "unknown mode") {
		t.Fatalf("unknown mode: want an unknown-mode error, got %v", err)
	}
}

func TestRunRejectsUnknowns(t *testing.T) {
	var b strings.Builder
	if err := runArgs(&b, "-alg", "prefixsum", "-net", "moebius", "-n", "4", "-seed", "7", "-workers", "1"); err == nil {
		t.Fatal("unknown network accepted")
	}
	if err := runArgs(&b, "-alg", "quantum", "-net", "star", "-n", "4", "-seed", "7", "-workers", "1"); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	if err := runArgs(&b, "-alg", "prefixsum", "-net", "star", "-n", "99", "-seed", "7", "-workers", "1"); err == nil {
		t.Fatal("out-of-range star size accepted")
	}
}
