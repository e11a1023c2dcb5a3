package main

import (
	"bytes"
	"context"
	"slices"
	"testing"

	"pramemu/internal/buildcache"
	"pramemu/internal/scenario"
)

// TestOpsMatchRunCell holds the benchmark to what users run: every
// op kind of the direct workloads, priced by the benchmark's own calls
// into the layers, must give the per-trial rounds and max queue that
// scenario.RunCell gives for the same cell and seeds. -short shrinks
// the networks to their -quick sizes.
func TestOpsMatchRunCell(t *testing.T) {
	const seed, trials = 1991, 2
	for _, w := range workloads {
		if w.kinds == nil {
			continue
		}
		cache := buildcache.New(buildcache.DefaultBudget)
		for _, c := range w.kinds(testing.Short()) {
			r, err := newRunner(cache, c)
			if err != nil {
				t.Fatalf("%s: %v", c.Key(), err)
			}
			var rounds, maxQ []int
			for trial := uint64(0); trial < trials; trial++ {
				st, err := r.price(nil, int(trial), seed+trial)
				if err != nil {
					t.Fatalf("%s: %v", c.Key(), err)
				}
				rounds = append(rounds, st.Rounds)
				maxQ = append(maxQ, st.MaxQueue)
			}
			c.Seed, c.Trials, c.Distribution = seed, trials, true
			res, err := scenario.RunCell(c)
			if err != nil {
				t.Fatalf("%s: RunCell: %v", c.Key(), err)
			}
			if !slices.Equal(rounds, res.TrialRounds) || !slices.Equal(maxQ, res.TrialMaxQ) {
				t.Errorf("%s: benchmark rounds %v max queue %v, RunCell %v and %v",
					c.Key(), rounds, maxQ, res.TrialRounds, res.TrialMaxQ)
			}
		}
	}
}

// TestSweepReplayMatchesRun checks that the traced sweep-cold pass, which
// replays the grid cell by cell through RunCellSafe, writes the same
// JSONL bytes as the sweep entry point untraced passes call.
func TestSweepReplayMatchesRun(t *testing.T) {
	spec := sweepSpec(testing.Short(), defaultSeed)
	want, err := scenario.RunContextOptions(context.Background(), spec, scenario.RunOptions{Cache: buildcache.New(buildcache.DefaultBudget)})
	if err != nil {
		t.Fatal(err)
	}
	got, err := replay(newTracer(), 0, noParent, spec, buildcache.New(buildcache.DefaultBudget))
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := scenario.WriteJSONL(&a, want); err != nil {
		t.Fatal(err)
	}
	if err := scenario.WriteJSONL(&b, got); err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 || !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("replay differs from RunContextOptions (%d vs %d cells):\n%s\nvs\n%s", len(got), len(want), b.String(), a.String())
	}
}
